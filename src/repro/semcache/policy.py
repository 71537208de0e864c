"""Cost-benefit eviction for the semantic cache.

The pool is bounded two ways — number of views and total cached tuples —
and when either budget is exceeded the policy evicts the views with the
lowest *benefit density*: how much recomputation a view saves per tuple it
occupies, scaled by how often it actually served.

* the **saving** of a view is the estimated cost of recomputing its
  definition cold (:func:`repro.optimizer.cost.estimate_cost` over the
  catalog statistics) minus the cost of scanning the cached extent, plus
  the *observed* benefit the view accumulated serving rewrite and hybrid
  answers (:attr:`repro.semcache.view.CachedView.benefit` — partial hits
  count, so a view that keeps shaving cost off view ⋈ base plans is as
  sticky as one serving full rewrites);
* the **demand** factor is ``1 + hits`` (a never-hit view still has a
  chance, but a hot one is sticky);
* plan-only views score 0, so they are always evicted first.

Scores are recomputed at eviction time (hit counts move), and ties break
on registration order — oldest out first — so eviction is deterministic.
Degenerate budgets degrade gracefully: a zero (or negative) ``max_views``
or ``max_total_tuples`` behaves like a budget of one — the newest view
always stands, because evicting the entry that was just paid for would
make the cache useless for exactly the queries that are most expensive
to recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.optimizer.cost import CostModel, estimate_cost
from repro.optimizer.statistics import Statistics
from repro.semcache.view import CachedView


@dataclass
class CostBenefitPolicy:
    """Bounds for the view pool plus the benefit scoring that enforces them."""

    max_views: int = 64
    max_total_tuples: int = 200_000

    def score(
        self, view: CachedView, statistics: Statistics, cost_model: CostModel
    ) -> float:
        if view.plan_only:
            return 0.0
        recompute = estimate_cost(view.view.definition, statistics, cost_model)
        scan = cost_model.scan_startup + float(view.tuples()) * cost_model.tuple_cost
        saving = max(recompute - scan, 0.0) + view.benefit
        return (1 + view.hits) * saving / (1.0 + view.tuples())

    def over_budget(self, views: Dict[str, CachedView]) -> bool:
        if len(views) > self.max_views:
            return True
        total = sum(v.tuples() for v in views.values())
        return total > self.max_total_tuples

    def victims(
        self,
        views: Dict[str, CachedView],
        statistics: Statistics,
        cost_model: CostModel,
    ) -> List[str]:
        """Names to evict (in order) so the pool fits both budgets again.

        Never empties the pool entirely on the tuple budget: the single
        newest view is allowed to stand even if it alone exceeds
        ``max_total_tuples`` (evicting it would make the cache useless for
        exactly the queries that are most expensive to recompute).
        """

        if not self.over_budget(views):
            return []
        ranked = sorted(
            views.values(),
            key=lambda v: (
                self.score(v, statistics, cost_model),
                v.registered_at,
            ),
        )
        survivors = {v.name: v for v in ranked}
        chosen: List[str] = []
        for view in ranked:
            if len(survivors) <= 1 or not self.over_budget(survivors):
                break
            del survivors[view.name]
            chosen.append(view.name)
        return chosen
