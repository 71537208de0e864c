"""Algorithm 1 — the complete chase & backchase optimizer.

::

    Input:  logical schema with constraints D,
            constraints D' characterizing physical schema,
            cost function C, query Q
    Output: cheapest plan Q' equivalent to Q under D ∪ D'

    1. for each U = chase(Q, D ∪ D')
    2.   for each p = backchase(U, D ∪ D')
    3.     do cost-based conventional optimization
    4.     keep cheapest plan so far

The inputs besides Q are one :class:`~repro.api.context.OptimizeContext`,
the :class:`Optimizer`'s only setting besides its verdict store.  Our chase
is deterministic, so step 1 yields the single universal plan;
step 2 enumerates backchase normal forms; each normal form is normalized,
condition-pruned, refined with non-failing lookups, join-reordered
(step 3) and costed (step 4).

Step 2 is one search (:func:`repro.backchase.backchase.minimal_subqueries`)
run under one of two **strategies**:

* ``"full"`` — unbounded, the complete enumeration (Theorem 2): every
  normal form, i.e. every minimal equivalent subquery, appears in
  ``result.plans``.  Exponential in the number of redundant bindings;
  retained for the completeness tests and for callers that need the whole
  plan space.
* ``"pruned"`` (the default) — the same search, cost-bounded.  Steps 3-4
  are pushed *into* the backchase: every complete plan is costed through
  the same normalize/prune/refine/reorder pipeline as it is discovered, and any
  branch whose cost lower bound exceeds the best eligible complete plan so
  far is cut.  The bound is the node's
  :func:`~repro.optimizer.cost.floor_terms` (recorded in the root's
  removal graph) priced under the context's catalog by
  :func:`~repro.optimizer.cost.floor_pricer`.  ``result.plans`` may omit
  dominated normal forms, but ``result.best`` always has the same cost as
  the full enumeration's winner — when a physical-schema filter is
  installed, only physical plans tighten the bound, so the filtered
  winner is preserved too.  Completeness in the Theorem 2 sense is *not*
  preserved; cost-optimality of the returned best plan is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backchase.backchase import BackchaseStats, RootVerdicts, minimal_subqueries
from repro.chase.chase import ChaseEngine, ChaseResult, chase
from repro.errors import OptimizationError
from repro.lru import LRU, CacheInfo
from repro.optimizer.cost import estimate_cost
from repro.optimizer.refine import (
    nonfailing_refinement,
    normalize_plan,
    prune_conditions,
)
from repro.optimizer.reorder import reorder_bindings
from repro.query.ast import PCQuery


@dataclass
class Plan:
    """One costed plan in the optimizer's output."""

    query: PCQuery
    cost: float
    physical_only: bool
    refined: bool = False
    source: str = "backchase"

    def __str__(self) -> str:
        tags = []
        if self.physical_only:
            tags.append("physical")
        if self.refined:
            tags.append("refined")
        tag_text = f" [{', '.join(tags)}]" if tags else ""
        return f"cost={self.cost:.1f}{tag_text}: {self.query}"


@dataclass
class OptimizationResult:
    """Universal plan, candidate plans (cost-ranked) and the winner.

    Under the ``"full"`` strategy ``plans`` covers every backchase normal
    form; under ``"pruned"`` dominated forms may be absent but ``best``
    has the same cost either way.
    """

    query: PCQuery
    universal_plan: PCQuery
    chase_steps: List
    plans: List[Plan]
    best: Plan
    backchase_stats: BackchaseStats
    strategy: str = "full"
    #: condition pruning's pair verdicts this run served and decided
    #: (``RootVerdicts.contained_in``'s hits / misses, a pair an earlier
    #: search stored counting as a hit; ``size`` is 0: the pairs live in
    #: the root's verdict entry, beside the search's own verdicts, which
    #: are counted in ``backchase_stats``)
    containment: Optional[CacheInfo] = None
    #: how the run's lookup-safety decisions were reached
    #: (memo / guard / inferred / chased — ``backchase._failing_lookup_safe``)
    lookup_decisions: Optional[Dict[str, int]] = None
    #: ``ChaseEngine.containment_decisions`` and ``ChaseEngine.chase_counts``
    containment_decisions: Optional[Dict[str, int]] = None
    chase_counts: Optional[Dict[str, int]] = None

    def physical_plans(self) -> List[Plan]:
        return [p for p in self.plans if p.physical_only]

    def report(self) -> str:
        stats = self.backchase_stats
        lines = [
            f"query: {self.query}",
            f"universal plan ({len(self.universal_plan.bindings)} bindings): "
            f"{self.universal_plan}",
            f"backchase[{self.strategy}]: "
            f"{stats.candidates_explored} candidates explored, "
            f"{stats.candidates_pruned} pruned, "
            f"{stats.cache_hits} containment verdicts reused",
            f"{len(self.plans)} candidate plans:",
        ]
        for plan in self.plans:
            marker = "->" if plan is self.best else "  "
            lines.append(f" {marker} {plan}")
        return "\n".join(lines)


class Optimizer:
    """The chase & backchase optimizer (Algorithm 1)."""

    def __init__(self, context, verdict_store: Optional[LRU] = None) -> None:
        """``context``: the one :class:`~repro.api.context.OptimizeContext`
        every setting is read from — constraints, physical filter,
        statistics, cost model, strategy, limits, tracer.

        ``verdict_store``: an :class:`~repro.lru.LRU` the verdicts of a
        search outlive it in — condition (3), lookup safety, step 3's
        condition-pruning pairs and the removals the search built, one
        entry per constraint set and root up to its constants
        (:class:`~repro.backchase.backchase.RootVerdicts`; the
        :class:`~repro.api.database.Database` passes its own).  Only facts
        are shared: every optimize still walks and costs its own search."""

        self.context = context
        self.verdict_store = verdict_store

    # -- phases --------------------------------------------------------------

    def universal_plan(self, query: PCQuery) -> ChaseResult:
        """Phase 1: chase the query into the universal plan."""

        return chase(query, self.context.constraints, self.context.max_chase_steps)

    def _root_verdicts(self, universal: PCQuery) -> RootVerdicts:
        """Where the search from ``universal`` keeps its verdicts (the
        ``verdict_store``'s entry, if the optimizer has a store) and the
        fresh engine that decides them."""

        context = self.context
        engine = ChaseEngine(
            context.constraints, context.max_chase_steps, tracer=context.tracer
        )
        return RootVerdicts(universal, engine, context, self.verdict_store)

    def minimal_plans(
        self, verdicts: RootVerdicts, stats: Optional[BackchaseStats] = None
    ) -> List[PCQuery]:
        """Phase 2: backchase normal forms of the universal plan that
        ``verdicts`` is over (:meth:`optimize` builds them, the verdict
        store's entry for the plan if the optimizer has a store).

        Under the optimizer's strategy: with ``"pruned"`` the search is
        bounded by the cost of the best complete plan (run through the same
        costing pipeline the optimizer ranks plans with); with ``"full"`` it
        runs unbounded and every normal form is returned.  The search keeps
        its verdicts in ``verdicts``, and the bound's coster prunes
        conditions through them.  Each search starts the costing
        pipeline's memos afresh, and :meth:`optimize`'s cost phase reads
        what it filled.
        """

        self._pipeline_cache: Dict[str, List[Tuple[PCQuery, bool]]] = {}
        self._plan_cache: Dict[Tuple[str, bool], Plan] = {}
        context = self.context
        pruned = context.strategy == "pruned"
        return minimal_subqueries(
            verdicts,
            max_nodes=context.max_backchase_nodes,
            stats=stats,
            strategy=context.strategy,
            statistics=context.statistics if pruned else None,
            cost_model=context.cost_model if pruned else None,
            plan_cost=self._bounding_cost(verdicts) if pruned else None,
        )

    # -- the costing pipeline (Algorithm 1 steps 3-4) --------------------------

    def _variants(
        self, form: PCQuery, verdicts: RootVerdicts
    ) -> List[Tuple[PCQuery, bool]]:
        """Normalized and (when applicable) non-failing-refined variants,
        conditions pruned through the search's ``verdicts``.

        Memoized per normal-form shape for one optimize, so the pruned
        search and the final plan assembly share the work.
        """

        cache = self._pipeline_cache
        key = form.canonical_key()
        got = cache.get(key)
        if got is None:
            cleaned = normalize_plan(form)
            cleaned = prune_conditions(
                cleaned, self.context.constraints, contained_in=verdicts.contained_in
            )
            cleaned = normalize_plan(cleaned)
            got = [(cleaned, False)]
            refined = nonfailing_refinement(cleaned)
            if refined is not None:
                got.append((refined, True))
            cache[key] = got
        return got

    def _costed(self, plan_query: PCQuery, refined: bool) -> Plan:
        # Keyed on (shape, refined): the same plan shape can surface both as
        # a cleaned variant of one form and a refined variant of another,
        # and the flag on the returned Plan must match the caller's pair.
        cache = self._plan_cache
        key = (plan_query.canonical_key(), refined)
        plan = cache.get(key)
        if plan is None:
            context = self.context
            execution_query = plan_query
            if context.reorder:
                execution_query = reorder_bindings(
                    plan_query, context.statistics, context.cost_model
                )
            cost = estimate_cost(execution_query, context.statistics, context.cost_model)
            plan = Plan(
                query=execution_query,
                cost=cost,
                physical_only=self._is_physical(execution_query),
                refined=refined,
            )
            cache[key] = plan
        return plan

    def _bounding_cost(self, verdicts: RootVerdicts):
        """The pruned search's ``plan_cost``: a normal form's best *eligible*
        cost through the full costing pipeline, or ``None`` when no variant
        could be picked as the final answer (so it must not tighten the
        bound)."""

        physical_filter = self.context.physical_names is not None

        def plan_cost(form: PCQuery) -> Optional[float]:
            costs = [
                self._costed(variant, refined).cost
                for variant, refined in self._variants(form, verdicts)
                if not physical_filter or self._costed(variant, refined).physical_only
            ]
            return min(costs) if costs else None

        return plan_cost

    # -- Algorithm 1 -----------------------------------------------------------

    def optimize(self, query: PCQuery) -> OptimizationResult:
        """Run Algorithm 1 on ``query``."""

        tracer = self.context.tracer
        with tracer.span("phase.chase") as sp:
            chase_result = self.universal_plan(query)
            universal = chase_result.query
            sp.set(
                chase_steps=len(chase_result.steps),
                universal_bindings=len(universal.bindings),
            )
        bc_stats = BackchaseStats()
        verdicts = self._root_verdicts(universal)
        engine = verdicts.engine
        with tracer.span("phase.backchase", strategy=self.context.strategy) as sp:
            normal_forms = self.minimal_plans(verdicts, bc_stats)
            sp.set(
                normal_forms=len(normal_forms),
                candidates_explored=bc_stats.candidates_explored,
                candidates_pruned=bc_stats.candidates_pruned,
            )

        candidates: Dict[str, Tuple[PCQuery, bool]] = {}

        def add(plan: PCQuery, refined: bool) -> None:
            key = plan.canonical_key()
            if key not in candidates:
                candidates[key] = (plan, refined)

        with tracer.span("phase.cost") as sp:
            for form in normal_forms:
                for variant, refined in self._variants(form, verdicts):
                    add(variant, refined=refined)

            plans: List[Plan] = [
                self._costed(plan_query, refined)
                for plan_query, refined in candidates.values()
            ]
            if not plans:
                raise OptimizationError("backchase produced no plans")
            plans.sort(key=lambda p: (p.cost, p.query.canonical_key()))

            eligible = [p for p in plans if p.physical_only] or plans
            best = eligible[0]
            sp.set(plans=len(plans), best_cost=round(best.cost, 3))
        containment = CacheInfo(verdicts.hits, verdicts.misses, 0, None, 0)
        # The verdicts, the engine and bc_stats are per-run, so every field
        # is this run's own delta; sizes are states, not deltas, and stay out.
        tracer.add_counters("backchase", bc_stats.as_dict())
        tracer.add_counters(
            "containment", {"hits": containment.hits, "misses": containment.misses}
        )
        tracer.add_counters("lookup_safety", engine.lookup_decisions)
        tracer.add_counters("containment.decided", engine.containment_decisions)
        chase_counts = engine.chase_counts()
        tracer.add_counters("chase", chase_counts)
        return OptimizationResult(
            query=query,
            universal_plan=universal,
            chase_steps=chase_result.steps,
            plans=plans,
            best=best,
            backchase_stats=bc_stats,
            strategy=self.context.strategy,
            containment=containment,
            lookup_decisions=engine.lookup_decisions,
            containment_decisions=engine.containment_decisions,
            chase_counts=chase_counts,
        )

    def _is_physical(self, query: PCQuery) -> bool:
        names = self.context.physical_names
        return names is None or query.schema_names() <= names
