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

Our chase is deterministic, so step 1 yields the single universal plan;
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
  branch whose cost lower bound (:func:`plan_cost_floor`) exceeds the best
  eligible complete plan so far is cut.  ``result.plans`` may omit
  dominated normal forms, but ``result.best`` always has the same cost as
  the full enumeration's winner — when a physical-schema filter is
  installed, only physical plans tighten the bound, so the filtered
  winner is preserved too.  Completeness in the Theorem 2 sense is *not*
  preserved; cost-optimality of the returned best plan is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backchase.backchase import BackchaseStats, RootVerdicts, minimal_subqueries
from repro.chase.chase import ChaseEngine, ChaseResult, chase
from repro.constraints.epcd import EPCD
from repro.errors import OptimizationError
from repro.lru import LRU, CacheInfo
from repro.optimizer.cost import CostModel, estimate_cost
from repro.optimizer.refine import (
    nonfailing_refinement,
    normalize_plan,
    prune_conditions,
)
from repro.optimizer.reorder import reorder_bindings
from repro.optimizer.statistics import Statistics
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

    def __init__(
        self,
        constraints: Sequence[EPCD] = (),
        physical_names: Optional[Iterable[str]] = None,
        statistics: Optional[Statistics] = None,
        cost_model: Optional[CostModel] = None,
        max_chase_steps: int = 200,
        max_backchase_nodes: int = 20_000,
        reorder: bool = True,
        strategy: str = "pruned",
        context=None,
        verdict_store: Optional[LRU] = None,
    ) -> None:
        """Build from classic keyword arguments or from one
        :class:`~repro.api.context.OptimizeContext` (``context=...``),
        which wins over the individual kwargs when given.  Either way
        the optimizer's whole configuration is that one frozen context;
        the classic names below are read-only views of it.

        ``verdict_store``: an :class:`~repro.lru.LRU` the verdicts of a
        search outlive it in — condition (3), lookup safety, step 3's
        condition-pruning pairs and the removals the search built, one
        entry per constraint set and root up to its constants
        (:class:`~repro.backchase.backchase.RootVerdicts`; the
        :class:`~repro.api.database.Database` passes its own).  Only facts
        are shared: every optimize still walks and costs its own search."""

        if context is None:
            # Lazy: repro.api imports this module.
            from repro.api.context import OptimizeContext

            context = OptimizeContext(
                constraints=tuple(constraints),
                physical_names=(
                    frozenset(physical_names) if physical_names else None
                ),
                statistics=statistics or Statistics(),
                cost_model=cost_model or CostModel(),
                strategy=strategy,
                max_chase_steps=max_chase_steps,
                max_backchase_nodes=max_backchase_nodes,
                reorder=reorder,
            )
        self.context = context
        self.verdict_store = verdict_store
        # Per-optimize() memos shared between the pruned search's bounding
        # coster and the final plan assembly.
        self._pipeline_cache: Dict[str, List[Tuple[PCQuery, bool]]] = {}
        self._plan_cache: Dict[Tuple[str, bool], Plan] = {}

    @property
    def constraints(self) -> Tuple[EPCD, ...]:
        return self.context.constraints

    @property
    def physical_names(self):
        return self.context.physical_names

    @property
    def statistics(self) -> Statistics:
        return self.context.statistics

    @property
    def cost_model(self) -> CostModel:
        return self.context.cost_model

    @property
    def max_chase_steps(self) -> int:
        return self.context.max_chase_steps

    @property
    def max_backchase_nodes(self) -> int:
        return self.context.max_backchase_nodes

    @property
    def reorder(self) -> bool:
        return self.context.reorder

    @property
    def strategy(self) -> str:
        return self.context.strategy

    @property
    def tracer(self):
        return self.context.tracer

    # -- phases --------------------------------------------------------------

    def universal_plan(self, query: PCQuery) -> ChaseResult:
        """Phase 1: chase the query into the universal plan."""

        return chase(query, self.constraints, self.max_chase_steps)

    def _root_verdicts(self, universal: PCQuery) -> RootVerdicts:
        """Where the search from ``universal`` keeps its verdicts (the
        ``verdict_store``'s entry, if the optimizer has a store) and the
        fresh engine that decides them."""

        engine = ChaseEngine(self.constraints, self.max_chase_steps, tracer=self.tracer)
        return RootVerdicts(universal, engine, self.context, self.verdict_store)

    def minimal_plans(
        self,
        universal: PCQuery,
        stats: Optional[BackchaseStats] = None,
        verdicts: Optional[RootVerdicts] = None,
    ) -> List[PCQuery]:
        """Phase 2: backchase normal forms of the universal plan.

        Under the optimizer's strategy: with ``"pruned"`` the search is
        bounded by the cost of the best complete plan (run through the same
        costing pipeline the optimizer ranks plans with); with ``"full"`` it
        runs unbounded and every normal form is returned.  The search keeps
        its verdicts in ``verdicts`` (by default the optimizer's entry for
        ``universal``), and the bound's coster prunes conditions through
        them.
        """

        verdicts = verdicts or self._root_verdicts(universal)
        # The context carries the constraint set and the bound's catalog.
        return minimal_subqueries(
            universal,
            max_nodes=self.max_backchase_nodes,
            stats=stats,
            strategy=self.strategy,
            context=self.context,
            plan_cost=self._bounding_cost(verdicts) if self.strategy == "pruned" else None,
            verdicts=verdicts,
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
                cleaned, self.constraints, contained_in=verdicts.contained_in
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
            execution_query = plan_query
            if self.reorder:
                execution_query = reorder_bindings(
                    plan_query, self.statistics, self.cost_model
                )
            cost = estimate_cost(execution_query, self.statistics, self.cost_model)
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

        physical_filter = self.physical_names is not None

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

        tracer = self.tracer
        with tracer.span("phase.chase") as sp:
            chase_result = self.universal_plan(query)
            universal = chase_result.query
            sp.set(
                chase_steps=len(chase_result.steps),
                universal_bindings=len(universal.bindings),
            )
        bc_stats = BackchaseStats()
        self._pipeline_cache: Dict[str, List[Tuple[PCQuery, bool]]] = {}
        self._plan_cache: Dict[Tuple[str, bool], Plan] = {}

        verdicts = self._root_verdicts(universal)
        engine = verdicts.engine
        with tracer.span("phase.backchase", strategy=self.strategy) as sp:
            normal_forms = self.minimal_plans(universal, bc_stats, verdicts=verdicts)
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
            strategy=self.strategy,
            containment=containment,
            lookup_decisions=engine.lookup_decisions,
            containment_decisions=engine.containment_decisions,
            chase_counts=chase_counts,
        )

    def _is_physical(self, query: PCQuery) -> bool:
        if self.physical_names is None:
            return True
        return query.schema_names() <= self.physical_names
