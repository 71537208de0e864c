"""The semantic result cache: prior results as rewrite targets.

Every executed query's result set is registered as a
:class:`~repro.semcache.view.CachedView` — a materialized view whose
``cV``/``c'V`` constraint pair (Section 2) is injected, per request, into
an ephemeral optimization context.  The pruned backchase then does the
semantic heavy lifting: an incoming query is rewritten onto cached extents
exactly when containment holds under the base constraints plus the view
pairs, which is precisely the correctness condition a semantic cache
needs.  The cache itself only decides *bookkeeping*: which views are
relevant, when to evict (cost-benefit, :mod:`repro.semcache.policy`) and
when to invalidate (:meth:`SemanticCache.invalidate_source`: each view
records the instance's write clock it was computed at, and the sweep
drops every view a later write touched).  One pool serves one instance.

Lookup is one tier walk, :meth:`SemanticCache.lookup`, shared by the
session's request path, the façade's session-aware EXPLAIN (as a peek,
``record=False``) and the CLI's plan-level ``--cache`` mode:

1. **exact** — same canonical form as a cached query: the stored result
   set is returned as-is, no optimization, no execution;
2. **rewrite** — :meth:`SemanticCache.plan_rewrite` optimizes the query
   with the relevant views' constraint pairs.  Two physical filters are
   supported:

   * **view-only** (the default, ``base_names=None``): a plan survives
     only if it reads nothing but cached extents, so a hit is always
     answerable without touching base relations;
   * **hybrid** (``base_names`` given): plans mixing cached extents and
     the listed base relations are admitted too.  Cached extents are
     priced from their observed cardinalities and per-attribute NDVs
     (:func:`repro.optimizer.cost.extent_statistics`), so the cost-bounded
     backchase picks cached data exactly when it is genuinely cheaper;
     a winning plan that reads no view at all is reported as a miss.

Failures on the rewrite path (chase non-termination, node budgets) degrade
to misses — the cache can be slow, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.constraints.epcd import EPCD
from repro.errors import ReproError
from repro.obs.trace import NOOP_TRACER
from repro.optimizer.cost import estimate_cost, extent_statistics
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.optimizer.statistics import Statistics
from repro.query.ast import PCQuery
from repro.semcache.policy import CostBenefitPolicy
from repro.semcache.stats import CacheStats
from repro.semcache.view import CachedView, make_cached_view

#: default prefix for generated view names (reserved; queries over names
#: with this prefix are not admitted into the cache)
NAME_PREFIX = "_SC"

#: the most relevant views one rewrite may use (bounds the per-request chase)
MAX_REWRITE_VIEWS = 8


@dataclass
class Rewrite:
    """A successful cache rewrite: the plan, the views it reads, and what
    the answer is worth.

    ``hybrid`` is true when the winning plan also reads base relations (a
    partial hit); ``cold_cost`` is the estimated cost of the cold plan the
    rewrite displaced, so ``benefit`` — the non-negative cost delta — is
    what this answer saved, the quantity admission and eviction account.
    """

    result: OptimizationResult
    views: List[CachedView]
    hybrid: bool = False
    cold_cost: float = 0.0

    @property
    def query(self) -> PCQuery:
        return self.result.best.query

    @property
    def benefit(self) -> float:
        """Estimated cost saved vs the displaced cold plan (clamped >= 0)."""

        return max(self.cold_cost - self.result.best.cost, 0.0)

    @property
    def executable(self) -> bool:
        """False when a plan-only view is involved (nothing to scan)."""

        return all(not v.plan_only for v in self.views)

    def view_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.views)

    def base_names(self) -> FrozenSet[str]:
        """Base relations the winning plan reads (empty for pure rewrites)."""

        return self.result.best.query.schema_names() - frozenset(
            self.view_names()
        )


class SemanticCache:
    """A bounded pool of executed-query results usable as rewrite targets.

    ``context`` (an :class:`~repro.api.context.OptimizeContext`, e.g.
    ``Database.context``; a default one without) is what every rewrite
    optimizes under before its per-request overlay, and the one source of
    the catalog, cost model and tracer.  Its physical filter is never
    inherited: :meth:`plan_rewrite` sets one per request.  ``clock`` is
    the instance's write clock at the last sweep."""

    def __init__(
        self, context=None, policy: Optional[CostBenefitPolicy] = None
    ) -> None:
        if context is None:
            from repro.api.context import OptimizeContext  # repro.api imports us

            context = OptimizeContext()
        self.context = context
        self.policy = policy or CostBenefitPolicy()
        self.stats = CacheStats()
        self._views: Dict[str, CachedView] = {}
        self._exact: Dict[str, str] = {}  # canonical key -> view name
        self._seq = 0
        self.clock = 0

    # -- introspection ---------------------------------------------------------

    def views(self) -> List[CachedView]:
        return list(self._views.values())

    def get(self, name: str) -> Optional[CachedView]:
        return self._views.get(name)

    def total_tuples(self) -> int:
        return sum(v.tuples() for v in self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def report(self) -> str:
        lines = [
            f"semantic cache: {len(self._views)} views, "
            f"{self.total_tuples()} cached tuples"
        ]
        for view in self._views.values():
            lines.append(f"  {view}")
        lines.append(self.stats.report())
        return "\n".join(lines)

    # -- lookup ----------------------------------------------------------------

    def lookup(
        self,
        query: PCQuery,
        require_executable: bool = False,
        base_names: Optional[Callable[[], Iterable[str]]] = None,
        record: bool = True,
    ) -> Tuple[Optional[CachedView], Optional["Rewrite"]]:
        """The tier walk, exact → rewrite → miss: ``(view, None)``,
        ``(None, rewrite)`` or ``(None, None)``, traced to the context's
        tracer.  Arguments as in :meth:`plan_rewrite`, except that
        ``base_names`` is a callable *giving* the names, asked only once
        the exact tier has missed.  ``record=False`` decides identically
        but is a pure peek — no counter, benefit, recency or trace record
        moves: how EXPLAIN predicts what a session would serve without
        perturbing it."""

        tracer = self.context.tracer if record else NOOP_TRACER
        exact = self.lookup_exact(query) if record else self.peek_exact(query)
        if exact is not None:
            tracer.event("semcache.exact", hit=True, view=exact.name)
            return exact, None
        with tracer.span("semcache.rewrite") as sp:
            rewrite = self.plan_rewrite(
                query,
                require_executable=require_executable,
                base_names=base_names() if base_names else None,
                record=record,
            )
            sp.set(hit=rewrite is not None)
            if rewrite is not None:
                sp.set(
                    hybrid=rewrite.hybrid,
                    views=",".join(rewrite.view_names()),
                )
        if rewrite is None and record:
            self.stats.misses += 1
        return None, rewrite

    def lookup_exact(self, query: PCQuery) -> Optional[CachedView]:
        """:meth:`peek_exact` plus the bookkeeping: counts the lookup
        (once per request, whatever tier answers) and, on a hit,
        refreshes the view's recency."""

        self.stats.lookups += 1
        view = self.peek_exact(query)
        if view is not None:
            self.stats.exact_hits += 1
            self._touch(view)
        return view

    def peek_exact(self, query: PCQuery) -> Optional[CachedView]:
        """The cached view holding this exact query's result, if any."""

        name = self._exact.get(query.canonical_key())
        if name is None:
            return None
        view = self._views.get(name)
        if view is None or view.result is None:
            return None
        return view

    def candidate_views(self, query: PCQuery) -> List[CachedView]:
        """Relevant live views, most recently useful first, capped at
        :data:`MAX_REWRITE_VIEWS`."""

        names = query.schema_names()
        relevant = [v for v in self._views.values() if v.relevant_to(names)]
        relevant.sort(key=lambda v: (-v.last_used_at, v.name))
        return relevant[:MAX_REWRITE_VIEWS]

    def plan_rewrite(
        self,
        query: PCQuery,
        require_executable: bool = False,
        base_names: Optional[Iterable[str]] = None,
        record: bool = True,
    ) -> Optional[Rewrite]:
        """Rewrite ``query`` onto cached extents, or ``None`` on a miss.

        The ephemeral context is the base constraints plus each candidate
        view's pair, catalog statistics overlaid with observed extent
        statistics, and a physical filter.  With ``base_names=None`` the
        filter is the candidate view names alone — the winning plan reads
        cached data exclusively.  With ``base_names`` given (**hybrid
        mode**) the filter also admits those base relations, so the
        backchase is free to keep base loops where they are cheaper than
        any cached rewrite; the result is a hit only when the winning plan
        reads at least one cached extent, and ``Rewrite.hybrid`` flags
        plans that also read base data.  Every successful rewrite carries
        the estimated cost of the displaced cold plan, and the views the
        plan read are credited their share of the saving.

        With ``require_executable`` a rewrite that involves a plan-only
        view (nothing to scan) is a miss and counts nothing; sessions pass
        it so a hit is only ever recorded for a request actually served.

        ``record=False`` is a pure *peek*: the rewrite decision runs
        identically but no counters move, no benefit accrues and no view
        recency is refreshed — the explain path predicting what a session
        would serve.
        """

        candidates = self.candidate_views(query)
        if not candidates:
            return None
        if record:
            self.stats.rewrite_attempts += 1
        extra: List[EPCD] = []
        for view in candidates:
            extra.extend(view.constraints)
        physical = frozenset(v.name for v in candidates)
        if base_names is not None:
            physical |= frozenset(base_names)
        statistics = self._rewrite_statistics(candidates)
        # The per-request ephemeral context: base constraints + the
        # candidate views' cV/c'V pairs, observed extent statistics, and
        # the view(/base) physical filter — one frozen overlay.
        context = self.context.override(
            extra_constraints=tuple(extra),
            physical_names=physical,
            statistics=statistics,
        )
        try:
            result = Optimizer(context=context).optimize(query)
        except ReproError:
            if record:
                self.stats.rewrite_failures += 1
            return None
        if not result.best.physical_only:
            return None
        used_names = result.best.query.schema_names()
        used = [v for v in candidates if v.name in used_names]
        if not used:
            return None
        hybrid = bool(used_names - frozenset(v.name for v in used))
        # What the request would have cost served cold: the original query
        # exactly as the cold path executes it (no reordering), priced on
        # the same catalog so the delta is apples-to-apples.
        cold_cost = estimate_cost(query, statistics, self.context.cost_model)
        rewrite = Rewrite(
            result=result, views=used, hybrid=hybrid, cold_cost=cold_cost
        )
        if require_executable and not rewrite.executable:
            return None
        if not record:
            return rewrite
        if hybrid:
            self.stats.hybrid_hits += 1
        else:
            self.stats.rewrite_hits += 1
        # Benefit only accrues for rewrites that can actually serve data:
        # plan-only entries are priced at a nominal cardinality, so their
        # "saving" would be fictitious (the CLI's plan-level mode).
        benefit = rewrite.benefit if rewrite.executable else 0.0
        self.stats.benefit_accrued += benefit
        share = benefit / len(used)
        for view in used:
            view.hits += 1
            view.benefit += share
            self._touch(view)
        return rewrite

    def _rewrite_statistics(self, candidates: List[CachedView]) -> Statistics:
        """Catalog statistics with observed statistics for cached extents
        (exact cardinalities and per-attribute NDVs; see
        :func:`repro.optimizer.cost.extent_statistics`).  NDVs were
        computed at admission time, so this is O(views), not O(tuples)."""

        return extent_statistics(
            self.context.statistics,
            {view.name: view.extent for view in candidates},
            ndvs={view.name: view.observed_ndv for view in candidates},
        )

    def _touch(self, view: CachedView) -> None:
        self._seq += 1
        view.last_used_at = self._seq

    # -- registration ----------------------------------------------------------

    def register(
        self,
        query: PCQuery,
        results: Optional[FrozenSet] = None,
        extra_dependencies: FrozenSet[str] = frozenset(),
        clock: int = 0,
    ) -> Optional[CachedView]:
        """Admit an executed query (``results``) — or with ``results=None``
        a plan-only shape — into the pool; returns the view or ``None``
        when rejected (duplicate, or the query reads cache-owned names).

        ``extra_dependencies`` extend the invalidation key set beyond the
        query's syntactic sources (e.g. class dictionaries read through
        oid dereference); ``clock`` is the instance's write clock read
        before ``results`` were computed."""

        if query.has_params():
            # A template has no extent of its own — cacheable results
            # exist only per binding (CachedSession binds before lookup).
            self.stats.rejected += 1
            return None
        key = query.canonical_key()
        if key in self._exact and self._exact[key] in self._views:
            existing = self._views[self._exact[key]]
            if results is not None and existing.result is None:
                # Upgrade a plan-only entry with real data.
                self._drop(existing)
            else:
                self.stats.rejected += 1
                return None
        if any(name.startswith(NAME_PREFIX) for name in query.schema_names()):
            self.stats.rejected += 1
            return None
        self._seq += 1
        name = f"{NAME_PREFIX}{self._seq}"
        view = make_cached_view(
            name,
            query,
            results,
            registered_at=self._seq,
            extra_dependencies=frozenset(extra_dependencies),
            clock=clock,
        )
        self._views[name] = view
        self._exact[key] = name
        self.stats.registrations += 1
        self._evict_to_budget()
        return self._views.get(name)

    def _evict_to_budget(self) -> None:
        for name in self.policy.victims(
            self._views, self.context.statistics, self.context.cost_model
        ):
            view = self._views.get(name)
            if view is not None:
                self._drop(view)
                self.stats.evictions += 1

    def _drop(self, view: CachedView) -> None:
        self._views.pop(view.name, None)
        key = view.query.canonical_key()
        if self._exact.get(key) == view.name:
            del self._exact[key]

    # -- invalidation ----------------------------------------------------------

    def invalidate_source(self, instance) -> int:
        """The sweep: drop every view reading a name ``instance`` wrote
        since the view's clock; returns the count.  A session calls it
        before each tier walk and counter read once the clock moved."""

        stale = [
            view
            for view in self._views.values()
            if instance.written_since(view.dependencies, view.clock)
        ]
        for view in stale:
            self._drop(view)
        self.stats.invalidations += len(stale)
        self.clock = instance.clock
        return len(stale)

    def clear(self) -> None:
        """Drop every view (stats are monotone and survive)."""

        for view in list(self._views.values()):
            self._drop(view)
