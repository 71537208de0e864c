"""`repro.Database` — one façade for the paper's whole pipeline.

The chase & backchase engine is one conceptual object — a database with a
logical schema, a constraint set, a physical design, an instance and a
catalog — but the codebase historically exposed it as five disconnected
entry points (``Optimizer``, ``minimal_subqueries``, ``exec.engine``,
``CachedSession`` and the CLI's argument plumbing), each taking the same
state in a slightly different shape.  :class:`Database` is the façade
over all of them:

* constructed once from schema + constraints + physical design +
  :class:`~repro.model.instance.Instance` + statistics + cache config;
* the full request lifecycle as methods — :meth:`optimize`,
  :meth:`execute`, :meth:`explain`, :meth:`session` (a wired
  :class:`~repro.semcache.session.CachedSession`) and :meth:`prepare`;
* a cross-request **plan cache** (:mod:`repro.api.plancache`): optimize
  results are keyed on canonical query form + the context's
  physical-design fingerprint, LRU-bounded, and swept of what a write
  made stale by reading the instance's write clock before each probe,
  as the semantic cache does — the "no cross-request plan reuse"
  non-guarantee of the semantic cache closed at the façade layer;
* :meth:`prepare` returns a :class:`PreparedQuery`: canonicalize once,
  chase/backchase once, then ``prepared.run()`` re-executes the cached
  best plan — and re-optimizes transparently (with refreshed statistics)
  when a mutation invalidated its entry.

Every request — ``execute(q)``, ``execute(template, params=…)``,
``prepare(q).run()`` and ``prepare(template).run(**bindings)`` — is
argument validation plus one call of :meth:`Database._serve`.
Everything below the façade still works standalone.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import asdict, dataclass
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union

from repro.api.context import OptimizeContext
from repro.api.plancache import PlanCache, PlanCacheEntry, PlanCacheInfo
from repro.api.workloads import build_workload
from repro.constraints.epcd import EPCD
from repro.errors import ParameterBindingError, ReproError
from repro.exec.columnar import COLUMNS
from repro.exec.engine import ExecutionResult, execute, explain
from repro.model.instance import Instance
from repro.model.schema import Schema
from repro.obs import Observability, ObsConfig
from repro.obs.analyze import AnalyzeResult, analyze_query
from repro.optimizer.cost import CostModel, _attr_of, _selectivity
from repro.optimizer.optimizer import OptimizationResult, Plan
from repro.optimizer.statistics import Statistics, default_sample
from repro.query.ast import PCQuery
from repro.query.parser import parse_cache_info, parse_query
from repro.query.paths import Const, Param


#: the parameter-binding skew guard's band: a :class:`PreparedQuery`
#: binding a constant whose observed frequency differs from the
#: NDV-uniform selectivity the cached plan was costed with by at least
#: this factor (either direction) re-optimizes under adjusted statistics
#: into a skew-tagged plan-cache variant entry.
SKEW_REPLAN_RATIO = 8.0

#: request source -> the root span :meth:`Database._serve` opens for it
_ROOT_SPANS = {"execute": "db.execute", "prepared": "db.run_prepared"}


@dataclass(frozen=True)
class CacheConfig:
    """Caching knobs for one :class:`Database`.

    ``plan_cache_size`` bounds the cross-request plan cache (``None`` =
    unbounded, ``0`` = disabled).  A semantic-cache session is configured
    by :meth:`Database.session`'s own arguments and the database's
    context, not here.

    ``feedback_replan`` generalizes the skew guard from one bound value
    to the whole catalog: when plan-quality feedback
    (``ObsConfig(feedback=True)``) has judged a run of an entry a
    regression and flagged it, later requests for it re-optimize under
    the feedback-corrected statistics and are served from a
    ``#fb:``-tagged variant entry
    (:meth:`repro.obs.feedback.FeedbackStore.variant`).  Off by default —
    and inert without the feedback store, since there is nothing to
    correct with.
    """

    plan_cache_size: Optional[int] = 128
    feedback_replan: bool = False


class PreparedQuery:
    """A query (or ``$x``-parameterized template) optimized once,
    executable many times.

    Construction (via :meth:`Database.prepare`) canonicalizes the query
    and runs chase/backchase exactly once, parking the result in the
    database's plan cache keyed on the *template* (parameters renamed
    positionally), so every binding of the template — and every
    alpha-variant — shares one entry.  :meth:`run` re-fetches the entry
    by key on every call, so it is **invalidation-aware**: after an
    instance mutation drops the entry, the next run transparently
    re-optimizes against the database's refreshed statistics; otherwise
    it substitutes the bound constants into the cached best plan and
    executes it with no chase/backchase at all (plan-cache hit).

    Parameterized templates additionally pass a **selectivity-skew
    guard** at bind time: when the observed frequency of a bound constant
    deviates from the NDV-uniform estimate the plan was costed with by at
    least :data:`SKEW_REPLAN_RATIO`, the binding re-optimizes
    under adjusted statistics into a skew-tagged variant entry (bindings
    in the same log2 skew bucket then share *that* plan).
    """

    def __init__(
        self,
        database: "Database",
        query: PCQuery,
        strategy: Optional[str] = None,
    ) -> None:
        self.database = database
        self.query = query
        self.strategy = strategy
        #: parameter names in template order (first occurrence in the
        #: source text) — the keywords :meth:`run` accepts.
        self.params: Tuple[str, ...] = query.param_names()
        # Optimize eagerly: prepare pays the planning cost so run()
        # doesn't have to.
        database.optimize(query, strategy=strategy)

    @property
    def optimization(self) -> OptimizationResult:
        """The current optimization result (refreshed through the plan
        cache, so it tracks invalidations)."""

        return self.database.optimize(self.query, strategy=self.strategy)

    @property
    def plan(self) -> Plan:
        """The current winning plan — for a template, with the ``$x``
        markers still in place (:meth:`run` substitutes them)."""

        return self.optimization.best

    def run(
        self,
        instance: Optional[Instance] = None,
        overlays: Optional[Mapping[str, Any]] = None,
        **bindings: Any,
    ) -> ExecutionResult:
        """Execute the prepared plan.

        For a template, pass one keyword per ``$`` marker
        (``prepared.run(x=3)``); the values are substituted into the
        cached winning plan as constants at execution time — no
        chase/backchase re-entry.  :class:`ParameterBindingError` is
        raised on missing or unknown names.

        ``instance`` substitutes the target database for this call;
        ``overlays`` executes against a read-through overlay of the
        database's instance (per-call instance overrides, the
        :meth:`~repro.model.instance.Instance.overlay` semantics).
        """

        return self.database._serve(
            self.query,
            bindings,
            strategy=self.strategy,
            instance=instance,
            overlays=overlays,
            source="prepared",
        )

    def explain(self) -> str:
        """The operator tree the next :meth:`run` would execute (for a
        template, with the ``$x`` markers in place of the constants)."""

        return explain(self.plan.query)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.query})"


class Database:
    """Schema + constraints + physical design + instance + caches, as one
    object with the request lifecycle as methods."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        constraints: Sequence[EPCD] = (),
        physical_names: Optional[FrozenSet[str]] = None,
        instance: Optional[Instance] = None,
        statistics: Optional[Statistics] = None,
        cost_model: Optional[CostModel] = None,
        strategy: str = "pruned",
        max_chase_steps: int = 200,
        max_backchase_nodes: int = 20_000,
        reorder: bool = True,
        exec_mode: str = "interpret",
        cache_config: Optional[CacheConfig] = None,
        workload: Any = None,
        statistics_sample: Optional[int] = None,
        obs: Optional[Union[Observability, ObsConfig]] = None,
    ) -> None:
        self.schema = schema
        self.instance = instance
        self.cache_config = cache_config or CacheConfig()
        self.workload = workload
        # One observability bundle per database: tracer (threaded into the
        # context below, so every layer reports to it), metrics registry
        # and slow-query log.  Default: tracing off, metrics live.
        if obs is None:
            obs = Observability()
        elif isinstance(obs, ObsConfig):
            obs = Observability(obs)
        self.obs = obs
        self._session_seq = 0
        # With no explicit catalog the statistics are observed from the
        # instance and kept fresh: the first read of the context after a
        # write recomputes them.  ``statistics_sample`` caps every
        # observation (initial, after a write, explicit refresh) at
        # that many rows per extent — scaled estimates, cheap on large
        # instances.  Without it, instances with any extent past the
        # auto-sampling threshold default to a deterministic sample
        # (``default_sample``), so mutation-driven re-observation stays
        # cheap where it matters.
        self.statistics_sample = default_sample(instance, statistics_sample)
        self._auto_statistics = statistics is None and instance is not None
        # the write clock the statistics and the feedback store last saw
        self._stats_clock = self._feedback_clock = getattr(instance, "clock", 0)
        if statistics is None:
            statistics = (
                Statistics.from_instance(
                    instance, sample=self.statistics_sample
                )
                if instance is not None
                else Statistics()
            )
        self._context = OptimizeContext(
            constraints=tuple(constraints),
            physical_names=(
                frozenset(physical_names) if physical_names else None
            ),
            statistics=statistics,
            cost_model=cost_model or CostModel(),
            strategy=strategy,
            max_chase_steps=max_chase_steps,
            max_backchase_nodes=max_backchase_nodes,
            reorder=reorder,
            exec_mode=exec_mode,
            tracer=obs.tracer,
        )
        self.obs.registry.register_source(
            "plan_cache", lambda: asdict(self.plan_cache_info())
        )
        self.obs.registry.register_source(
            "query.parse_cache", lambda: asdict(parse_cache_info())
        )
        size = self.cache_config.plan_cache_size
        self._plan_cache = PlanCache(max_size=size) if size != 0 else None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        name: str,
        *,
        strategy: str = "pruned",
        cache_config: Optional[CacheConfig] = None,
        exec_mode: str = "interpret",
        obs: Optional[Union[Observability, ObsConfig]] = None,
        **builder_kwargs,
    ) -> "Database":
        """A database over a built-in workload: ``"rs"``, ``"rabc"``,
        ``"projdept"`` or ``"oo_asr"`` (``builder_kwargs`` pass through to
        the workload builder, e.g. ``n_depts=40``).  The built workload
        object stays reachable as ``db.workload`` (its canonical query is
        ``db.workload.query``)."""

        wl = build_workload(name, **builder_kwargs)
        return cls(
            schema=getattr(wl, "schema", None) or getattr(wl, "combined", None),
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            instance=wl.instance,
            statistics=wl.statistics,
            strategy=strategy,
            cache_config=cache_config,
            exec_mode=exec_mode,
            workload=wl,
            obs=obs,
        )

    # -- context and statistics ------------------------------------------------

    @property
    def context(self) -> OptimizeContext:
        """The current :class:`OptimizeContext` (auto-observed statistics
        are re-observed here when the instance was written since)."""

        if self._auto_statistics and self._stats_clock != self.instance.clock:
            self._stats_clock = self.instance.clock
            self._context = self._context.override(
                statistics=Statistics.from_instance(
                    self.instance, sample=self.statistics_sample
                )
            )
        return self._context

    @property
    def constraints(self):
        return self.context.constraints

    @property
    def physical_names(self):
        return self.context.physical_names

    @property
    def statistics(self) -> Statistics:
        return self.context.statistics

    @property
    def strategy(self) -> str:
        return self.context.strategy

    def refresh_statistics(
        self, statistics: Optional[Statistics] = None
    ) -> Statistics:
        """Swap in a new catalog (or re-observe the instance) and drop
        every cached plan: plans chosen under the old catalog may no
        longer be the winners."""

        if statistics is None:
            if self.instance is None:
                raise ReproError(
                    "refresh_statistics() needs an instance or an explicit "
                    "Statistics object"
                )
            statistics = Statistics.from_instance(
                self.instance, sample=self.statistics_sample
            )
        self._context = self._context.override(statistics=statistics)
        self._stats_clock = getattr(self.instance, "clock", 0)
        self.clear_plan_cache()
        if self.obs.feedback is not None:
            self.obs.feedback.clear()  # measured under the old catalog
        return statistics

    def _plans(self) -> Optional[PlanCache]:
        """The plan cache (``None`` when disabled), swept first when the
        instance was written since the last sweep."""

        cache, instance = self._plan_cache, self.instance
        if cache is not None and instance is not None and cache.clock != instance.clock:
            cache.invalidate_source(instance)
        return cache

    def _feedback(self):
        """The feedback store (``None`` when off), emptied first when the
        instance was written since it last looked.  (The skew guard's
        value counts live on the extent itself — a write is a new one.)"""

        store, instance = self.obs.feedback, self.instance
        if store is not None and instance is not None:
            if self._feedback_clock != instance.clock:
                self._feedback_clock = instance.clock
                store.clear()
        return store

    def close(self) -> None:
        """Nothing to release — the instance holds no reference to the
        database; kept so a database can close a ``with`` block."""

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request lifecycle -------------------------------------------------

    @staticmethod
    def _coerce_query(query: Union[PCQuery, str]) -> PCQuery:
        """Accept OQL text anywhere a query is expected (the CLI and the
        examples read much better for it)."""

        if isinstance(query, str):
            return parse_query(query)
        return query

    def optimize(
        self,
        query: Union[PCQuery, str],
        strategy: Optional[str] = None,
    ) -> OptimizationResult:
        """Algorithm 1 through the plan cache.

        A hit returns the retained :class:`OptimizationResult` with no
        chase/backchase work; a miss optimizes under the database context
        (per-call ``strategy`` override supported) and caches the result
        keyed on template key (canonical form with parameters renamed
        positionally) + context fingerprint, so every binding and every
        alpha-variant of a ``$x`` template probes one entry.
        ``CacheConfig(plan_cache_size=0)`` is the way to run uncached."""

        return self._optimize_entry(
            self._coerce_query(query), strategy=strategy
        )[0]

    def _optimize_entry(
        self,
        query: PCQuery,
        strategy: Optional[str] = None,
        variant: str = "",
        context: Optional[OptimizeContext] = None,
    ) -> Tuple[OptimizationResult, Optional[PlanCacheEntry]]:
        """:meth:`optimize` plus the cache entry itself (``None`` when
        the plan cache is disabled) — the serve path reads the entry's
        parameter tuple and feedback stamps.

        ``variant`` suffixes the template key — the replan policies'
        ``#skew:...`` / ``#fb:...`` tags, which alone separate variant
        entries from the base entry (the fingerprint deliberately
        excludes statistics, so every binding in a skew bucket shares the
        bucket's first plan); ``context`` substitutes the optimization
        context for this call (the variant's adjusted statistics).
        """

        ctx = context if context is not None else self.context
        if strategy is not None and strategy != ctx.strategy:
            ctx = ctx.override(strategy=strategy)
        cache = self._plans()
        with self.obs.tracer.span("db.optimize") as sp:
            entry = None
            if cache is not None:
                key = (query.template_key() + variant, ctx.fingerprint())
                entry = cache.get(key)
                self.obs.tracer.event(
                    "plan_cache.lookup",
                    hit=entry is not None,
                    variant=variant or None,
                )
            if entry is not None:
                result = entry.result
            else:
                result = ctx.optimizer().optimize(query)
                if cache is not None:
                    # the clock swept at the probe, read before optimizing
                    entry = cache.put(
                        key,
                        result,
                        self._dependencies(query, result),
                        params=query.canonical().param_names(),
                        clock=cache.clock,
                    )
            sp.set(
                strategy=result.strategy,
                plans=len(result.plans),
                best_cost=round(result.best.cost, 3),
            )
        return result, entry

    def execute(
        self,
        query: Union[PCQuery, str],
        overlays: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Optimize (through the plan cache) and run the winning plan.

        A ``$x`` template needs ``params`` (one value per marker);
        repeated bindings hit the template's plan-cache entry exactly as
        :meth:`PreparedQuery.run` does — one probe per call."""

        return self._serve(
            self._coerce_query(query),
            dict(params) if params else {},
            overlays=overlays,
            source="execute",
        )

    def _serve(
        self,
        query: PCQuery,
        bindings: Mapping[str, Any],
        *,
        strategy: Optional[str] = None,
        instance: Optional[Instance] = None,
        overlays: Optional[Mapping[str, Any]] = None,
        source: str,
    ) -> ExecutionResult:
        """The one request path behind :meth:`execute` and
        :meth:`PreparedQuery.run`: resolve the plan-cache entry → maybe
        replan into a variant entry (skew guard, then plan-quality
        feedback) → run → slow log → feedback.

        ``source`` (``"execute"`` / ``"prepared"``) names the root span
        and tags the slow-log and feedback records."""

        query.check_bindings(bindings)
        start = time.perf_counter()
        with self.obs.tracer.span(_ROOT_SPANS[source]) as sp:
            # Canonical-occurrence order: position i lines up with
            # position i of the cache entry's ``params`` tuple, whatever
            # the entry's own names were (alpha-variant sharing).
            order = query.canonical().param_names() if bindings else ()
            variant = self._skew_variant(query, order, bindings)
            skewed = variant is not None
            if not skewed:
                result, entry = self._optimize_entry(query, strategy=strategy)
                if self.cache_config.feedback_replan and (
                    store := self._feedback()
                ) is not None:
                    variant = store.variant(entry, self.context.statistics)
            if variant is not None:
                # The one replan mechanism: the skew guard and feedback
                # differ only in when to replan and how to adjust.
                tag, statistics = variant
                result, entry = self._optimize_entry(
                    query, strategy, tag, self.context.override(statistics=statistics)
                )
            names = entry.params if entry is not None else order
            execution = self._run_entry(
                result.best.query,
                {names[i]: bindings[name] for i, name in enumerate(order)},
                instance,
                overlays,
            )
            sp.set(rows=len(execution.results), skew=skewed)
        self.obs.slow_log.observe(
            query,
            time.perf_counter() - start,
            source=source,
            rows=len(execution.results),
        )
        if instance is None and overlays is None:
            # The estimates price a template's $-markers exactly like the
            # cost model did (1/NDV), so template Q-error aggregates over
            # bindings the way the plan was actually chosen.
            self._observe_feedback(
                entry, result.best.query, execution, source=source
            )
        return execution

    def _run_entry(
        self,
        plan_query: PCQuery,
        values: Mapping[str, Any],
        instance: Optional[Instance],
        overlays: Optional[Mapping[str, Any]],
    ) -> ExecutionResult:
        """Run a winning plan with ``values`` for its markers, unpacking
        the context into :func:`execute`'s flags unchanged (the engine
        decides how a binding reaches the plan)."""

        context = self.context
        return execute(
            plan_query,
            self._target(instance),
            overlays=overlays,
            tracer=context.tracer,
            mode=context.exec_mode,
            params=values,
            feedback=self.obs.feedback is not None,
        )

    def _target(self, instance: Optional[Instance]) -> Instance:
        target = instance if instance is not None else self.instance
        if target is None:
            raise ReproError(
                "this Database has no instance to execute against"
            )
        return target

    def execute_plan(
        self,
        plan: Plan,
        instance: Optional[Instance] = None,
        overlays: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Run an already-optimized plan against the database's instance
        (or ``instance``), optionally through a read-through overlay."""

        if plan.query.has_params():
            declared = ", ".join(f"${n}" for n in plan.query.param_names())
            raise ParameterBindingError(
                f"plan contains unbound parameter(s) {declared} — bind them "
                f"via PreparedQuery.run(...) before execution"
            )
        return self._run_entry(plan.query, {}, instance, overlays)

    def explain(
        self,
        query: Union[PCQuery, str],
        session=None,
        analyze: bool = False,
    ) -> Union[str, AnalyzeResult]:
        """The plan text of what executing ``query`` would run.

        Without ``session``: the operator tree of the plan-cached winner —
        byte-identical to what :meth:`execute` runs.  With a
        :class:`~repro.semcache.session.CachedSession`: the tree of what
        ``session.run(query)`` would execute *right now* — an exact hit
        explains to the empty string (no plan runs), a rewrite/hybrid hit
        shows cached extents tagged ``[cached]``, a miss shows the cold
        execution of the raw query.  Peeks only: no cache counters move
        and no views are credited.

        ``analyze=True`` is EXPLAIN ANALYZE: the plan actually *runs*
        (with the same overlay semantics the plain path would use) under
        per-operator instrumentation, returning an
        :class:`~repro.obs.analyze.AnalyzeResult` whose ``render()``
        prints actual rows / loops / probes / wall time per operator next
        to the cost model's row estimates; ``result.rows`` always equals
        ``len(execute(query))``.  ANALYZE is the engine's *interpreted*
        run read off the operators' own counters, so it works unchanged
        (and reports interpreted actuals) even when the database
        executes in ``exec_mode="compiled"``."""

        query = self._coerce_query(query)
        context = self.context if session is None else session.context
        instance = overlays = None
        if session is None:
            query = self.optimize(query).best.query
        elif session.enabled:
            instance = session.instance
            stored, rewrite = session.lookup(query, record=False)
            if stored is not None:
                # exact hits return the stored result; no operators run —
                # ANALYZE reports its cardinality with an empty operator
                # table, plain EXPLAIN the empty plan
                if not analyze:
                    return ""
                return AnalyzeResult(
                    query=query,
                    results=stored.result,
                    elapsed_seconds=0.0,
                    plan_text="",
                )
            if rewrite is not None:
                query = rewrite.query
                overlays = {v.name: v.extent for v in rewrite.views}
        if analyze:
            return self._analyze(
                query, context, overlays=overlays, instance=instance
            )
        return explain(
            query, cached_names=frozenset(overlays) if overlays else None
        )

    def _analyze(
        self,
        plan_query: PCQuery,
        context: OptimizeContext,
        overlays: Optional[Mapping[str, Any]] = None,
        instance: Optional[Instance] = None,
    ) -> AnalyzeResult:
        target = instance if instance is not None else self.instance
        if target is None:
            raise ReproError(
                "explain(analyze=True) needs an instance to execute against"
            )
        if plan_query.has_params():
            declared = ", ".join(f"${n}" for n in plan_query.param_names())
            raise ParameterBindingError(
                f"cannot analyze a template with unbound parameter(s) "
                f"{declared} — bind them first"
            )
        return analyze_query(
            plan_query,
            target,
            overlays=overlays,
            statistics=context.statistics,
            cost_model=context.cost_model,
        )

    def prepare(
        self, query: Union[PCQuery, str], strategy: Optional[str] = None
    ) -> PreparedQuery:
        """Canonicalize + optimize once; returns a :class:`PreparedQuery`
        whose :meth:`~PreparedQuery.run` skips chase/backchase on every
        repeat (plan-cache hits)."""

        query = self._coerce_query(query)
        with self.obs.tracer.span("db.prepare") as sp:
            prepared = PreparedQuery(self, query, strategy=strategy)
            sp.set(params=len(prepared.params))
        return prepared

    def session(self, hybrid: bool = True, enabled: bool = True):
        """A :class:`~repro.semcache.session.CachedSession` over this
        database's instance and current :attr:`context` — constraints,
        statistics, cost model, strategy, limits, execution flags and
        tracer all flow from it — with the slow-query log and, when
        feedback is on, the feedback observer wired in."""

        from repro.semcache.session import CachedSession

        if self.instance is None:
            raise ReproError("this Database has no instance to serve")
        feedback_hook = None
        if self.obs.feedback is not None:
            # Cold session executions run the query verbatim (no cache
            # entry to stamp), but their per-level actuals still teach
            # the shared statistics corrections.
            def feedback_hook(query, execution, source):
                self._observe_feedback(None, query, execution, source=source)

        sess = CachedSession(
            self.instance,
            context=self.context,
            enabled=enabled,
            hybrid=hybrid,
            slow_log=self.obs.slow_log,
            feedback_hook=feedback_hook,
        )
        # Surface the session's CacheStats in metrics().  Weakly held: a
        # dead session's source reports None and the registry omits it.
        self._session_seq += 1
        name = (
            "semcache"
            if self._session_seq == 1
            else f"semcache#{self._session_seq}"
        )
        ref = weakref.ref(sess)

        def semcache_source():
            live = ref()
            return live.stats.as_dict() if live is not None else None

        self.obs.registry.register_source(name, semcache_source)
        return sess

    # -- physical design tuning ------------------------------------------------

    def advise(
        self,
        workload,
        budget=None,
    ):
        """Propose the best set of physical structures for ``workload``
        (queries, OQL text, or ``(query, frequency)`` pairs) under a
        :class:`~repro.advisor.advisor.DesignBudget`.

        Pure analysis: candidate views/indexes are priced hypothetically —
        their constraint pairs and estimated statistics overlaid via
        :meth:`OptimizeContext.override` and costed by the pruned
        backchase — and nothing is installed until
        :meth:`apply_design`.  Returns an
        :class:`~repro.advisor.advisor.AdvisorReport` (deterministic for a
        fixed workload + budget)."""

        from repro.advisor import PhysicalDesignAdvisor

        available = self.context.physical_names
        if available is None:
            if self.instance is None:
                raise ReproError(
                    "advise() needs a physical-name filter or an instance "
                    "to define the current design"
                )
            available = frozenset(self.instance.names())
        advisor = PhysicalDesignAdvisor(
            self.context, available, schema=self.schema
        )
        return advisor.advise(workload, budget=budget)

    def apply_design(self, report) -> list:
        """Install an :class:`~repro.advisor.advisor.AdvisorReport`'s
        chosen design and adopt it as this database's physical design.

        All-or-nothing: every structure is *materialized* (and its schema
        entry typechecked) before anything is assigned, so a failure —
        e.g. a :class:`~repro.physical.indexes.PrimaryIndex` chosen off
        sampled statistics hitting a real key violation — raises with the
        instance, schema and context untouched.  The assignments then tick
        the instance's write clock (dependent plan-cache entries drop at
        the next probe), the context grows the design's constraint pairs
        and names, and — when the statistics are auto-observed — the
        catalog is re-observed so subsequent optimizations price the
        *real* extents (an
        explicitly supplied catalog is preserved, exactly as the
        constructor promises; call :meth:`refresh_statistics` yourself to
        replace it).  Idempotent: structures whose name the instance
        already holds are skipped (re-applying a report is a no-op, no
        duplicated constraint pairs).  Returns the newly installed names."""

        if self.instance is None:
            raise ReproError("apply_design() needs an instance to install into")
        pending = [
            cand for cand in report.chosen if cand.name not in self.instance
        ]
        if not pending:
            return []
        # Phase 1 — validate: materialize every structure against the
        # unmutated instance (chosen structures only read base names, never
        # each other) and resolve its schema entry.
        staged = []
        for cand in pending:
            value = cand.structure.materialize(self.instance)
            schema_type = None
            if self.schema is not None and cand.name not in self.schema:
                schema_type = cand.schema_type(self.schema)
            staged.append((cand, value, schema_type))
        # Phase 2 — commit: each assignment ticks the write clock.
        installed = []
        for cand, value, schema_type in staged:
            self.instance[cand.name] = value
            if schema_type is not None:
                self.schema.add(cand.name, schema_type)
            installed.append(cand.name)
        from repro.advisor.candidates import iter_constraints

        known = {dep.name for dep in self._context.constraints}
        current = self._context.physical_names
        self._context = self._context.override(
            extra_constraints=[
                dep
                for dep in iter_constraints(pending)
                if dep.name not in known
            ],
            physical_names=(
                None if current is None else current | frozenset(installed)
            ),
        )
        if self._auto_statistics:
            self.refresh_statistics()
        else:
            # the design (and with it the plan-cache fingerprint) changed:
            # drop retained plans, but keep the caller's catalog
            self.clear_plan_cache()
        return installed

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self):
        """The database's request tracer (``db.tracer.enable()`` turns
        span recording on; it is threaded into every layer already)."""

        return self.obs.tracer

    def metrics(self) -> Dict[str, Any]:
        """One JSON-ready snapshot of everything observable: registry
        counters/gauges/histograms, the live legacy counter families
        (plan cache, per-session semantic-cache stats), the slow-query
        log and the tracing state."""

        snapshot = self.obs.registry.snapshot()
        snapshot["slow_queries"] = self.obs.slow_log.as_dicts()
        snapshot["tracing"] = {
            "enabled": self.obs.tracer.enabled,
            "spans_recorded": len(self.obs.tracer),
        }
        store = self._feedback()
        if store is not None:
            snapshot["feedback"] = store.as_dict()
            snapshot["regressions"] = [
                regression.regression_dict() for regression in store.regressions
            ]
        return snapshot

    def metrics_report(self) -> str:
        """:meth:`metrics` rendered for humans (the REPL's ``\\metrics``)."""

        lines = [self.obs.registry.render()]
        lines.append(self.obs.slow_log.render())
        return "\n".join(lines)

    def feedback_report(self) -> str:
        """Plan-quality feedback rendered for humans (the store's
        :meth:`~repro.obs.feedback.FeedbackStore.render`; the REPL's
        ``\\feedback`` and ``python -m repro metrics --feedback``)."""

        store = self._feedback()
        if store is None:
            return (
                "plan-quality feedback is disabled — construct the "
                "Database with obs=ObsConfig(feedback=True)"
            )
        return store.render()

    def query_report(self, request_id: Optional[int] = None):
        """The :class:`~repro.obs.report.QueryReport` timeline of one
        traced request (default: the most recent)."""

        return self.obs.report(request_id)

    # -- plan-cache bookkeeping ------------------------------------------------

    def plan_cache_info(self) -> PlanCacheInfo:
        """Counters of the cross-request plan cache (``repro.lru``'s
        ``cache_info()`` plus invalidations)."""

        cache = self._plans()
        if cache is None:
            return PlanCacheInfo(0, 0, 0, 0, 0, 0)
        return cache.cache_info()

    def clear_plan_cache(self) -> int:
        cache = self._plans()
        return cache.clear() if cache is not None else 0

    def _dependencies(
        self, query: PCQuery, result: OptimizationResult
    ) -> FrozenSet[str]:
        """Names whose mutation must drop this entry: every source any
        candidate plan reads (a mutation can flip the winner), the
        query's own sources, and the class dictionaries oid dereference
        reads without naming (the semantic cache's conservative rule)."""

        names = set(query.schema_names())
        for plan in result.plans:
            names |= plan.query.schema_names()
        if self.instance is not None:
            names |= self.instance.class_dict_names()
        return frozenset(names)

    # -- the parameter-binding skew guard --------------------------------------

    def _skew_variant(
        self,
        query: PCQuery,
        order: Tuple[str, ...],
        bindings: Mapping[str, Any],
    ) -> Optional[Tuple[str, Statistics]]:
        """The skew guard's replan policy: the ``(tag, adjusted
        statistics)`` of the variant entry a skewed binding routes to, or
        ``None`` when no bound constant is skewed.

        For each equality between a parameter and a binding-variable
        attribute, compare the selectivity the cached plan was costed with
        (the cost model's own: ``1 / NDV`` when the NDV is recorded, else
        ``DEFAULT_SELECTIVITY``) against the bound constant's observed
        frequency; when the ratio crosses
        :data:`SKEW_REPLAN_RATIO` in either direction, the
        condition contributes ``p<canonical position>.<rel>.<attr>@<log2
        bucket>`` to the tag and its adjusted NDV to the statistics.
        Positions and buckets are alpha- and value-bucket-invariant, so a
        variant entry is shared by every binding in the same skew class.

        The frequency is the bound value's share of all the extent's rows,
        read off the column store's value index
        (:data:`~repro.exec.columnar.COLUMNS`), which a write replaces
        with the extent.  An extent the store cannot index — not a set,
        rows lacking the attribute, unhashable values — is no evidence:
        the condition is skipped.
        """

        if not bindings or self.instance is None:
            return None
        sources = {b.var: b.source for b in query.bindings}
        stats = self.context.statistics
        # (canonical position, rel, attr) -> (log2 bucket, adjusted NDV)
        skewed: Dict[Tuple[int, str, str], Tuple[int, float]] = {}
        for cond in query.conditions:
            for param_side, attr_side in (
                (cond.left, cond.right),
                (cond.right, cond.left),
            ):
                if not isinstance(param_side, Param):
                    continue
                info = _attr_of(attr_side, sources)
                if info is None:
                    continue
                rel, attr = info
                value = bindings.get(param_side.name)
                if isinstance(value, Const):
                    value = value.value
                if not isinstance(value, (str, int, float, bool)):
                    continue
                try:
                    extent = COLUMNS.get(self.instance, rel)
                    index = extent.index(attr, self.instance)
                except ReproError:
                    continue
                total = len(extent.elements)
                if index is None or not total:
                    continue
                planned = _selectivity(cond, sources, stats)
                actual = max(len(index.get(value, ())), 0.5) / total
                ratio = actual / planned
                if 1.0 / SKEW_REPLAN_RATIO < ratio < SKEW_REPLAN_RATIO:
                    continue
                skewed.setdefault(
                    (order.index(param_side.name), rel, attr),
                    (
                        int(round(math.log2(ratio))),
                        min(max(1.0 / actual, 1.0), float(total)),
                    ),
                )
        if not skewed:
            return None
        ranked = sorted(skewed.items())
        adjusted = stats.copy()
        for (_, rel, attr), (_, ndv) in ranked:
            adjusted.set_ndv(rel, attr, ndv)
        self.obs.tracer.event(
            "skew.replan",
            conditions=len(ranked),
            buckets=",".join(str(bucket) for _, (bucket, _) in ranked),
        )
        tag = "#skew:" + ",".join(
            f"p{pos}.{rel}.{attr}@{bucket}"
            for (pos, rel, attr), (bucket, _) in ranked
        )
        return tag, adjusted

    # -- plan-quality feedback -------------------------------------------------

    def _observe_feedback(
        self,
        entry: Optional[PlanCacheEntry],
        plan_query: PCQuery,
        execution: ExecutionResult,
        source: str,
    ) -> None:
        """Hand one request's per-level actuals to the feedback store,
        which judges them and stamps ``entry``.  A no-op (one ``None``
        check) with feedback off or when the run collected no actuals."""

        if execution.level_rows is None or (store := self._feedback()) is None:
            return
        store.observe(
            plan_query,
            self.context.statistics,
            execution.level_rows,
            rows=len(execution.results),
            elapsed_seconds=execution.elapsed_seconds,
            source=source,
            entry=entry,
        )

    def __repr__(self) -> str:
        parts = [f"{len(self.context.constraints)} constraints"]
        if self.context.physical_names is not None:
            parts.append(f"physical={sorted(self.context.physical_names)}")
        if self.instance is not None:
            parts.append(f"instance={len(self.instance.names())} names")
        info = self.plan_cache_info()
        parts.append(f"plan_cache={info.size} entries")
        return f"Database({', '.join(parts)})"
