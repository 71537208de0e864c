"""The caching query service: execute → maybe-rewrite → maybe-register.

:class:`CachedSession` is the front end the serving layers (REPL, bench
harness) talk to.  Each :meth:`run` call walks the cache's tiers
(:meth:`~repro.semcache.cache.SemanticCache.lookup`), falls back to a cold
execution through :func:`repro.exec.engine.execute` — in the context's
``exec_mode``, like rewrites; interpreted without a context — and feeds the
cold result back into the pool so later queries can be answered from it.

Rewritten plans execute against a read-through **overlay**
(:meth:`repro.model.instance.Instance.overlay`): the used extents are
materialized under their view names while every base-relation read
resolves against the *live* instance at scan time.  For pure rewrites the
overlay is only a namespace trick (the plan reads cached extents
exclusively); for **hybrid** plans — enabled by default, disable with
``hybrid=False`` — it is load-bearing: a view ⋈ base plan re-resolves its
base loops against the current database, so a mutation of a base relation
can never be papered over by a stale snapshot, and the invalidation
listener never sees cache-internal writes.

The session subscribes the cache to instance mutations on construction
(:class:`~repro.semcache.invalidation.InstanceWatcher`); :meth:`close`
detaches it.  ``enabled=False`` degrades to a plain cold executor with the
same interface, which is what the cold arms of the benchmarks run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.constraints.epcd import EPCD
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.obs.trace import NOOP_TRACER
from repro.optimizer.statistics import Statistics
from repro.query.ast import PCQuery
from repro.semcache.cache import SemanticCache
from repro.semcache.invalidation import InstanceWatcher
from repro.semcache.stats import CacheStats

#: sources a result can come from
EXACT, REWRITE, HYBRID, COLD = "exact", "rewrite", "hybrid", "cold"


@dataclass
class SessionResult:
    """One answered query: the result set plus where it came from."""

    results: FrozenSet[Any]
    source: str  # EXACT | REWRITE | HYBRID | COLD
    elapsed_seconds: float
    plan_text: str = ""
    view_names: Tuple[str, ...] = ()
    base_names: Tuple[str, ...] = ()  # base relations a hybrid plan read

    def __len__(self) -> int:
        return len(self.results)


class CachedSession:
    """A query session over one instance with a semantic result cache.

    ``hybrid`` selects the rewrite tier's physical filter: with it (the
    default) winning plans may mix cached extents and base relations —
    partial hits — while ``hybrid=False`` restores the all-or-nothing
    view-only mode (a hit reads cached data exclusively).
    """

    def __init__(
        self,
        instance: Instance,
        constraints: Sequence[EPCD] = (),
        statistics: Optional[Statistics] = None,
        cache: Optional[SemanticCache] = None,
        enabled: bool = True,
        use_hash_joins: bool = False,
        hybrid: bool = True,
        context=None,
        slow_log=None,
        feedback_hook=None,
        **cache_options,
    ) -> None:
        """``context`` (an :class:`~repro.api.context.OptimizeContext`)
        supplies constraints/statistics/cost model/strategy/limits in one
        value — how ``Database.session()`` wires sessions; the individual
        arguments remain for standalone use.  ``slow_log`` (a
        :class:`~repro.obs.slowlog.SlowQueryLog`) records runs over its
        threshold — ``Database.session()`` passes the database's.
        ``feedback_hook`` — a ``(query, execution, source)`` callable —
        receives every *cold* execution (rewrites run against overlays,
        whose extents would corrupt cardinality feedback) with per-level
        actuals collected; ``Database.session()`` wires the plan-quality
        feedback observer here when feedback is on."""

        self.instance = instance
        self.enabled = enabled
        self.use_hash_joins = use_hash_joins
        self.hybrid = hybrid
        self.context = context
        self.tracer = context.tracer if context is not None else NOOP_TRACER
        # a standalone session leaves the engine's default (interpreted)
        self.exec_mode = context.exec_mode if context is not None else None
        self.slow_log = slow_log
        self.feedback_hook = feedback_hook
        self.cache = cache or SemanticCache(
            constraints, statistics=statistics, context=context, **cache_options
        )
        self._watcher = InstanceWatcher(instance, self.cache) if enabled else None

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def close(self) -> None:
        """Detach the invalidation listener (the cache itself survives)."""

        if self._watcher is not None:
            self._watcher.close()
            self._watcher = None

    def __enter__(self) -> "CachedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request path ------------------------------------------------------

    def run(
        self,
        query: PCQuery,
        params: Optional[Mapping[str, Any]] = None,
    ) -> SessionResult:
        """Answer ``query``: exact hit, (hybrid) cache rewrite, or cold
        execution.

        A ``$x`` template needs ``params`` (one value per marker); the
        binding is substituted *before* the cache walks its tiers, so
        exact entries are keyed per (template, binding) — distinct
        bindings populate distinct entries, repeats of a binding hit its
        own."""

        query = query.bind_params(dict(params) if params else {}) \
            if (params or query.has_params()) else query
        tracer = self.tracer
        with tracer.span("session.run") as root:
            result = self._run(query, tracer)
            root.set(source=result.source, rows=len(result.results))
        if self.slow_log is not None:
            self.slow_log.observe(
                query,
                result.elapsed_seconds,
                source=f"session.{result.source}",
                rows=len(result.results),
            )
        return result

    def lookup(self, query: PCQuery, record: bool = True):
        """:meth:`SemanticCache.lookup` as this session configures it:
        ``(exact view, rewrite)``.  ``record=False`` peeks at what
        :meth:`run` would serve right now (``Database.explain``)."""

        return self.cache.lookup(
            query,
            require_executable=True,
            base_names=self.instance.names if self.hybrid else None,
            record=record,
            tracer=self.tracer,
        )

    def _run(self, query: PCQuery, tracer) -> SessionResult:
        start = time.perf_counter()
        if not self.enabled:
            return self._cold(query, tracer, start)

        exact, rewrite = self.lookup(query)
        if exact is not None:
            return SessionResult(
                results=exact.result,
                source=EXACT,
                elapsed_seconds=time.perf_counter() - start,
                view_names=(exact.name,),
            )
        if rewrite is not None:
            # Cached extents shadow nothing (the view namespace is
            # reserved); base reads fall through to the live instance at
            # scan time, which is what makes hybrid answers mutation-safe.
            execution = execute(
                rewrite.query,
                self.instance,
                use_hash_joins=self.use_hash_joins,
                overlays={view.name: view.extent for view in rewrite.views},
                tracer=tracer,
                mode=self.exec_mode,
            )
            # Promote the rewrite into an exact entry: repeats of this
            # query skip the per-request optimization entirely.
            self.cache.register(
                query, execution.results, self._implicit_dependencies()
            )
            return SessionResult(
                results=execution.results,
                source=HYBRID if rewrite.hybrid else REWRITE,
                elapsed_seconds=time.perf_counter() - start,
                plan_text=execution.plan_text,
                view_names=rewrite.view_names(),
                base_names=tuple(sorted(rewrite.base_names())),
            )

        return self._cold(query, tracer, start)

    def _cold(self, query: PCQuery, tracer, start: float) -> SessionResult:
        """Execute ``query`` verbatim against the live instance, feeding
        the per-level actuals to the feedback hook when one is wired and
        (an enabled session) the result back into the view pool."""

        execution = execute(
            query,
            self.instance,
            use_hash_joins=self.use_hash_joins,
            tracer=tracer,
            mode=self.exec_mode,
            feedback=self.feedback_hook is not None,
        )
        if self.feedback_hook is not None:
            self.feedback_hook(query, execution, "session.cold")
        if self.enabled:
            self.cache.register(
                query, execution.results, self._implicit_dependencies()
            )
        return SessionResult(
            results=execution.results,
            source=COLD,
            elapsed_seconds=time.perf_counter() - start,
            plan_text=execution.plan_text,
        )

    def _implicit_dependencies(self):
        """Names every evaluation may read without naming them: the class
        dictionaries oid dereference goes through.  Registered as extra
        invalidation dependencies so mutating one drops the view."""

        return self.instance.class_dict_names()
