"""The caching query service: execute → maybe-rewrite → maybe-register.

:class:`CachedSession` is the front end the serving layers (REPL, bench
harness) talk to.  Each :meth:`run` call walks the cache's tiers
(:meth:`~repro.semcache.cache.SemanticCache.lookup`), falls back to a cold
execution through :func:`repro.exec.engine.execute` and feeds the cold
result back into the pool so later queries can be answered from it.

A session has one :class:`~repro.api.context.OptimizeContext`, its
cache's: rewrites optimize under it, and it alone says how plans run
(``exec_mode``, ``use_hash_joins``) and where spans go (``tracer``) — so
``CachedSession(db.instance, context=db.context)`` serves exactly what
``db.session()`` serves.  Without a context a session runs interpreted,
without hash joins, untraced.

Rewritten plans execute against a read-through **overlay**
(:meth:`repro.model.instance.Instance.overlay`): the used extents are
materialized under their view names while every base-relation read
resolves against the *live* instance at scan time.  For pure rewrites the
overlay is only a namespace trick (the plan reads cached extents
exclusively); for **hybrid** plans — enabled by default, disable with
``hybrid=False`` — it is load-bearing: a view ⋈ base plan re-resolves its
base loops against the current database, so a mutation of a base relation
can never be papered over by a stale snapshot, and cache-internal writes
never tick the instance's write clock.

Each view records the instance's write clock read before the request
that computed it.  Before every tier walk and every read of :attr:`stats`
the session compares the clock with the one its cache last swept at and,
when it moved, calls
:meth:`~repro.semcache.cache.SemanticCache.invalidate_source`, which drops
the views a write made stale.  The instance holds no reference to the
session, so a dropped session is freed; :meth:`close` releases nothing.
A promoted hybrid answer registers under the *original* query, whose
sources name every base relation it read, so a base write drops it like
any view.  ``enabled=False`` degrades to a plain cold executor with the
same interface, which is what the cold arms of the benchmarks run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Tuple

from repro.exec.engine import ExecutionResult, execute
from repro.model.instance import Instance
from repro.query.ast import PCQuery
from repro.semcache.cache import SemanticCache
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

    ``context`` builds the cache when ``cache`` is not given; either way
    the session's :attr:`context` is its cache's.  ``hybrid`` selects the
    rewrite tier's physical filter: with it (the default) winning plans
    may mix cached extents and base relations — partial hits — while
    ``hybrid=False`` restores the all-or-nothing view-only mode (a hit
    reads cached data exclusively).  ``slow_log`` (a
    :class:`~repro.obs.slowlog.SlowQueryLog`) records runs over its
    threshold.  ``feedback_hook`` — a ``(query, execution, source)``
    callable — receives every *cold* execution (rewrites run against
    overlays, whose extents would corrupt cardinality feedback) with
    per-level actuals collected.  ``Database.session()`` wires both.
    """

    def __init__(
        self,
        instance: Instance,
        context=None,
        cache: Optional[SemanticCache] = None,
        enabled: bool = True,
        hybrid: bool = True,
        slow_log=None,
        feedback_hook=None,
    ) -> None:
        self.instance = instance
        self.enabled = enabled
        self.hybrid = hybrid
        self.slow_log = slow_log
        self.feedback_hook = feedback_hook
        self.cache = cache if cache is not None else SemanticCache(context)
        self.context = self.cache.context

    def _swept(self) -> SemanticCache:
        """The cache, swept first when the instance was written since
        its last sweep."""

        cache = self.cache
        if cache.clock != self.instance.clock:
            cache.invalidate_source(self.instance)
        return cache

    @property
    def stats(self) -> CacheStats:
        return self._swept().stats

    def close(self) -> None:
        """Nothing to release — the instance holds no reference to the
        session; kept so a session can close a ``with`` block."""

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
        with self.context.tracer.span("session.run") as root:
            result = self._run(query)
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

        return self._swept().lookup(
            query,
            require_executable=True,
            base_names=self.instance.names if self.hybrid else None,
            record=record,
        )

    def _execute(self, query: PCQuery, **options) -> ExecutionResult:
        """:func:`execute` on the live instance, as the context says."""

        context = self.context
        return execute(
            query,
            self.instance,
            use_hash_joins=context.use_hash_joins,
            tracer=context.tracer,
            mode=context.exec_mode,
            **options,
        )

    def _run(self, query: PCQuery) -> SessionResult:
        start = time.perf_counter()
        clock = self.instance.clock  # what every answer below reads
        if not self.enabled:
            return self._cold(query, start, clock)

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
            execution = self._execute(
                rewrite.query,
                overlays={view.name: view.extent for view in rewrite.views},
            )
            # Promote the rewrite into an exact entry: repeats of this
            # query skip the per-request optimization entirely.
            self._register(query, execution, clock)
            return SessionResult(
                results=execution.results,
                source=HYBRID if rewrite.hybrid else REWRITE,
                elapsed_seconds=time.perf_counter() - start,
                plan_text=execution.plan_text,
                view_names=rewrite.view_names(),
                base_names=tuple(sorted(rewrite.base_names())),
            )

        return self._cold(query, start, clock)

    def _cold(self, query: PCQuery, start: float, clock: int) -> SessionResult:
        """Execute ``query`` verbatim against the live instance, feeding
        the per-level actuals to the feedback hook when one is wired and
        (an enabled session) the result back into the view pool."""

        execution = self._execute(
            query, feedback=self.feedback_hook is not None
        )
        if self.feedback_hook is not None:
            self.feedback_hook(query, execution, "session.cold")
        if self.enabled:
            self._register(query, execution, clock)
        return SessionResult(
            results=execution.results,
            source=COLD,
            elapsed_seconds=time.perf_counter() - start,
            plan_text=execution.plan_text,
        )

    def _register(self, query: PCQuery, execution, clock: int) -> None:
        """Admit an answer computed at write clock ``clock``; the class
        dictionaries oid dereference reads without naming them are extra
        dependencies, so writing one drops the view."""

        self.cache.register(
            query, execution.results, self.instance.class_dict_names(), clock
        )
