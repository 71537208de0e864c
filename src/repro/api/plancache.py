"""The cross-request plan cache behind :class:`repro.Database`.

The semantic result cache (``src/repro/semcache/``) explicitly does *not*
reuse plans across requests beyond exact-result promotion — every rewrite
pays a fresh chase & backchase.  This module supplies the missing tier:
optimized plans (whole :class:`~repro.optimizer.optimizer.OptimizationResult`
objects) are retained across requests, keyed on the query's canonical
form plus the owning context's physical-design fingerprint
(:meth:`~repro.api.context.OptimizeContext.fingerprint`), so a repeated
query — or a :class:`~repro.api.database.PreparedQuery` re-run — skips
the chase/backchase entirely.

The store composes :class:`repro.lru.LRU`, like the engine's artifact
memo: bounded (every probe refreshes recency), counters surfaced through
a frozen :class:`PlanCacheInfo` snapshot, eviction only ever costs
re-optimization.
On top of that it is **invalidation-aware**: each entry records the
schema names its plan space read (every candidate plan's sources, the
original query's sources, and the class dictionaries oid dereference
reads implicitly) and the instance's write clock before it was
optimized; :meth:`PlanCache.invalidate_source` drops every entry whose
names the instance wrote since — the same conservative dependency
discipline as the semantic cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from repro.lru import LRU, CacheInfo
from repro.optimizer.optimizer import OptimizationResult

#: cache key: (template key [+ "#skew:..." or "#fb:..." variant tag],
#: context fingerprint).  The template key is the canonical form with
#: parameters renamed positionally (PCQuery.template_key), so every
#: binding of a template — and every alpha-variant of it — probes one
#: entry; skew-replanned and feedback-replanned variants get their own
#: suffix-tagged entries.
Key = Tuple[str, str]

DEFAULT_MAX_SIZE = 128

#: the counters snapshot: the shared :class:`~repro.lru.CacheInfo` shape,
#: with ``invalidations`` live
PlanCacheInfo = CacheInfo


@dataclass
class PlanCacheEntry:
    """One cached optimization: the full result, its dependency set and
    the instance's write clock read before the optimization.

    ``params`` records the parameter names of the optimized query in
    canonical (positional) order.  Alpha-variant templates (``$x`` vs
    ``$y``) share one entry via :meth:`PCQuery.template_key`; a caller
    binding its own template maps values onto the entry's plans by
    position, so the stored names never leak into the caller's API.

    An entry holds plans, not code: a compiled-mode database runs the
    winner through the engine's one artifact memo
    (:func:`repro.exec.engine.compiled_for`), whose key is the plan with
    its ``$`` markers, so every binding shares one compiled function.

    The feedback store (:class:`repro.obs.feedback.FeedbackStore`)
    stamps its verdicts here: ``baseline_seconds`` is the best execution
    time, ``flagged`` whether the store judged a run of it a regression
    (the routing signal for ``CacheConfig.feedback_replan``), and ``replanned``
    whether a feedback variant was already minted for it.  All three
    reset naturally with the entry on invalidation.
    """

    result: OptimizationResult
    dependencies: FrozenSet[str]
    params: Tuple[str, ...] = ()
    clock: int = 0
    baseline_seconds: Optional[float] = None
    flagged: bool = False
    replanned: bool = False


class PlanCache:
    """LRU store of optimization results with dependency invalidation;
    ``clock`` is the instance's write clock at the last sweep."""

    def __init__(self, max_size: Optional[int] = DEFAULT_MAX_SIZE) -> None:
        self._entries = LRU(max_size)
        self.invalidations = 0
        self.clock = 0

    def get(self, key: Key) -> Optional[PlanCacheEntry]:
        """Cached entry for ``key``, counting the probe and refreshing its
        recency."""

        return self._entries.get(key)

    def put(
        self,
        key: Key,
        result: OptimizationResult,
        dependencies: FrozenSet[str],
        params: Tuple[str, ...] = (),
        clock: int = 0,
    ) -> PlanCacheEntry:
        entry = PlanCacheEntry(
            result=result, dependencies=dependencies, params=params, clock=clock
        )
        self._entries.put(key, entry)
        return entry

    def invalidate_source(self, instance) -> int:
        """The sweep: drop every entry whose plan space read a name
        ``instance`` wrote since the entry's clock; returns the count."""

        stale = [
            key
            for key, entry in self._entries.items()
            if instance.written_since(entry.dependencies, entry.clock)
        ]
        for key in stale:
            self._entries.pop(key)
        self.invalidations += len(stale)
        self.clock = instance.clock
        return len(stale)

    def clear(self) -> int:
        """Drop everything (counters survive; drops count as
        invalidations — the explicit-statistics-refresh path)."""

        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    def cache_info(self) -> PlanCacheInfo:
        return replace(
            self._entries.cache_info(), invalidations=self.invalidations
        )

    def __len__(self) -> int:
        return len(self._entries)
