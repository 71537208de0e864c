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

The store composes :class:`repro.lru.LRU`, like the executor's artifact
cache: bounded (every probe refreshes recency), counters surfaced through
a frozen :class:`PlanCacheInfo` snapshot, eviction only ever costs
re-optimization.
On top of that it is **invalidation-aware**: each entry records the
schema names its plan space read (every candidate plan's sources, the
original query's sources, and the class dictionaries oid dereference
reads implicitly), and :meth:`PlanCache.invalidate_source` drops the
dependents of a mutated name — through the same
:class:`repro.lru.DependencyIndex`, and the same conservative dependency
discipline, as the semantic cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from repro.lru import LRU, CacheInfo, DependencyIndex
from repro.optimizer.optimizer import OptimizationResult

#: cache key: (template key [+ "#skew:..." variant tag], context fingerprint).
#: The template key is the canonical form with parameters renamed
#: positionally (PCQuery.template_key), so every binding of a template —
#: and every alpha-variant of it — probes one entry; skew-replanned
#: variants get their own suffix-tagged entries.
Key = Tuple[str, str]

DEFAULT_MAX_SIZE = 128

#: the counters snapshot: the shared :class:`~repro.lru.CacheInfo` shape,
#: with ``invalidations`` live
PlanCacheInfo = CacheInfo


@dataclass
class PlanCacheEntry:
    """One cached optimization: the full result plus its dependency set.

    ``params`` records the parameter names of the optimized query in
    canonical (positional) order.  Alpha-variant templates (``$x`` vs
    ``$y``) share one entry via :meth:`PCQuery.template_key`; a caller
    binding its own template maps values onto the entry's plans by
    position, so the stored names never leak into the caller's API.

    ``compiled`` lazily caches the winning plan's generated fused
    function (:class:`~repro.exec.compile.CompiledPlan`) when the owning
    database executes in compiled mode: parameters stay runtime arguments
    of the artifact, so ``prepare(template).run(x=...)`` substitutes
    bindings into an already-compiled function.  It lives and dies with
    the entry — dependency invalidation drops both together.

    The plan-quality feedback layer (:mod:`repro.obs.feedback`) stamps
    its verdicts here: ``worst_qerror`` is the worst per-level Q-error
    any request served by this entry observed, ``baseline_seconds`` the
    best execution time, ``flagged`` whether the regression log tripped
    on it (the routing signal for ``CacheConfig.feedback_replan``), and
    ``replanned`` whether a feedback variant was already minted for it.
    All four reset naturally with the entry on invalidation.
    """

    result: OptimizationResult
    dependencies: FrozenSet[str]
    params: Tuple[str, ...] = ()
    compiled: Optional[object] = None
    worst_qerror: float = 1.0
    baseline_seconds: Optional[float] = None
    flagged: bool = False
    replanned: bool = False


class PlanCache:
    """LRU store of optimization results with dependency invalidation."""

    def __init__(self, max_size: Optional[int] = DEFAULT_MAX_SIZE) -> None:
        self._entries = LRU(max_size)
        self._index = DependencyIndex()  # schema name -> dependent keys
        self.invalidations = 0

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
    ) -> PlanCacheEntry:
        entry = PlanCacheEntry(
            result=result, dependencies=dependencies, params=params
        )
        replaced = self._entries.pop(key)
        if replaced is not None:
            self._index.remove(key, replaced.dependencies)
        self._index.add(key, dependencies)
        for victim, evicted in self._entries.put(key, entry):
            self._index.remove(victim, evicted.dependencies)
        return entry

    def invalidate_source(self, name: str) -> int:
        """Drop every entry whose plan space read ``name``; returns the
        count.  Called by the owning database on each instance mutation."""

        dropped = 0
        for key in self._index.dependents(name):
            entry = self._entries.pop(key)
            if entry is not None:
                self._index.remove(key, entry.dependencies)
                dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> int:
        """Drop everything (counters survive; drops count as
        invalidations — the explicit-statistics-refresh path)."""

        dropped = len(self._entries)
        self._entries.clear()
        self._index.clear()
        self.invalidations += dropped
        return dropped

    def cache_info(self) -> PlanCacheInfo:
        return replace(
            self._entries.cache_info(), invalidations=self.invalidations
        )

    def __len__(self) -> int:
        return len(self._entries)
