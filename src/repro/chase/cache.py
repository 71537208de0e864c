"""Memoized containment verdicts for the backchase hot path.

Backchase condition (3) decides, for every candidate subquery, whether it
is still equivalent to the plan being minimized — a chase of the candidate
plus a containment-mapping search per check.  The same candidate *shape*
(canonical form) is re-derived along many removal orders, and the same
(query, constraint-set) pair recurs across the search, the condition
pruner and the completeness tests.  This cache keys verdicts on
canonicalized (sub-query, super-query) pairs — the backchase search names
its entries (candidate, search root) itself, since every node is
equivalent to the root; the constraint set is fixed per owning
:class:`~repro.chase.chase.ChaseEngine`, so it does not appear in the key.

Verdicts are pure functions of the canonical pair and the engine's
dependency set, so caching is exact: a hit returns precisely what the
uncached decision procedure would (asserted by the regression tests on
the paper's E1/E5 examples).

The store is **bounded**: at most ``max_size`` verdicts are retained,
evicted least-recently-used (every probe refreshes recency).  An engine
that outlives one optimization — a ``RuleBasedOptimizer`` holds one
for its lifetime; every ``Optimizer.optimize`` call, semantic-cache
rewrites included, builds a fresh one — therefore holds the cache at a
fixed footprint; an eviction only ever costs a re-computation, never a
wrong answer.  ``max_size=None`` disables the bound.  :meth:`cache_info`
reports the counters.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.lru import LRU, CacheInfo

Key = Tuple[str, str]

DEFAULT_MAX_SIZE = 8192


class ContainmentCache:
    """LRU verdict store for ``q1 ⊑ q2`` checks under one constraint set."""

    def __init__(self, max_size: Optional[int] = DEFAULT_MAX_SIZE) -> None:
        self.verdicts = LRU(max_size)

    @property
    def max_size(self) -> Optional[int]:
        return self.verdicts.max_size

    @property
    def hits(self) -> int:
        return self.verdicts.hits

    @property
    def misses(self) -> int:
        return self.verdicts.misses

    @property
    def evictions(self) -> int:
        return self.verdicts.evictions

    @staticmethod
    def key_for(q1, q2) -> Key:
        return (q1.canonical_key(), q2.canonical_key())

    def get(self, key: Key) -> Optional[bool]:
        """Cached verdict for ``key``, counting the probe and refreshing
        its recency."""

        return self.verdicts.get(key)

    def put(self, key: Key, verdict: bool) -> bool:
        self.verdicts.put(key, verdict)
        return verdict

    def cache_info(self) -> CacheInfo:
        return self.verdicts.cache_info()

    def __len__(self) -> int:
        return len(self.verdicts)

    def clear(self) -> None:
        """Drop every verdict and reset the counters."""

        self.verdicts = LRU(self.max_size)
