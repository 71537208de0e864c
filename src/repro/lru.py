"""The one bounded least-recently-used store every cache composes: the
verdict store, the plan cache and the executor's artifact cache hold an
:class:`LRU` and add only what is theirs (key derivation, compilation,
the plan cache's write-clock sweep)."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class CacheInfo:
    """A point-in-time snapshot of a cache's counters (lru_cache-style);
    ``invalidations`` stays 0 for caches nothing invalidates."""

    hits: int
    misses: int
    size: int
    max_size: Optional[int]
    evictions: int
    invalidations: int = 0


class LRU:
    """Key → value store of at most ``max_size`` entries (``None`` =
    unbounded).  Every probe refreshes recency; an eviction only ever
    costs a re-computation.  ``None`` marks a miss, so it is not a value."""

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1 or None, got {max_size}")
        self.max_size = max_size
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The value for ``key`` or ``None``, counting the probe."""

        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> List[Tuple[Hashable, Any]]:
        """Store ``value`` as the most recent entry; returns the
        ``(key, value)`` pairs evicted to stay within the bound."""

        self._data[key] = value
        self._data.move_to_end(key)
        evicted = []
        if self.max_size is not None:
            while len(self._data) > self.max_size:
                evicted.append(self._data.popitem(last=False))
                self.evictions += 1
        return evicted

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove ``key``; neither a probe nor an eviction is counted."""

        return self._data.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; the counters survive."""

        self._data.clear()

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            self.hits, self.misses, len(self._data), self.max_size, self.evictions
        )

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

