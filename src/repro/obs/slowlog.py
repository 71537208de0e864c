"""Ring-buffer slow-query log.

Requests slower than a configurable threshold are remembered (query text,
elapsed seconds, the source tier that answered, row count) in a bounded
deque — enough to answer "what was slow in the last N requests" without
unbounded growth.  The :class:`~repro.api.database.Database` façade feeds
it from ``execute``; thresholds are wall-clock seconds, so a cold chase &
backchase typically lands here while plan-cache hits never do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

__all__ = ["SlowQuery", "SlowQueryLog"]

DEFAULT_THRESHOLD_SECONDS = 0.25
DEFAULT_CAPACITY = 128


@dataclass(frozen=True)
class SlowQuery:
    """One over-threshold request."""

    query: str
    elapsed_seconds: float
    source: str = ""
    rows: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "source": self.source,
            "rows": self.rows,
        }


class SlowQueryLog:
    """Bounded log of requests slower than ``threshold_seconds``."""

    def __init__(
        self,
        threshold_seconds: float = DEFAULT_THRESHOLD_SECONDS,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if threshold_seconds < 0:
            raise ValueError("threshold_seconds must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self.entries: Deque[SlowQuery] = deque(maxlen=capacity)
        self.observed = 0
        self.recorded = 0

    def observe(
        self,
        query: Any,
        elapsed_seconds: float,
        source: str = "",
        rows: Optional[int] = None,
    ) -> bool:
        """Record the request if over threshold; returns whether it was.
        ``query`` (the query object or its text) is rendered only then —
        the under-threshold majority never pays for formatting."""

        self.observed += 1
        if elapsed_seconds < self.threshold_seconds:
            return False
        self.recorded += 1
        self.entries.append(
            SlowQuery(str(query), elapsed_seconds, source, rows)
        )
        return True

    def clear(self) -> None:
        self.entries.clear()

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Entries oldest-first, JSON-ready (the ``Database.metrics()``
        embedding)."""

        return [entry.as_dict() for entry in self.entries]

    def render(self) -> str:
        lines = [
            f"slow queries (threshold {self.threshold_seconds * 1000:.0f}ms, "
            f"{self.recorded}/{self.observed} recorded, "
            f"showing last {len(self.entries)})"
        ]
        if not self.entries:
            lines.append("  (none)")
        for entry in self.entries:
            source = f" [{entry.source}]" if entry.source else ""
            rows = f" rows={entry.rows}" if entry.rows is not None else ""
            lines.append(
                f"  {entry.elapsed_seconds * 1000:8.1f}ms{source}{rows}  "
                f"{entry.query}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"SlowQueryLog(threshold={self.threshold_seconds}s, "
            f"{len(self.entries)}/{self.capacity} entries)"
        )
