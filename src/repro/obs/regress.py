"""Ring-buffer plan-regression log.

A sibling of :mod:`repro.obs.slowlog` for plan *quality* rather than raw
latency: each feedback observation (see :mod:`repro.obs.feedback`) is
screened against two drift thresholds — the worst per-level Q-error of
the request, and the observed execution time relative to the best time
the same cached plan has delivered before.  Requests past either
threshold are remembered in a bounded deque and flagged back to the
producing :class:`~repro.api.plancache.PlanCacheEntry`, where
``CacheConfig.feedback_replan`` can route later requests through a
feedback-corrected re-optimization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["PlanRegression", "PlanRegressionLog"]

DEFAULT_QERROR_THRESHOLD = 16.0
DEFAULT_LATENCY_DRIFT_RATIO = 8.0
DEFAULT_REGRESSION_CAPACITY = 64

# Latency drift below this absolute time never flags: sub-millisecond
# plans jitter by large *ratios* without any plan-quality signal.
MIN_DRIFT_SECONDS = 0.001


@dataclass(frozen=True)
class PlanRegression:
    """One request whose plan quality drifted past a threshold."""

    query: str
    kind: str  # "qerror" | "latency"
    value: float  # the measurement that tripped the threshold
    threshold: float
    max_qerror: float
    elapsed_seconds: float
    baseline_seconds: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        record = {
            "query": self.query,
            "kind": self.kind,
            "value": round(self.value, 3),
            "threshold": round(self.threshold, 3),
            "max_qerror": round(self.max_qerror, 3),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "baseline_seconds": (
                round(self.baseline_seconds, 6)
                if self.baseline_seconds is not None
                else None
            ),
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class PlanRegressionLog:
    """Bounded log of requests whose plan drifted past a threshold."""

    def __init__(
        self,
        qerror_threshold: float = DEFAULT_QERROR_THRESHOLD,
        latency_ratio: float = DEFAULT_LATENCY_DRIFT_RATIO,
        capacity: int = DEFAULT_REGRESSION_CAPACITY,
    ) -> None:
        if qerror_threshold < 1:
            raise ValueError("qerror_threshold must be >= 1")
        if latency_ratio < 1:
            raise ValueError("latency_ratio must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.qerror_threshold = qerror_threshold
        self.latency_ratio = latency_ratio
        self.capacity = capacity
        self.entries: Deque[PlanRegression] = deque(maxlen=capacity)
        self.observed = 0
        self.flagged = 0

    def observe(
        self,
        query: Any,
        max_qerror: float,
        elapsed_seconds: float,
        baseline_seconds: Optional[float] = None,
        **attrs: Any,
    ) -> Optional[PlanRegression]:
        """Screen one observation; returns the regression if it flagged.
        ``query`` (the query object or its text) is rendered only then —
        the unflagged majority never pays for formatting.

        Q-error is the primary signal (it is latency-noise free); the
        latency ratio against the plan's own best observed time is the
        fallback for estimation errors the level estimates cannot see.
        """

        self.observed += 1
        if max_qerror >= self.qerror_threshold:
            kind, value, threshold = "qerror", max_qerror, self.qerror_threshold
        elif (
            baseline_seconds is not None
            and baseline_seconds > 0
            and elapsed_seconds >= MIN_DRIFT_SECONDS
            and elapsed_seconds >= baseline_seconds * self.latency_ratio
        ):
            kind = "latency"
            value = elapsed_seconds / baseline_seconds
            threshold = self.latency_ratio
        else:
            return None
        self.flagged += 1
        regression = PlanRegression(
            query=str(query),
            kind=kind,
            value=value,
            threshold=threshold,
            max_qerror=max_qerror,
            elapsed_seconds=elapsed_seconds,
            baseline_seconds=baseline_seconds,
            attrs=dict(attrs),
        )
        self.entries.append(regression)
        return regression

    def clear(self) -> None:
        self.entries.clear()

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Entries oldest-first, JSON-ready (the ``Database.metrics()``
        embedding)."""

        return [entry.as_dict() for entry in self.entries]

    def render(self) -> str:
        lines = [
            f"plan regressions (q-error >= {self.qerror_threshold:g} or "
            f"latency >= {self.latency_ratio:g}x baseline, "
            f"{self.flagged}/{self.observed} flagged, "
            f"showing last {len(self.entries)})"
        ]
        if not self.entries:
            lines.append("  (none)")
        for entry in self.entries:
            lines.append(
                f"  {entry.kind}={entry.value:9.2f} "
                f"(threshold {entry.threshold:g}) "
                f"{entry.elapsed_seconds * 1000:8.1f}ms  "
                f"{entry.query}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"PlanRegressionLog(qerror>={self.qerror_threshold}, "
            f"latency>={self.latency_ratio}x, "
            f"{len(self.entries)}/{self.capacity} entries)"
        )
