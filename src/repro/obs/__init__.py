"""repro.obs — tracing, metrics and EXPLAIN ANALYZE for the whole stack.

One observability layer across optimize → cache → execute, *reading*
the path that executes (no operator or engine is re-implemented here):

- :mod:`repro.obs.trace` — span/event :class:`Tracer` (zero-cost no-op
  when disabled), threaded through
  :attr:`~repro.api.context.OptimizeContext.tracer` into every layer;
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` unifying the four
  legacy counter families (containment ``cache_info()``,
  ``BackchaseStats``, semcache ``CacheStats``, ``plan_cache_info()``)
  behind their existing APIs, plus per-phase latency histograms;
- :mod:`repro.obs.slowlog` — ring-buffer :class:`SlowQueryLog`;
- :mod:`repro.obs.report` — per-request :class:`QueryReport` timelines;
- :mod:`repro.obs.analyze` — :func:`analyze_query`, EXPLAIN ANALYZE
  (``explain(q, analyze=True)``): the engine's run, a clock per operator;
- :mod:`repro.obs.feedback` — always-on cardinality feedback: the
  engine's per-level actuals vs the cost model's estimates, Q-error
  accounting, the regression verdict that flags a cached plan whose
  Q-error or latency drifted, corrected statistics and the replan they
  drive (``ObsConfig(feedback=True)``).

:class:`Observability` bundles one tracer + registry + slow log (plus,
with feedback enabled, one feedback store reporting to both) per
:class:`~repro.api.database.Database`, built from an :class:`ObsConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.analyze import AnalyzeResult, OpStats, analyze_query
from repro.obs.feedback import (
    DEFAULT_QERROR_THRESHOLD,
    FeedbackObservation,
    FeedbackStore,
    LevelFeedback,
    qerror,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import QueryReport
from repro.obs.slowlog import (
    DEFAULT_THRESHOLD_SECONDS,
    SlowQuery,
    SlowQueryLog,
)
from repro.obs.trace import DEFAULT_MAX_SPANS, NOOP_TRACER, Span, Tracer

__all__ = [
    "AnalyzeResult",
    "Counter",
    "FeedbackObservation",
    "FeedbackStore",
    "Gauge",
    "Histogram",
    "LevelFeedback",
    "MetricsRegistry",
    "NOOP_TRACER",
    "ObsConfig",
    "Observability",
    "OpStats",
    "QueryReport",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "analyze_query",
    "qerror",
]


@dataclass(frozen=True)
class ObsConfig:
    """How much observability a :class:`~repro.api.database.Database`
    carries.

    The default (``tracing=False``) records no spans — only the metrics
    registry (whose legacy sources are free) and the slow-query log are
    live.  ``tracing=True`` turns on span recording and thereby the
    per-phase latency histograms.  ``feedback=True`` turns on plan-quality
    feedback: per-level actual cardinalities, Q-error histograms, and the
    regressions past ``qerror_threshold`` (with it off, the execution
    path records nothing and compiled artifacts carry no feedback code).
    """

    tracing: bool = False
    max_spans: int = DEFAULT_MAX_SPANS
    slow_query_threshold: float = DEFAULT_THRESHOLD_SECONDS
    feedback: bool = False
    qerror_threshold: float = DEFAULT_QERROR_THRESHOLD


class Observability:
    """One tracer + metrics registry + slow-query log, wired together.

    With ``config.feedback`` a :class:`FeedbackStore` rides along,
    reporting to the same registry and tracer; otherwise ``feedback`` is
    ``None`` and the execution layers skip feedback work entirely.
    """

    def __init__(self, config: ObsConfig = ObsConfig()) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            enabled=config.tracing,
            registry=self.registry,
            max_spans=config.max_spans,
        )
        self.slow_log = SlowQueryLog(
            threshold_seconds=config.slow_query_threshold
        )
        self.feedback: Optional[FeedbackStore] = None
        if config.feedback:
            self.feedback = FeedbackStore(
                qerror_threshold=config.qerror_threshold,
                registry=self.registry,
                tracer=self.tracer,
            )

    def report(self, request_id=None) -> QueryReport:
        """The :class:`QueryReport` timeline for one traced request
        (default: the most recent)."""

        return QueryReport.from_tracer(self.tracer, request_id)

    def __repr__(self) -> str:
        return (
            f"Observability(tracing={self.tracer.enabled}, "
            f"feedback={self.feedback is not None}, "
            f"{len(self.tracer)} spans, {len(self.slow_log)} slow queries)"
        )
