"""One metrics registry over every counter family in the stack.

Before this module the stack had four ad-hoc counter families — the
containment verdicts (``OptimizationResult.containment``),
the backchase's :class:`~repro.backchase.backchase.BackchaseStats`, the
semantic cache's :class:`~repro.semcache.stats.CacheStats` and the plan
cache's :meth:`~repro.api.database.Database.plan_cache_info` — each with
its own shape and no single place to read them.  The
:class:`MetricsRegistry` unifies them **without changing their APIs or
semantics**: the legacy objects stay the source of truth and keep
mutating exactly as before; the registry reads them through registered
*sources* (callables returning flat dicts) at snapshot time.  That makes
the parity guarantee trivial — a registry snapshot is bit-identical to
the legacy values because it *is* the legacy values.

On top of the sources, the registry owns first-class instruments:

- :class:`Counter` — monotone (``inc`` rejects negative deltas), fed by
  :meth:`Tracer.add_counters <repro.obs.trace.Tracer.add_counters>` with
  per-call deltas of the legacy families;
- :class:`Gauge` — last-write-wins point-in-time values;
- :class:`Histogram` — fixed log-spaced latency buckets with count / sum /
  min / max, one per traced span name (``latency.phase.chase``, ...).

:meth:`snapshot` returns one JSON-ready dict (``Database.metrics()``,
``python -m repro metrics``); :meth:`render` prints it for humans (REPL
``\\metrics`` / ``.stats``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Histogram bucket upper bounds, seconds.  Log-spaced from 100µs to 10s —
#: wide enough for a full chase & backchase, fine enough for plan-cache
#: hits; the overflow bucket catches everything slower.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00032, 0.001, 0.0032, 0.01, 0.032, 0.1, 0.32, 1.0, 3.2, 10.0
)


class Counter:
    """A monotone counter.  ``inc`` with a negative delta raises — the
    registry must never make a legacy-parity counter go backwards."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(
                f"counter {self.name!r} is monotone; got negative delta {delta}"
            )
        self.value += delta

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value; ``set`` overwrites."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket latency histogram (seconds).

    ``buckets[i]`` counts observations ``<= bounds[i]``; the final slot is
    the overflow bucket.  Tracks count / sum / min / max so the snapshot
    can report mean and extremes without storing samples.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate: the smallest bucket
        upper bound covering a ``q`` fraction of observations (the exact
        maximum for the overflow bucket).  ``None`` when empty."""

        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for bound, n in zip(self.bounds, self.buckets):
            seen += n
            if seen >= target:
                return bound
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_seconds": round(self.total, 6),
            "mean_seconds": round(self.mean, 6),
            "min_seconds": round(self.min, 6) if self.min is not None else None,
            "max_seconds": round(self.max, 6) if self.max is not None else None,
            "buckets": {
                **{
                    f"le_{bound:g}": n
                    for bound, n in zip(self.bounds, self.buckets)
                    if n
                },
                **({"overflow": self.buckets[-1]} if self.buckets[-1] else {}),
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6f}s)"


class MetricsRegistry:
    """Counters, gauges, histograms and pull-based legacy sources.

    Instruments are created on first use (``registry.counter(name)``), so
    instrumented code never has to pre-declare.  Legacy counter families
    register a *source* — a zero-argument callable returning a flat dict —
    and are re-read live at every :meth:`snapshot`, which is what keeps
    them bit-identical to their own APIs.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], Optional[Mapping[str, Any]]]] = {}

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        """Create-on-use, like the other instruments.  ``bounds`` only
        applies at creation (latency buckets fit seconds; dimensionless
        families like Q-error pass their own geometric buckets)."""

        histogram = self.histograms.get(name)
        if histogram is None:
            if bounds is not None:
                histogram = self.histograms[name] = Histogram(name, bounds)
            else:
                histogram = self.histograms[name] = Histogram(name)
        return histogram

    # -- feeds -----------------------------------------------------------------

    def observe_span(self, span_name: str, seconds: float) -> None:
        """A completed span's duration → the ``latency.<name>`` histogram
        (how the per-phase latency histograms are populated)."""

        self.histogram(f"latency.{span_name}").observe(seconds)

    def add_counters(self, group: str, values: Mapping[str, Any]) -> None:
        """Accumulate a flat dict of non-negative integer deltas into
        ``<group>.<key>`` counters; non-integer values are skipped (a
        family's derived floats, e.g. ``benefit_accrued``, stay with
        their source)."""

        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self.counter(f"{group}.{key}").inc(value)

    def register_source(
        self, name: str, fn: Callable[[], Optional[Mapping[str, Any]]]
    ) -> None:
        """Register (or replace) a live legacy counter family.  ``fn`` is
        called at snapshot time; returning ``None`` omits the family."""

        self._sources[name] = fn

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict of everything the registry can see."""

        sources: Dict[str, Any] = {}
        for name, fn in self._sources.items():
            try:
                values = fn()
            except Exception as exc:  # repro: ignore[INV-EXCEPT]
                # a broken pull source must not kill the snapshot
                values = {"error": f"{type(exc).__name__}: {exc}"}
            if values is None:
                continue
            sources[name] = dict(values)
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.as_dict() for name, h in sorted(self.histograms.items())
            },
            "sources": sources,
        }

    def render(self) -> str:
        """The snapshot as an indented human-readable block (REPL
        ``\\metrics`` / ``.stats``)."""

        snap = self.snapshot()
        lines: List[str] = ["metrics"]
        if snap["sources"]:
            lines.append("  sources (live legacy counter families)")
            for name, values in sorted(snap["sources"].items()):
                rendered = ", ".join(f"{k}={v}" for k, v in values.items())
                lines.append(f"    {name}: {rendered}")
        if snap["counters"]:
            lines.append("  counters")
            for name, value in snap["counters"].items():
                lines.append(f"    {name}: {value}")
        if snap["gauges"]:
            lines.append("  gauges")
            for name, value in snap["gauges"].items():
                lines.append(f"    {name}: {value}")
        if snap["histograms"]:
            lines.append("  histograms")
            for name, hist in snap["histograms"].items():
                mn = hist["min_seconds"]
                mx = hist["max_seconds"]
                if name.startswith("latency."):
                    # Span durations are seconds; everything else (e.g.
                    # the dimensionless Q-error family) renders as-is.
                    lines.append(
                        f"    {name}: n={hist['count']}"
                        f" mean={hist['mean_seconds'] * 1000:.3f}ms"
                        f" min={0.0 if mn is None else mn * 1000:.3f}ms"
                        f" max={0.0 if mx is None else mx * 1000:.3f}ms"
                    )
                else:
                    lines.append(
                        f"    {name}: n={hist['count']}"
                        f" mean={hist['mean_seconds']:.4g}"
                        f" min={0.0 if mn is None else mn:.4g}"
                        f" max={0.0 if mx is None else mx:.4g}"
                    )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self._sources)} sources)"
        )
