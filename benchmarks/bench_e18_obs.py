"""E18 — observability overhead: the traced request path vs the silent one.

PR 7 threads a :class:`~repro.obs.trace.Tracer` through every layer of the
request path (façade → plan cache → chase → backchase → cost → executor).
The design promise is that *disabled* tracing is free — the default tracer
is a shared no-op whose ``span()`` allocates nothing — and *enabled*
tracing costs little enough to leave on for diagnosis.  This benchmark
measures both sides:

* **silent** — the default ``ObsConfig`` (tracing off): the same request
  mix every other benchmark runs, priced with the observability layer
  merely present;
* **traced** — ``ObsConfig(tracing=True)``: spans recorded for every
  request, per-phase latency histograms populated, the JSONL export
  exercised once at the end.

Both arms serve the same mix (one cold optimize + execute, then warm
plan-cache hits); answers must agree request-for-request.  Acceptance
(:func:`assert_observability_sound` / :func:`assert_observability_cheap`):
identical answers, the silent arm records **zero** spans, the traced arm
covers every optimizer phase (chase / backchase / cost / exec) in its
latency histograms, and the traced wall clock stays within
:data:`OVERHEAD_CEILING` of the silent one.

The result embeds the traced arm's full ``Database.metrics()`` snapshot
(per-phase latency histograms included).

``run_observability_comparison`` is importable — the tier-1 smoke test
(``tests/test_bench_smoke.py``) runs the smoke scale once.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

from repro.api import Database
from repro.obs import ObsConfig

#: traced wall clock must stay within this factor of the silent arm
#: (generous: the smoke mix is plan-cache-hit dominated, where a span is
#: a few dict writes against a full plan execution)
OVERHEAD_CEILING = 1.30

#: the optimizer phases the traced arm must cover in its histograms
REQUIRED_PHASES = ("chase", "backchase", "cost", "exec")


def build_database(which: str, scale: str, tracing: bool) -> Database:
    """One E18 arm's database: a built-in workload at smoke/full scale
    with observability configured silent or traced."""

    obs = ObsConfig(tracing=tracing)
    if which == "rs":
        n_r, n_s, b_values = dict(
            smoke=(300, 300, 60), full=(1500, 1500, 200)
        )[scale]
        return Database.from_workload(
            "rs", n_r=n_r, n_s=n_s, b_values=b_values, seed=5, obs=obs
        )
    if which == "projdept":
        n_depts, projs_per_dept = dict(smoke=(25, 15), full=(80, 40))[scale]
        return Database.from_workload(
            "projdept",
            n_depts=n_depts,
            projs_per_dept=projs_per_dept,
            seed=9,
            obs=obs,
        )
    raise ValueError(f"unknown E18 workload {which!r}")


def _run_mix(db: Database, repetitions: int) -> Tuple[List, float]:
    """The request mix: the canonical query served ``repetitions`` times
    (first request cold — chase & backchase — the rest plan-cache hits)."""

    query = db.workload.query
    # Both arms start from the same collector state: inside a large test
    # process a full collection that falls due in one arm's few hundred
    # milliseconds costs more than everything the tracer does.
    gc.collect()
    start = time.perf_counter()
    answers = [db.execute(query) for _ in range(repetitions)]
    return answers, time.perf_counter() - start


def _phase_totals(metrics: Dict) -> Dict[str, float]:
    """Per-phase summed latency out of the snapshot's histograms."""

    totals: Dict[str, float] = {}
    for name, hist in metrics.get("histograms", {}).items():
        if name.startswith("latency.phase."):
            totals[name[len("latency.phase."):]] = hist["total_seconds"]
    return totals


def run_observability_comparison(
    which: str, repetitions: int = 6, scale: str = "smoke"
) -> Dict:
    """One E18 workload: the same mix silent vs traced."""

    db_off = build_database(which, scale, tracing=False)
    silent_answers, silent_seconds = _run_mix(db_off, repetitions)
    spans_silent = len(db_off.obs.tracer)
    db_off.close()

    db_on = build_database(which, scale, tracing=True)
    traced_answers, traced_seconds = _run_mix(db_on, repetitions)
    spans_traced = len(db_on.obs.tracer)
    jsonl_lines = len(db_on.obs.tracer.to_jsonl().splitlines())
    metrics = db_on.metrics()
    db_on.close()

    answers_equal = all(
        a.results == b.results
        for a, b in zip(silent_answers, traced_answers)
    )
    return {
        "workload": which,
        "scale": scale,
        "repetitions": repetitions,
        "silent_seconds": silent_seconds,
        "traced_seconds": traced_seconds,
        "overhead_ratio": (
            traced_seconds / silent_seconds
            if silent_seconds
            else float("inf")
        ),
        "answers_equal": answers_equal,
        "spans_silent": spans_silent,
        "spans_traced": spans_traced,
        "jsonl_lines": jsonl_lines,
        "phase_totals_seconds": _phase_totals(metrics),
        "metrics": metrics,
    }


def assert_observability_sound(result: Dict) -> None:
    """The deterministic E18 criteria: identical answers, a provably
    silent silent arm, and full phase coverage in the traced one."""

    assert result["answers_equal"], result
    assert result["spans_silent"] == 0, result
    assert result["spans_traced"] > 0, result
    assert result["jsonl_lines"] == result["spans_traced"], result
    for phase in REQUIRED_PHASES:
        assert phase in result["phase_totals_seconds"], (
            phase, result["phase_totals_seconds"],
        )
    counters = result["metrics"]["counters"]
    assert counters.get("backchase.candidates_explored", 0) > 0, counters


def assert_observability_cheap(result: Dict) -> None:
    """The wall-clock gate, separated so smoke runs can re-measure it
    without re-litigating the structural criteria."""

    assert result["overhead_ratio"] <= OVERHEAD_CEILING, (
        f"traced/silent = {result['overhead_ratio']:.3f} "
        f"(ceiling {OVERHEAD_CEILING})"
    )


def test_e18_rs_tracing_cheap(benchmark):
    result = benchmark.pedantic(
        run_observability_comparison, args=("rs",), kwargs=dict(scale="full"),
        rounds=1, iterations=1,
    )
    assert_observability_sound(result)
    assert_observability_cheap(result)


def test_e18_projdept_tracing_cheap(benchmark):
    result = benchmark.pedantic(
        run_observability_comparison,
        args=("projdept",),
        kwargs=dict(scale="full"),
        rounds=1, iterations=1,
    )
    assert_observability_sound(result)
    assert_observability_cheap(result)


def main() -> int:
    for which in ("rs", "projdept"):
        result = run_observability_comparison(
            which, repetitions=20, scale="full"
        )
        assert_observability_sound(result)
        phases = ", ".join(
            f"{phase}={seconds:.3f}s"
            for phase, seconds in sorted(
                result["phase_totals_seconds"].items()
            )
        )
        print(
            f"{which}: silent {result['silent_seconds']:.3f}s, traced "
            f"{result['traced_seconds']:.3f}s "
            f"(x{result['overhead_ratio']:.3f}), "
            f"{result['spans_traced']} spans; {phases}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
