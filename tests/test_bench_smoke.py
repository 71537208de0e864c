"""Tier-1 smoke runs of the E12 (pruning), E13 (semantic cache), E14
(hybrid rewrites), E15 (prepared queries / plan cache), E16 (physical
design advisor), E17 (parameterized templates), E18 (observability
overhead), E19 (compiled execution) and E20 (plan-quality feedback)
benchmarks (1 small run each).

Keeps the benchmark harnesses honest without inflating suite runtime: the
smallest workloads run once, the acceptance criteria are asserted, and the
measured counters are emitted to ``BENCH_e12.json`` .. ``BENCH_e20.json``
at the repo root (the artifacts ``make bench-smoke`` / CI pick up;
``make bench-report`` tabulates them).

Marked ``bench_smoke`` so they can be selected (``-m bench_smoke``) or
excluded (``-m "not bench_smoke"``) independently of the unit suite.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_OUT = REPO_ROOT / "BENCH_e12.json"
BENCH_E13_OUT = REPO_ROOT / "BENCH_e13.json"
BENCH_E14_OUT = REPO_ROOT / "BENCH_e14.json"
BENCH_E15_OUT = REPO_ROOT / "BENCH_e15.json"
BENCH_E16_OUT = REPO_ROOT / "BENCH_e16.json"
BENCH_E17_OUT = REPO_ROOT / "BENCH_e17.json"
BENCH_E18_OUT = REPO_ROOT / "BENCH_e18.json"
BENCH_E19_OUT = REPO_ROOT / "BENCH_e19.json"
BENCH_E20_OUT = REPO_ROOT / "BENCH_e20.json"


def _load_bench_module(stem: str = "bench_e12_pruning"):
    path = REPO_ROOT / "benchmarks" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_e12_smoke_and_emit_json():
    bench = _load_bench_module()
    workloads = [(2, 1), (1, 2)]
    results = [bench.run_comparison(n, k) for n, k in workloads]

    # (2,1) is large enough for the cost bound to bite: full criteria.
    bench.assert_pruning_wins(results[0])
    # (1,2) at minimum must agree on cost and never do more work.
    for result in results:
        assert result["equal_cost"], result
        assert (
            result["pruned"]["candidates_explored"]
            <= result["full"]["candidates_explored"]
        ), result
        bench.assert_verdicts_decided_once(result)

    BENCH_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e12_pruning",
                "repetitions": 1,
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_OUT.exists()


@pytest.mark.bench_smoke
def test_e13_smoke_and_emit_json():
    bench = _load_bench_module("bench_e13_semcache")

    def measure(which):
        result = bench.run_repeated_workload(which, repetitions=3, scale="smoke")
        if result["warm_seconds"] >= result["cold_seconds"]:
            # Wall-clock comparisons can lose a scheduler race on loaded
            # CI machines; one re-measure keeps the speedup gate without
            # making tier-1 flaky (the margin is ~3-7x in practice).
            result = bench.run_repeated_workload(which, repetitions=3, scale="smoke")
        return result

    results = [measure("e5_rs"), measure("e1_projdept")]

    for result in results:
        bench.assert_cache_effective(result)
        bench.assert_warm_wins(result)
    # the E5 mix must exercise the rewrite tier, not just exact repeats
    assert results[0]["cache"]["rewrite_hits"] > 0, results[0]

    BENCH_E13_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e13_semcache",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E13_OUT.exists()


@pytest.mark.bench_smoke
def test_e14_smoke_and_emit_json():
    bench = _load_bench_module("bench_e14_hybrid")

    def measure(which, runs=5):
        # One steady window is ~90 us of cache hits: a single scheduler
        # quantum decides any one hybrid/view-only ratio (0.5x to 40x seen
        # on an idle box).  The latency gates therefore read the *median*
        # window of each arm over ``runs`` independent comparisons; the
        # structural gates are checked on every run.
        measured = [
            bench.run_hybrid_comparison(which, repetitions=3, scale="smoke")
            for _ in range(runs)
        ]
        for result in measured:
            bench.assert_hybrid_effective(result)
        result = dict(measured[0], runs=runs)
        for arm in ("cold", "view_only", "hybrid"):
            result[f"{arm}_steady_seconds"] = statistics.median(
                m[f"{arm}_steady_seconds"] for m in measured
            )
        result["steady_speedup_vs_cold"] = (
            result["cold_steady_seconds"] / result["hybrid_steady_seconds"]
        )
        return result

    results = [measure("e5_rs"), measure("e1_projdept")]

    for result in results:
        bench.assert_hybrid_effective(result)
        bench.assert_hybrid_wins(result)
        # the headline acceptance criterion: >= 30% of the view-only
        # arm's cold executions answered from the cache in hybrid mode
        assert result["rescue_rate"] >= 0.30, result

    BENCH_E14_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e14_hybrid",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E14_OUT.exists()


@pytest.mark.bench_smoke
def test_e15_smoke_and_emit_json():
    bench = _load_bench_module("bench_e15_prepared")

    def measure(which):
        # Two repetitions — one warm-up, one steady pass — are the minimum
        # the steady-vs-steady gate needs; the re-optimisation arm pays a
        # ProjDept cold optimisation per request, so each further
        # repetition costs tier-1 tens of seconds and proves nothing more.
        result = bench.run_prepared_comparison(which, repetitions=2, scale="smoke")
        if (
            result["prepared_steady_seconds"]
            >= result["reoptimized_steady_seconds"]
        ):
            # Wall-clock comparisons can lose a scheduler race on loaded
            # CI machines; one re-measure keeps the latency gate without
            # making tier-1 flaky (steady-state margins are >50x in
            # practice: plan execution vs full chase & backchase).
            result = bench.run_prepared_comparison(
                which, repetitions=2, scale="smoke"
            )
        return result

    results = [measure("e5_rs"), measure("e1_projdept")]

    for result in results:
        bench.assert_prepared_effective(result)
        bench.assert_prepared_wins(result)

    BENCH_E15_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e15_prepared",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E15_OUT.exists()


@pytest.mark.bench_smoke
def test_e16_smoke_and_emit_json():
    bench = _load_bench_module("bench_e16_advisor")

    def measure(which, repetitions=9):
        # Eight steady passes, not two: at two the ProjDept arm compares
        # ~7 ms windows whose advised/empty ratio is 0.9x-1.9x run to run
        # (steady passes are plan-cache hits; the extra six cost < 0.1 s).
        result = bench.run_advisor_comparison(
            which, repetitions=repetitions, scale="smoke"
        )
        # The structural gates (identical answers, in-budget design,
        # estimated win) are deterministic; only the measured-latency gate
        # can lose a scheduler race on loaded CI machines, so re-measure
        # once before failing.
        if result["advised_steady_seconds"] >= result["empty_steady_seconds"]:
            result = bench.run_advisor_comparison(
                which, repetitions=repetitions, scale="smoke"
            )
        return result

    results = [measure("e5_rs"), measure("e1_projdept")]

    for result in results:
        bench.assert_advisor_effective(result)
        bench.assert_advisor_wins(result)

    BENCH_E16_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e16_advisor",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E16_OUT.exists()


@pytest.mark.bench_smoke
def test_e17_smoke_and_emit_json():
    bench = _load_bench_module("bench_e17_templates")

    def measure(which):
        # One warm-up and one steady pass (see E15); three bindings per
        # template is the floor `assert_templates_effective` itself gates.
        result = bench.run_template_comparison(
            which, bindings_per_template=3, repetitions=2, scale="smoke"
        )
        if result["steady_speedup"] < bench.STEADY_SPEEDUP_FLOOR:
            # Wall-clock comparisons can lose a scheduler race on loaded
            # CI machines; one re-measure keeps the >= 10x gate without
            # making tier-1 flaky (margins are >50x in practice: plan
            # execution vs a fresh chase & backchase per binding).
            result = bench.run_template_comparison(
                which, bindings_per_template=3, repetitions=2, scale="smoke"
            )
        return result

    results = [measure("e5_rs"), measure("e1_projdept")]

    for result in results:
        bench.assert_templates_effective(result)
        bench.assert_templates_win(result)

    BENCH_E17_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e17_templates",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E17_OUT.exists()


@pytest.mark.bench_smoke
def test_e18_smoke_and_emit_json():
    bench = _load_bench_module("bench_e18_obs")

    def measure(which):
        result = bench.run_observability_comparison(
            which, repetitions=4, scale="smoke"
        )
        try:
            bench.assert_observability_cheap(result)
        except AssertionError:
            # The overhead gate is a wall-clock ratio; one scheduler
            # hiccup on a loaded CI machine can lose it.  Re-measure once
            # (the structural criteria below are deterministic and are
            # never retried).
            result = bench.run_observability_comparison(
                which, repetitions=4, scale="smoke"
            )
        return result

    results = [measure("rs"), measure("projdept")]

    for result in results:
        bench.assert_observability_sound(result)
        bench.assert_observability_cheap(result)

    BENCH_E18_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e18_obs",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E18_OUT.exists()


@pytest.mark.bench_smoke
def test_e19_smoke_and_emit_json():
    bench = _load_bench_module("bench_e19_compiled")

    def measure(which):
        result = bench.run_compiled_comparison(
            which, repetitions=4, scale="smoke"
        )
        if result["steady_speedup"] < bench.SMOKE_SPEEDUP_FLOOR:
            # Wall-clock comparisons can lose a scheduler race on loaded
            # CI machines; one re-measure keeps the speedup gate without
            # making tier-1 flaky (margins are >50x in practice: a fused
            # loop over column arrays vs per-tuple env-dict streaming).
            result = bench.run_compiled_comparison(
                which, repetitions=4, scale="smoke"
            )
        return result

    results = [measure("e8_rs"), measure("e9_projdept")]

    for result in results:
        # answers identical across compiled/interpreted/reference, no
        # silent fallback — deterministic, never retried
        bench.assert_compiled_effective(result)
        bench.assert_compiled_win(result, floor=bench.SMOKE_SPEEDUP_FLOOR)

    BENCH_E19_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e19_compiled",
                "tier": "smoke",
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E19_OUT.exists()


@pytest.mark.bench_smoke
def test_e20_smoke_and_emit_json():
    bench = _load_bench_module("bench_e20_feedback")

    def measure():
        result = bench.run_feedback_comparison(
            "drift", repetitions=5, scale="smoke"
        )
        try:
            bench.assert_feedback_cheap(result)
            bench.assert_feedback_recovers(result)
        except AssertionError:
            # Both gates are wall-clock ratios; one scheduler hiccup on a
            # loaded CI machine can lose either.  Re-measure once (the
            # structural criteria below are deterministic and never
            # retried; margins are ~15-25x on the recovery gate).
            result = bench.run_feedback_comparison(
                "drift", repetitions=5, scale="smoke"
            )
        return result

    result = measure()

    bench.assert_feedback_sound(result)
    bench.assert_feedback_cheap(result)
    bench.assert_feedback_recovers(result)

    BENCH_E20_OUT.write_text(
        json.dumps(
            {
                "benchmark": "e20_feedback",
                "tier": "smoke",
                "workloads": [result],
            },
            indent=2,
        )
        + "\n"
    )
    assert BENCH_E20_OUT.exists()
