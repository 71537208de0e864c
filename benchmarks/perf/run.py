"""One repeatable benchmark: four request-class workloads, end to end and by layer.

    python3 benchmarks/perf/run.py                      every workload, both runs
    python3 benchmarks/perf/run.py --workload cold_mix --trace 0 --seed 7
    python3 benchmarks/perf/run.py --selfcheck          two sets, compared

``--trace 0`` is the untraced run: the end-to-end metrics.  ``--trace 1``
times the same blocks twice — under the tracer, then untraced — and
reports the per-layer metrics and the tracing overhead between the two.
Every run checks its answers against the reference evaluator and its
validity gates, prints each metric by name with its unit, and ends with
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).  See
``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="how long one run measures (whole blocks; default: run_seconds "
        "of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced, end-to-end metrics; 1: traced, per-layer metrics "
        "(default: both, one after the other)",
    )
    parser.add_argument(
        "--blocks", type=int,
        help="time exactly this many blocks instead of --seconds "
        "(what makes two runs' counts comparable)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run everything twice and compare the two sets",
    )
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# one run, in this process


def show(metrics: Dict[str, Any], note: str) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {unit}")
    print(f"  ({note})")


def measure_traced(cls, args, meter):
    """Time the same blocks under the tracer, then untraced."""

    import harness
    from tracing import Patcher, Recorder

    recorder = Recorder()
    patcher = Patcher(recorder)
    traced_wl = cls(args.seed)
    with patcher:
        setup_start = perf_counter()
        traced_wl.setup()
        setup_end = perf_counter()
        traced = harness.run_arm(
            traced_wl, args.seconds / 2, args.blocks, recorder, meter
        )
    if cls.shared_state:
        workload = traced_wl
    else:
        traced_wl.close()
        workload = cls(args.seed)
        workload.setup()
    arm = harness.run_arm(workload, None, traced.blocks, meter=meter)
    metrics = harness.per_layer(
        recorder, patcher, traced, arm, meter.slowdown(setup_start, setup_end)
    )
    recorder.write_jsonl(OUT / f"trace_{cls.name}.jsonl")
    # The traced arm must have answered exactly as the untraced.
    traced.mismatched += sum(
        1
        for req, answer in traced.answers.items()
        if arm.answers.get(req) != answer
    )
    workload.validate(
        traced.delta,
        traced.classes,
        traced.rows,
        {name: value for name, (value, _) in metrics.items()},
    )
    return workload, [arm, traced], metrics


def measure_untraced(cls, args, meter, import_s: float):
    """Set up (``setup_repeats`` times, for a median), then time."""

    import harness

    setups = []
    workload = None
    setups_start = perf_counter()
    for _ in range(cls.setup_repeats):
        if workload is not None:
            workload.close()
        workload = cls(args.seed)
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    setups_end = perf_counter()
    arm = harness.run_arm(workload, args.seconds, args.blocks, meter=meter)
    # Read only now: a short set-up is scaled by the samples around it.
    slow = meter.slowdown(setups_start, setups_end)
    metrics = harness.end_to_end(
        workload, arm, (import_s + statistics.median(setups)) / slow
    )
    return workload, [arm], metrics


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print the result line."""

    started = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (timed: set-up starts at this import)
    import harness
    from workloads import WORKLOADS, InvalidRun

    import_s = perf_counter() - started
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    print(f"{cls.name} seed={args.seed} trace={args.trace}: {cls.why}")
    try:
        with harness.SpeedMeter() as meter:
            if args.trace:
                workload, arms, metrics = measure_traced(cls, args, meter)
            else:
                workload, arms, metrics = measure_untraced(
                    cls, args, meter, import_s
                )
        arm = arms[0]
        harness.check_answers(workload, arm)
        workload.validate(arm.delta, arm.classes, arm.rows)
    except InvalidRun as gate:
        print(f"invalid run: {gate}", file=sys.stderr)
        return 2

    n = len(arm.latencies)
    p90_note = "" if harness.supported(n, 0.9) else "; p90 has under 10 samples beyond it"
    show(
        metrics,
        f"n={n} requests in {arm.blocks} blocks, {arm.wall:.2f} s timed, "
        f"{arm.checked} answers checked against the evaluator{p90_note}",
    )
    attempted = sum(len(a.latencies) for a in arms)
    failed = sum(a.failed for a in arms)
    histogram = {c: arm.classes.count(c) for c in sorted(set(arm.classes))}
    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted}); "
          f"classes {histogram}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(
        result,
        workload=cls.name,
        trace=args.trace,
        provenance=harness.provenance(workload, arm),
        classes=histogram,
        counters=arm.delta,
    )
    (OUT / f"{cls.name}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    workload.close()
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# many runs, each in a fresh process


def child(workload: str, trace: int, args: argparse.Namespace,
          blocks: Optional[int] = None) -> Dict[str, Any]:
    """Run one (workload, trace) in a subprocess; returns its record."""

    command = [
        sys.executable, "-B", str(Path(__file__).resolve()),
        "--workload", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    blocks = blocks if blocks is not None else args.blocks
    if blocks is not None:
        command += ["--blocks", str(blocks)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}")
    return json.loads((OUT / f"{workload}.trace{trace}.json").read_text())


def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    traces = [args.trace] if args.trace is not None else [0, 1]
    records = [child(name, trace, args) for name in names for trace in traces]
    (OUT / "results.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


#: counts that must repeat exactly when two runs time the same blocks
DETERMINISTIC = (
    "plan_cost_sum",
    "backchase.candidates_explored",
    "chase.containment_calls",
    "api.plan_cache_hit_ratio",
    "api.plan_cache_evictions",
    "api.plan_cache_invalidations",
    "exec.tuples",
)


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code, the second in reverse order and
    pinned to the blocks the first one timed: every end-to-end pair must
    agree within its BENCHMARK.json bound, every deterministic count
    exactly."""

    first = {
        (name, trace): child(name, trace, args)
        for name in WORKLOAD_NAMES for trace in (0, 1)
    }
    second = {
        (name, trace): child(
            name, trace, args, blocks=first[name, trace]["provenance"]["blocks"]
        )
        for name in reversed(WORKLOAD_NAMES) for trace in (0, 1)
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    problems = []
    print(f"\n{'workload':<18} {'metric':<30} {'first':>12} {'second':>12}  apart")
    for key, a in first.items():
        b = second[key]
        name = key[0]
        if not (a["correct"] and b["correct"]):
            problems.append(f"{name}: failed requests")
        if a["classes"] != b["classes"]:
            problems.append(f"{name}: class histogram {a['classes']} != {b['classes']}")
        for metric, cell in a["metrics"].items():
            va, vb = cell["value"], b["metrics"][metric]["value"]
            if metric in DETERMINISTIC and va != vb:
                problems.append(f"{name}: {metric} {va} != {vb}")
            if metric in bounds:
                bound = bounds[metric]
                apart = abs(vb - va) / va
                print(f"{name:<18} {metric:<30} {va:>12.6g} {vb:>12.6g}  {apart:.1%}")
                if apart > bound:
                    problems.append(
                        f"{name}: {metric} differs by {apart:.1%} (bound {bound:.0%})"
                    )
    (OUT / "selfcheck.json").write_text(
        json.dumps(
            {"first": list(first.values()), "second": list(second.values())},
            indent=1,
        )
        + "\n"
    )
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None or args.trace is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0" or not sys.dont_write_bytecode:
        # A fresh interpreter with hashing pinned and bytecode writing
        # off, so set iteration order, caches and peak RSS are this run's
        # own.  exec replaces this process: nothing is left to wait for.
        rest = sys.argv[1:] if argv is None else argv
        os.execve(
            sys.executable,
            [sys.executable, "-B", str(Path(__file__).resolve()), *rest],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
