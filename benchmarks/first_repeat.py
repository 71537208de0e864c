"""First and later requests per shape on the two cold workloads.

A database keeps the backchase's verdicts per root shape up to its
constants, so on ``cold_projdept`` and ``cold_mix`` (``benchmarks/perf``)
only a shape's *first* request decides them; a later request with fresh
constants reads them.  This driver serves each workload's request stream
(one set-up, ``--cycles`` cycles over its shapes, the constants
``shape_cycles`` draws from ``--seed``) and prints, per shape, the wall
time of its first request and the median of its later ones, in ms,
scaled to the box's reference speed as ``benchmarks/perf`` scales its
times (``harness.SpeedMeter``).  Beside them, per request, what it
decided and built, read off its plan-cache entry's ``OptimizationResult``
right after it ran: condition (3) / lookup-safety chases /
condition-pruning containments / candidates built (explored less those
replayed from the entry's removal graph) — ``0/0/0/0`` for a plan-cache
hit, ``0/0/0/0`` too for a later request of a shape.  Single runs, no
tracing: run it on two checkouts, alternating, to compare.

    PYTHONPATH=src python benchmarks/first_repeat.py [--seed 1] [--cycles 6]
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))
from harness import SpeedMeter  # noqa: E402
from workloads import ColdMix, ColdProjDept  # noqa: E402

#: a request's shape: its text with every constant written ``?``
CONSTANT = re.compile(r'"[^"]*"|(?<![\w.])-?\d+(?:\.\d+)?')


def decided(db, text: str, misses: int) -> str:
    """The verdicts the request for ``text`` just decided and the
    candidates it built, as ``condition (3)/lookup-safety chases/pruning
    containments/built``: read off its plan-cache entry (a probe that
    hits the entry the request left most recent), or none if the request
    itself hit (``misses`` is the cache's miss count before it)."""

    if db.plan_cache_info().misses == misses:
        return "0/0/0/0"
    result = db.optimize(text)
    pruning = result.containment.misses
    condition3 = sum(result.containment_decisions.values()) - pruning
    stats = result.backchase_stats
    built = stats.candidates_explored - stats.candidates_replayed
    return f"{condition3}/{result.lookup_decisions['chased']}/{pruning}/{built}"


def first_and_repeat(workload, cycles: int):
    """``shape -> [(first ms, verdicts), (later ms, verdicts)...]`` over the
    workload's first ``cycles`` cycles (a shape without constants is sent
    once)."""

    workload.setup()
    spans = []
    requests = (req for block in workload.blocks() for req in block)
    with SpeedMeter() as meter:
        for _, req in zip(range(cycles * len(workload.SHAPES)), requests):
            db = workload.databases[req.target]
            misses = db.plan_cache_info().misses
            start = time.perf_counter()
            workload.serve(req)
            end = time.perf_counter()
            verdicts = decided(db, req.text, misses)
            spans.append((CONSTANT.sub("?", req.text), start, end, verdicts))
    workload.close()
    times = {}
    for shape, start, end, verdicts in spans:
        scaled = 1000 * (end - start) / meter.slowdown(start, end)
        times.setdefault(shape, []).append((scaled, verdicts))
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=6)
    args = parser.parse_args(argv)
    for cls in (ColdProjDept, ColdMix):
        times = first_and_repeat(cls(args.seed), args.cycles)
        print(
            f"{cls.name}: first / median of later requests, ms; what each "
            "request decided and built (condition 3/lookup chases/pruning/"
            "candidates built)"
        )
        for shape, runs in times.items():
            ms = [scaled for scaled, _ in runs]
            later = f"{statistics.median(ms[1:]):8.1f}" if len(ms) > 1 else "       -"
            verdicts = " ".join(v for _, v in runs)
            print(f"  {ms[0]:8.1f} {later}  {verdicts}\n      {shape[:90]}")
        firsts = [runs[0][0] for runs in times.values()]
        laters = [
            statistics.median(scaled for scaled, _ in runs[1:])
            for runs in times.values()
            if len(runs) > 1
        ]
        print(
            f"  median over shapes: first {statistics.median(firsts):.1f}, "
            f"later {statistics.median(laters):.1f}"
        )


if __name__ == "__main__":
    main()
