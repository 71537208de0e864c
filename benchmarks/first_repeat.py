"""First and later requests per shape on the two cold workloads.

A database keeps the backchase's verdicts per root shape up to its
constants, so on ``cold_projdept`` and ``cold_mix`` (``benchmarks/perf``)
only a shape's *first* request decides them; a later request with fresh
constants reads them.  This driver serves each workload's request stream
(one set-up, ``--cycles`` cycles over its shapes, the constants
``shape_cycles`` draws from ``--seed``) and prints, per shape, the wall
time of its first request and the median of its later ones, in ms,
scaled to the box's reference speed as ``benchmarks/perf`` scales its
times (``harness.SpeedMeter``).  Single runs, no tracing: run it on two
checkouts, alternating, to compare.

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


def first_and_repeat(workload, cycles: int):
    """``shape -> [first ms, later ms...]`` over the workload's first
    ``cycles`` cycles (a shape without constants is sent once)."""

    workload.setup()
    spans = []
    requests = (req for block in workload.blocks() for req in block)
    with SpeedMeter() as meter:
        for _, req in zip(range(cycles * len(workload.SHAPES)), requests):
            start = time.perf_counter()
            workload.serve(req)
            spans.append((CONSTANT.sub("?", req.text), start, time.perf_counter()))
    workload.close()
    times = {}
    for shape, start, end in spans:
        scaled = 1000 * (end - start) / meter.slowdown(start, end)
        times.setdefault(shape, []).append(scaled)
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=6)
    args = parser.parse_args(argv)
    for cls in (ColdProjDept, ColdMix):
        times = first_and_repeat(cls(args.seed), args.cycles)
        print(f"{cls.name}: first / median of later requests, ms")
        for shape, ms in times.items():
            later = f"{statistics.median(ms[1:]):8.1f}" if len(ms) > 1 else "       -"
            print(f"  {ms[0]:8.1f} {later}  {shape[:90]}")
        firsts = [ms[0] for ms in times.values()]
        laters = [statistics.median(ms[1:]) for ms in times.values() if len(ms) > 1]
        print(
            f"  median over shapes: first {statistics.median(firsts):.1f}, "
            f"later {statistics.median(laters):.1f}"
        )


if __name__ == "__main__":
    main()
