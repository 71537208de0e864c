"""Timed arms, percentiles and the metric tables of one benchmark run.

An **arm** is one pass of a workload's request stream through one set-up:
the untraced arm gives every end-to-end metric; the traced arm runs the
same blocks under :mod:`tracing` and gives the per-layer ones, and the
wall-clock ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import zlib
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from tracing import API_SPANS, Patcher, Recorder, SpanTotals
from workloads import Request, Workload

ROOT = Path(__file__).resolve().parents[2]

Metric = Tuple[Optional[float], str]  # (value, unit)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` of the samples at or below it."""

    ordered = sorted(samples)
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def supported(n: int, p: float) -> bool:
    """A percentile is supported when ten samples lie beyond it."""

    return round(n * (1 - p), 6) >= 10


class SpeedMeter:
    """Samples how slow the machine is, all through a run.

    The sandbox's clock speed wanders by ±20 % in stretches of seconds
    (host contention, not this process: CPU time wanders with the wall),
    which is more than most changes this benchmark has to resolve.  So a
    20 Hz interval timer interrupts the main thread with a fixed
    pure-Python loop of ~0.4 ms and keeps how long each took.  The median
    over a window, as a multiple of :data:`REFERENCE_S`, is the machine's
    *slowdown* during that window, and a block's times are divided by it.
    The samples cost every request the same ~0.8 %.
    """

    HZ = 20
    LOOPS = 10_000
    #: what one sample takes on this class of box when the box is quiet —
    #: the reference speed every time metric is scaled to
    REFERENCE_S = 0.00034
    #: fewest samples a slowdown is read from (half a second of them)
    MIN_SAMPLES = 10

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cost: List[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i * i
        self.at.append(start)
        self.cost.append(perf_counter() - start)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1 / self.HZ, 1 / self.HZ)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Median sample cost over ``[start, end]`` ÷ the reference.  A
        window holding fewer than :attr:`MIN_SAMPLES` is widened to its
        nearest ones; without any sample the answer is 1.0."""

        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        short = self.MIN_SAMPLES - (hi - lo)
        if short > 0:
            lo = max(lo - (short + 1) // 2, 0)
            hi = min(lo + self.MIN_SAMPLES, len(self.at))
            lo = max(hi - self.MIN_SAMPLES, 0)
        if hi == lo:
            return 1.0
        return statistics.median(self.cost[lo:hi]) / self.REFERENCE_S


class BlockTiming(NamedTuple):
    requests: int
    wall: float  # seconds, writes included
    slowdown: float  # of the machine while the block ran


class Arm:
    """What one timed pass recorded."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # seconds, as measured
        self.scaled: List[float] = []  # seconds at the reference speed
        self.classes: List[str] = []
        self.rows: List[int] = []
        self.requests: List[Request] = []
        self.timings: List[BlockTiming] = []
        #: requests in the always-timed first ``min_blocks`` blocks
        self.prefix = 0
        self.wall = 0.0
        self.raised = 0
        self.mismatched = 0
        self.checked = 0
        self.delta: Dict[str, float] = {}
        self.peak_rss_mb = 0.0
        #: first answer per distinct request the oracle will check
        self.answers: Dict[Request, frozenset] = {}

    @property
    def blocks(self) -> int:
        return len(self.timings)

    @property
    def failed(self) -> int:
        return self.raised + self.mismatched

    def throughput(self) -> float:
        """Requests per second of the median block, at the reference
        speed: one bad stretch then costs one block, not the run."""

        return statistics.median(
            t.requests * t.slowdown / t.wall for t in self.timings
        )


def run_arm(
    workload: Workload,
    seconds: Optional[float],
    blocks: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    meter: Optional[SpeedMeter] = None,
) -> Arm:
    """Serve whole blocks until ``seconds`` have passed (never fewer than
    ``workload.min_blocks``), or exactly ``blocks`` of them.  Without a
    running ``meter`` times stay as measured."""

    arm = Arm()
    serve = workload.serve
    sample, salt = workload.oracle_sample, str(workload.seed)
    before = workload.counters()
    stream = workload.blocks()
    gc.collect()
    clock = perf_counter
    start = clock()
    for block in stream:
        block_start, served = clock(), len(arm.latencies)
        for req in block:
            if recorder is not None:
                recorder.request = len(arm.latencies)
            t0 = clock()
            try:
                out = serve(req)
            except Exception as exc:  # a failed request is a result, not a crash
                t1 = clock()
                out = None
                arm.raised += 1
                print(f"request raised {type(exc).__name__}: {exc}", flush=True)
            else:
                t1 = clock()
            if req.op == "write":
                continue
            arm.latencies.append(t1 - t0)
            arm.requests.append(req)
            if out is None:
                arm.classes.append(req.cls)
                arm.rows.append(0)
                continue
            # A session answer says which tier served it; that is the
            # request class there.
            arm.classes.append(getattr(out, "source", req.cls))
            arm.rows.append(len(out.results))
            # Keep what the oracle will check (every distinct request, or
            # a seeded one in ``oracle_sample`` of them), and hold repeats
            # to the first answer.
            if sample > 1 and zlib.crc32(
                f"{salt}|{req.epoch}|{req.text}".encode()
            ) % sample:
                continue
            first = arm.answers.setdefault(req, out.results)
            if first is not out.results and first != out.results:
                arm.mismatched += 1
        block_end = clock()
        factor = meter.slowdown(block_start, block_end) if meter else 1.0
        arm.timings.append(
            BlockTiming(len(arm.latencies) - served, block_end - block_start, factor)
        )
        arm.scaled.extend(t / factor for t in arm.latencies[served:])
        if arm.blocks == workload.min_blocks:
            arm.prefix = len(arm.requests)
        if blocks is not None:
            if arm.blocks >= blocks:
                break
        elif arm.blocks >= workload.min_blocks and clock() - start >= seconds:
            break
    arm.wall = clock() - start
    if recorder is not None:
        recorder.request = -1
    arm.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = workload.counters()
    arm.delta = {k: after[k] - before[k] for k in after}
    return arm


def check_answers(workload: Workload, arm: Arm) -> None:
    """Compare the kept answers with the reference evaluator (outside
    every timed region)."""

    for req, answer in arm.answers.items():
        arm.checked += 1
        if workload.expected(req) != answer:
            arm.mismatched += 1
            print(f"wrong answer for {req.text} {dict(req.params)}", flush=True)


def class_p50(arm: Arm, cls: str) -> float:
    """Median latency (ms, at the reference speed) of one request class;
    0.0 when the workload has no such class."""

    picked = [t for t, c in zip(arm.scaled, arm.classes) if c == cls]
    return statistics.median(picked) * 1e3 if picked else 0.0


# --------------------------------------------------------------------------
# end-to-end


def end_to_end(workload: Workload, arm: Arm, setup_s: float) -> Dict[str, Metric]:
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(arm.scaled) * 1e3, "ms"),
        "latency_p90_ms": (percentile(arm.scaled, 0.9) * 1e3, "ms"),
        "throughput_rps": (arm.throughput(), "1/s"),
        "plan_cost_sum": (
            workload.plan_cost_sum(arm.requests[: arm.prefix]), "cost",
        ),
        "peak_rss_mb": (arm.peak_rss_mb, "MB"),
    }


# --------------------------------------------------------------------------
# per layer

#: metric -> (span name, kind, unit); kinds: "self"/"incl" are ms per timed
#: request, "calls" a count over the timed region
SPAN_METRICS: Dict[str, Tuple[str, str, str]] = {
    "query.parse_ms": ("query.parse", "self", "ms"),
    "query.canonical_ms": ("query.canonical", "self", "ms"),
    "query.canonical_calls": ("query.canonical", "calls", "count"),
    "chase.universal_ms": ("chase.universal", "incl", "ms"),
    "chase.containment_ms": ("chase.containment", "incl", "ms"),
    "chase.containment_calls": ("chase.containment", "calls", "count"),
    "chase.engine_chase_calls": ("chase.engine_chase", "calls", "count"),
    "backchase.search_ms": ("backchase.search", "incl", "ms"),
    "backchase.self_ms": ("backchase.search", "self", "ms"),
    "backchase.lookup_safety_ms": ("backchase.lookup_safety", "incl", "ms"),
    "backchase.lookup_safety_calls": ("backchase.lookup_safety", "calls", "count"),
    "optimizer.optimize_ms": ("optimizer.optimize", "incl", "ms"),
    "optimizer.optimize_calls": ("optimizer.optimize", "calls", "count"),
    "optimizer.refine_ms": ("optimizer.refine", "self", "ms"),
    "optimizer.cost_ms": ("optimizer.cost", "self", "ms"),
    "exec.plan_ms": ("exec.plan", "self", "ms"),
    "exec.codegen_ms": ("exec.codegen", "self", "ms"),
    "exec.codegen_calls": ("exec.codegen", "calls", "count"),
    "exec.run_ms": ("exec.run", "self", "ms"),
    "api.overhead_ms": ("api.request", "self", "ms"),
    "semcache.exact_ms": ("semcache.exact", "self", "ms"),
    "semcache.rewrite_ms": ("semcache.rewrite", "incl", "ms"),
    "semcache.register_ms": ("semcache.register", "self", "ms"),
    "semcache.invalidate_ms": ("semcache.invalidate", "self", "ms"),
    "model.mutate_ms": ("model.mutate", "incl", "ms"),
    "model.mutations": ("model.mutate", "calls", "count"),
}

REQUEST_CLASSES = (
    "rs", "rabc", "oo_asr", "light", "heavy", "exact", "rewrite", "hybrid", "cold",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    recorder: Recorder,
    patcher: Patcher,
    traced: Arm,
    untraced: Arm,
    setup_slowdown: float = 1.0,
) -> Dict[str, Metric]:
    spans = recorder.finished()
    # Like every time of the run, span times are scaled by the slowdown
    # of the block (or the set-up) they fell in.
    of_request = [t.slowdown for t in traced.timings for _ in range(t.requests)]
    # A write is recorded under the id of the request after it, so the
    # last block's closing write is one past the end.
    of_request.append(of_request[-1])

    def slowdown(request: int) -> float:
        return of_request[request] if request >= 0 else setup_slowdown

    timed = SpanTotals(spans, slowdown=slowdown)
    whole = SpanTotals(spans, timed_only=False, slowdown=slowdown)
    n = len(traced.latencies)
    counts = recorder.counts
    missing = patcher.missing
    out: Dict[str, Metric] = {}

    def carried(span: str, value: float, unit: str = "count") -> Metric:
        """A metric that is null when ``span`` lost one of its targets."""

        return (None if span in missing else value, unit)

    for metric, (span, kind, unit) in SPAN_METRICS.items():
        if kind == "calls":
            value = float(timed.calls.get(span, 0))
        else:
            table = timed.self_s if kind == "self" else timed.inclusive_s
            value = table.get(span, 0.0) * 1e3 / n
        out[metric] = carried(span, value, unit)

    # The chase proper is one line whether it was entered through
    # ``chase`` or ``chase_with_cc`` (which calls ``chase``).
    chase_self = timed.self_s.get("chase.engine_chase", 0.0) + timed.self_s.get(
        "chase.engine_chase_cc", 0.0
    )
    out["chase.engine_chase_ms"] = (
        None
        if {"chase.engine_chase", "chase.engine_chase_cc"} & set(missing)
        else chase_self * 1e3 / n,
        "ms",
    )
    # Set-up pays these too, so they are totals over the whole traced arm.
    out["api.prepare_ms"] = carried(
        "api.prepare", whole.inclusive_s.get("api.prepare", 0.0) * 1e3, "ms"
    )
    out["optimizer.statistics_ms"] = carried(
        "optimizer.statistics",
        whole.self_s.get("optimizer.statistics", 0.0) * 1e3,
        "ms",
    )
    out["optimizer.statistics_calls"] = carried(
        "optimizer.statistics",
        float(whole.calls.get("optimizer.statistics", 0)),
        "count",
    )

    # Read off the program's own counters (the observers' and ``delta``);
    # one is gone with the callable whose result carried it.
    def count(key: str) -> float:
        return float(counts[key])

    for key in (
        "backchase.candidates_explored",
        "backchase.candidates_pruned",
        "backchase.normal_forms",
        "optimizer.plans_costed",
    ):
        out[key] = carried("optimizer.optimize", count(key))
    hits = count("chase.containment_hits")
    out["chase.containment_hit_ratio"] = carried(
        "optimizer.optimize",
        _ratio(hits, hits + count("chase.containment_misses")),
        "ratio",
    )
    out["backchase.useful_ratio"] = carried(
        "optimizer.optimize",
        _ratio(
            count("backchase.normal_forms"), count("backchase.candidates_explored")
        ),
        "ratio",
    )
    out["exec.tuples"] = carried("exec.run", count("exec.tuples"))
    out["exec.probes"] = carried("exec.run", count("exec.probes"))
    out["exec.work_per_row"] = carried(
        "exec.run",
        _ratio(count("exec.tuples") + count("exec.probes"), count("exec.rows")),
        "1/row",
    )

    delta = traced.delta
    cache_hits = delta.get("plan_cache.hits", 0)
    out["api.plan_cache_hit_ratio"] = (
        _ratio(cache_hits, cache_hits + delta.get("plan_cache.misses", 0)),
        "ratio",
    )
    out["api.plan_cache_evictions"] = (delta.get("plan_cache.evictions", 0.0), "count")
    out["api.plan_cache_invalidations"] = (
        delta.get("plan_cache.invalidations", 0.0), "count",
    )
    out["semcache.exact_hit_ratio"] = (
        _ratio(delta.get("semcache.exact_hits", 0), delta.get("semcache.lookups", 0)),
        "ratio",
    )
    out["semcache.rewrite_useful_ratio"] = (
        _ratio(
            delta.get("semcache.rewrite_hits", 0)
            + delta.get("semcache.hybrid_hits", 0),
            delta.get("semcache.rewrite_attempts", 0),
        ),
        "ratio",
    )
    out["semcache.invalidations"] = (delta.get("semcache.invalidations", 0.0), "count")
    out["semcache.evictions"] = (delta.get("semcache.evictions", 0.0), "count")

    # Request classes come from the untraced arm: they say which class an
    # end-to-end move came from.
    for cls in REQUEST_CLASSES:
        out[f"request.{cls}_p50_ms"] = (class_p50(untraced, cls), "ms")
    p99_ok = supported(len(untraced.scaled), 0.99)
    out["request.p99_ms"] = (
        percentile(untraced.scaled, 0.99) * 1e3 if p99_ok else 0.0, "ms",
    )
    # What the scaling did: the untraced arm's median as measured, and
    # the machine's median slowdown while it ran.
    out["request.raw_p50_ms"] = (statistics.median(untraced.latencies) * 1e3, "ms")
    out["machine.slowdown"] = (
        statistics.median(t.slowdown for t in untraced.timings), "ratio",
    )

    # How far the steady workload's two classes sit where they are meant
    # to: heavy requests in plan execution, light ones in front of it.
    for cls, spans_of, metric in (
        ("heavy", ("exec.run",), "request.heavy_exec_share"),
        (
            "light",
            ("query.parse", "query.canonical", "api.request", "api.plan_cache"),
            "request.light_front_share",
        ),
    ):
        ids = {i for i, c in enumerate(traced.classes) if c == cls}
        wall = sum(traced.scaled[i] for i in ids)
        inside = SpanTotals(spans, requests=ids, slowdown=slowdown).self_s
        out[metric] = (
            None
            if set(spans_of) & set(missing)
            else _ratio(sum(inside.get(s, 0.0) for s in spans_of), wall),
            "ratio",
        )

    # Block by block, so that a slow stretch of the machine during one
    # arm moves one ratio and not the median.
    out["trace.overhead_ratio"] = (
        statistics.median(
            (t.wall / t.slowdown) / (u.wall / u.slowdown)
            for t, u in zip(traced.timings, untraced.timings)
        ),
        "ratio",
    )
    attributed = sum(
        value for span, value in timed.self_s.items() if span not in API_SPANS
    )
    out["trace.unattributed_share"] = (
        1.0 - attributed / sum(traced.scaled), "ratio",
    )
    return out


# --------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def provenance(workload: Workload, arm: Arm) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": workload.seed,
        "requests": len(arm.latencies),
        "blocks": arm.blocks,
        "exec_mode": workload.exec_mode(),
    }
