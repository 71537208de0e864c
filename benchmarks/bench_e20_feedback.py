"""E20 — plan-quality feedback: Q-error detection and feedback replanning
under data drift.

The feedback layer (:mod:`repro.obs.feedback`) promises two things:

* **always-on is affordable** — ``ObsConfig(feedback=True)`` collects
  per-level actual cardinalities on every request and replays the cost
  model's estimates against them, and that accounting must stay within
  :data:`OVERHEAD_CEILING` of the silent path (the E18 discipline);
* **regressions are caught and fixed** — when the catalog goes stale
  (data drift the statistics never saw), the Q-error accounting flags
  the plan in the regression log, and ``CacheConfig.feedback_replan``
  re-optimizes it under feedback-corrected statistics, recovering
  steady-state latency without anyone calling ``refresh_statistics``.

The drift scenario: a three-way join ``R ⋈ S ⋈ T`` with a selective
``r.A = 1`` predicate, priced under an **explicitly pinned** catalog
(auto-refresh off — the point is a catalog that lies).  Initially R is
tiny and ``A`` is unique, so the R-first nested-loop order is right.
Then R drifts: a skewed burst of inserts, every new row with ``A = 1``.
The pinned catalog still says "one row survives R", the optimizer keeps
choosing R-first, and every request now drags hundreds of surviving R
rows through full scans of S.  Feedback sees estimated 1 vs actual
hundreds — Q-error far past the threshold — flags the entry, learns
``card(R)`` and ``ndv(R.A)`` corrections from the per-level actuals,
and the replanning arm re-optimizes into a T-first order that restores
millisecond requests.

Three arms serve the identical warm → drift → steady request sequence:

* **silent** — default ``ObsConfig()``: no feedback, the price floor;
* **feedback** — ``ObsConfig(feedback=True)``, no replanning: pays the
  accounting, flags the regression, keeps the slow plan (the honest
  overhead arm — its post-drift plan matches the silent one);
* **replan** — feedback plus ``CacheConfig(feedback_replan=True)``: the
  flagged entry re-optimizes under corrected statistics into a
  ``#fb:``-tagged variant.

Acceptance (:func:`assert_feedback_sound` / :func:`assert_feedback_cheap`
/ :func:`assert_feedback_recovers`): identical answers request-for-request
across all three arms, zero feedback state in the silent arm, at least
one detected regression, at least one feedback replan, feedback/silent
wall clock within :data:`OVERHEAD_CEILING`, and the replanning arm's
steady-state tail strictly faster than the non-replanning arm's.  The
recovery gate applies to the **interpreted** engine, whose nested-loop
cost is what the cost model prices; the compiled columnar engine turns
equijoins into constant-time probes and is largely join-order
insensitive, so its arm gates detection soundness only (same actuals,
same Q-errors, same flag — the level-rows contract is mode-independent).

``run_feedback_comparison`` is importable — the tier-1 smoke test
(``tests/test_bench_smoke.py``) runs the smoke scale once.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.api import CacheConfig, Database
from repro.model.instance import Instance
from repro.model.values import Row
from repro.obs import ObsConfig
from repro.optimizer.statistics import Statistics
from repro.query.parser import parse_query

#: feedback-on wall clock must stay within this factor of the silent arm
#: (the E18 ceiling: the accounting is one estimate replay + a handful of
#: histogram writes per request, against a full plan execution)
OVERHEAD_CEILING = 1.30

#: steady-state requests excluded from the tail comparison: the first
#: post-drift request runs (and flags) the stale plan, the second pays
#: the feedback re-optimization, the third may re-key the variant once
#: as the good plan's own actuals refine the fingerprint
STEADY_BURN_IN = 3

DRIFT_QUERY = """
select struct(A = r.A, B = s.B, C = t.C)
from R r, S s, T t
where r.A = 1 and r.B = s.B and s.C = t.C and t.D = 1
"""


class DriftScenario:
    """One E20 arm's raw material (each arm builds its own copy — the
    drift mutates the instance in place).  A plain class: the smoke
    harness loads this module outside ``sys.modules``, where dataclass
    field resolution breaks."""

    def __init__(self, instance, statistics, query, drift_rows) -> None:
        self.instance = instance
        self.statistics = statistics
        self.query = query
        self.drift_rows = drift_rows


def build_drift_scenario(scale: str) -> DriftScenario:
    """R ⋈ S ⋈ T with a catalog that is exact *before* the drift.

    Deterministic modular data (coprime moduli keep B and C
    decorrelated): R starts with unique ``A`` so ``r.A = 1`` selects one
    row; the drift burst is all ``A = 1`` with ``B`` values outside S's
    domain, so the answer set stays fixed while the surviving-R level
    explodes.  The pinned catalog is computed here, pre-drift — exact at
    first, a lie afterwards.
    """

    sizes = dict(
        # (initial R, drift burst, B domain, S rows, C domain, T rows, D domain)
        smoke=(60, 250, 40, 240, 37, 100, 50),
        full=(100, 1500, 50, 600, 37, 150, 75),
    )[scale]
    n_r, n_drift, b_values, n_s, c_values, n_t, d_values = sizes
    r_rows = frozenset(Row(A=i, B=i % b_values) for i in range(n_r))
    s_rows = frozenset(
        Row(B=i % b_values, C=i % c_values) for i in range(n_s)
    )
    t_rows = frozenset(
        Row(C=i % c_values, D=i % d_values) for i in range(n_t)
    )
    drift = frozenset(
        Row(A=1, B=b_values + 1 + (i % 5), C=i) for i in range(n_drift)
    )
    instance = Instance({"R": r_rows, "S": s_rows, "T": t_rows})
    return DriftScenario(
        instance=instance,
        statistics=Statistics.from_instance(instance),
        query=parse_query(DRIFT_QUERY),
        drift_rows=drift,
    )


def _run_arm(
    scale: str,
    feedback: bool,
    replan: bool,
    warm: int,
    steady: int,
    exec_mode: str = "interpret",
) -> Dict:
    """One arm's full request sequence: ``warm`` pre-drift requests, the
    drift mutation, ``steady`` post-drift requests (individually timed)."""

    scenario = build_drift_scenario(scale)
    db = Database(
        instance=scenario.instance,
        statistics=scenario.statistics,  # pinned: auto-refresh stays off
        obs=ObsConfig(feedback=feedback),
        cache_config=CacheConfig(feedback_replan=replan),
        exec_mode=exec_mode,
    )
    answers: List[frozenset] = []
    request_seconds: List[float] = []
    start = time.perf_counter()
    for _ in range(warm):
        t0 = time.perf_counter()
        answers.append(db.execute(scenario.query).results)
        request_seconds.append(time.perf_counter() - t0)
    scenario.instance["R"] = scenario.instance["R"] | scenario.drift_rows
    for _ in range(steady):
        t0 = time.perf_counter()
        answers.append(db.execute(scenario.query).results)
        request_seconds.append(time.perf_counter() - t0)
    total_seconds = time.perf_counter() - start
    metrics = db.metrics()
    store = db.obs.feedback
    out = {
        "total_seconds": total_seconds,
        "request_seconds": request_seconds,
        "tail_seconds": sum(request_seconds[warm + STEADY_BURN_IN:]),
        "answers": answers,
        "counters": metrics["counters"],
        "feedback": metrics.get("feedback"),
        "regressions": metrics.get("regressions"),
        "max_qerror": store.max_qerror() if store is not None else None,
        "corrections": dict(store.card_overrides) if store is not None else None,
    }
    db.close()
    return out


def run_feedback_comparison(
    which: str = "drift",
    repetitions: int = 6,
    scale: str = "smoke",
    exec_mode: str = "interpret",
) -> Dict:
    """The three-arm E20 comparison on the drift workload.

    ``repetitions`` is the post-drift steady-state request count (must
    exceed :data:`STEADY_BURN_IN` so a tail remains to compare).
    """

    if which != "drift":
        raise ValueError(f"unknown E20 workload {which!r}")
    if repetitions <= STEADY_BURN_IN:
        raise ValueError(
            f"repetitions must exceed the burn-in ({STEADY_BURN_IN})"
        )
    warm = 2
    silent = _run_arm(
        scale, feedback=False, replan=False,
        warm=warm, steady=repetitions, exec_mode=exec_mode,
    )
    observed = _run_arm(
        scale, feedback=True, replan=False,
        warm=warm, steady=repetitions, exec_mode=exec_mode,
    )
    replanned = _run_arm(
        scale, feedback=True, replan=True,
        warm=warm, steady=repetitions, exec_mode=exec_mode,
    )
    answers_equal = (
        silent["answers"] == observed["answers"] == replanned["answers"]
    )
    tail = repetitions - STEADY_BURN_IN
    result = {
        "workload": which,
        "scale": scale,
        "exec_mode": exec_mode,
        "warm_requests": warm,
        "steady_requests": repetitions,
        "tail_requests": tail,
        "answers_equal": answers_equal,
        "silent_seconds": silent["total_seconds"],
        "feedback_seconds": observed["total_seconds"],
        "overhead_ratio": (
            observed["total_seconds"] / silent["total_seconds"]
            if silent["total_seconds"]
            else float("inf")
        ),
        "noreplan_tail_seconds": observed["tail_seconds"],
        "replan_tail_seconds": replanned["tail_seconds"],
        "recovery_speedup": (
            observed["tail_seconds"] / replanned["tail_seconds"]
            if replanned["tail_seconds"]
            else float("inf")
        ),
        "max_qerror": observed["max_qerror"],
        "card_corrections": observed["corrections"],
        "regressions_detected": len(observed["regressions"] or ()),
        "replan_regressions_detected": len(replanned["regressions"] or ()),
        "replans": replanned["counters"].get("feedback.replans", 0),
        "silent_has_feedback_state": (
            silent["feedback"] is not None
            or any(k.startswith("feedback.") for k in silent["counters"])
        ),
        "feedback_snapshot": observed["feedback"],
    }
    return result


def assert_feedback_sound(result: Dict) -> None:
    """The deterministic E20 criteria: identical answers on every arm, a
    provably silent silent arm, the drift detected, the replan minted."""

    assert result["answers_equal"], "arms disagree on answers"
    assert not result["silent_has_feedback_state"], result["silent_has_feedback_state"]
    assert result["regressions_detected"] >= 1, result["regressions_detected"]
    assert result["replan_regressions_detected"] >= 1, result
    assert result["replans"] >= 1, result["replans"]
    # the drift is not a borderline call: the stale estimate is off by
    # the full burst size
    assert result["max_qerror"] is not None and result["max_qerror"] >= 16.0, (
        result["max_qerror"]
    )
    assert result["card_corrections"], "no statistics corrections learned"


def assert_feedback_cheap(result: Dict) -> None:
    """The wall-clock overhead gate, separated so smoke runs can
    re-measure it without re-litigating the structural criteria."""

    assert result["overhead_ratio"] <= OVERHEAD_CEILING, (
        f"feedback/silent = {result['overhead_ratio']:.3f} "
        f"(ceiling {OVERHEAD_CEILING})"
    )


def assert_feedback_recovers(result: Dict) -> None:
    """The recovery gate: with replanning on, the post-burn-in steady
    state is strictly faster than the flagged-but-kept plan."""

    assert result["replan_tail_seconds"] < result["noreplan_tail_seconds"], (
        f"replan tail {result['replan_tail_seconds']:.4f}s not faster than "
        f"no-replan tail {result['noreplan_tail_seconds']:.4f}s"
    )


def test_e20_drift_feedback_recovers(benchmark):
    result = benchmark.pedantic(
        run_feedback_comparison,
        args=("drift",),
        kwargs=dict(repetitions=8, scale="full"),
        rounds=1, iterations=1,
    )
    assert_feedback_sound(result)
    assert_feedback_cheap(result)
    assert_feedback_recovers(result)


def test_e20_drift_feedback_detects_compiled(benchmark):
    # Detection parity only: the compiled engine's per-level actuals and
    # Q-errors match the interpreted ones, but its probe-based joins make
    # the stale order cheap, so the latency-recovery gate is interpret-only.
    result = benchmark.pedantic(
        run_feedback_comparison,
        args=("drift",),
        kwargs=dict(repetitions=8, scale="full", exec_mode="compiled"),
        rounds=1, iterations=1,
    )
    assert_feedback_sound(result)


def main() -> int:
    for exec_mode in ("interpret", "compiled"):
        result = run_feedback_comparison(
            "drift", repetitions=10, scale="full", exec_mode=exec_mode
        )
        assert_feedback_sound(result)
        if exec_mode == "interpret":
            assert_feedback_cheap(result)
            assert_feedback_recovers(result)
        print(
            f"drift/{exec_mode}: silent {result['silent_seconds']:.3f}s, "
            f"feedback {result['feedback_seconds']:.3f}s "
            f"(x{result['overhead_ratio']:.3f}); max q-error "
            f"{result['max_qerror']:.0f}, "
            f"{result['regressions_detected']} regressions, "
            f"{result['replans']} replan(s); steady tail "
            f"{result['noreplan_tail_seconds']:.3f}s -> "
            f"{result['replan_tail_seconds']:.3f}s "
            f"(x{result['recovery_speedup']:.1f})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
