"""E19 — plan compilation: interpreted operator pipeline vs generated
fused functions over columnar extents.

E9 validated the cost model by *executing* the reference plans P1–P4
through the interpreted iterator pipeline; E8 measured how the optimizer
scales.  This benchmark measures the execution tier added on top of the
same winning plans: :mod:`repro.exec.compile` walks each compiled
operator tree once and emits a single fused Python function — tight
loops over columnar extents, no per-tuple ``dict`` environment copies,
no per-path ``eval_path`` dispatch, constant selections and equi-probes
served from per-attribute column arrays and hash indexes.

Two arms serve the same repetition sequence of plans:

* **interpreted** — ``execute(plan, instance, mode="interpret")``: the
  streaming iterator pipeline, exactly what E9 measured;
* **compiled** — ``execute(plan, instance, mode="compiled")``: the
  generated function, reused across repetitions through the engine's
  artifact LRU (steady state measures execution, not codegen).

Both arms are checked plan-for-plan against the reference evaluator
(``repro.query.evaluator.evaluate``), so the speedup is over provably
identical answers.  Latency splits into warm-up (first serve: codegen +
columnar extent/index builds) and steady state (every later
repetition).  Acceptance (:func:`assert_compiled_effective` /
:func:`assert_compiled_win`): identical answers on every arm, every
compiled run actually ran compiled (a refusal raises instead), and the
aggregate steady-state speedup at full scale is **>= 10x**
(:data:`STEADY_SPEEDUP_FLOOR`; individual plans vary — an already
index-selective plan like E9's P3 does little work either way, while
navigation-heavy plans gain orders of magnitude).

``run_compiled_comparison`` is importable — the tier-1 smoke test
(``tests/test_bench_smoke.py``) runs the smoke scale once with the
relaxed :data:`SMOKE_SPEEDUP_FLOOR`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.exec.engine import execute
from repro.query.ast import PCQuery
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.workloads.projdept import build_projdept
from repro.workloads.relational import build_rs

#: the headline acceptance criterion at full scale: aggregate compiled
#: steady-state throughput must beat the interpreted pipeline by >= 10x
STEADY_SPEEDUP_FLOOR = 10.0

#: the tier-1 smoke gate: small instances leave less per-tuple work to
#: eliminate, so the smoke scale only has to clear a 3x aggregate floor
SMOKE_SPEEDUP_FLOOR = 3.0

#: extra selection shapes for the relational arm: a constant selection
#: and a selective join, the cases columnar extents turn into bulk
#: column probes instead of per-tuple environment evaluation
RS_SELECTIONS = (
    "select struct(A = r.A, B = r.B) from R r where r.B = 7",
    "select struct(A = r.A, C = s.C) from R r, S s "
    "where r.B = s.B and s.C = 3",
)


def build_plans(which: str, scale: str) -> Tuple[object, List[Tuple[str, PCQuery]]]:
    """(instance, [(label, plan)]) for one E19 arm.

    ``e9_projdept`` runs E9's four reference plans P1–P4 at E9's
    selective scale; ``e8_rs`` runs the relational workload's canonical
    join plus the selection shapes at E8-style bulk scale.
    """

    if which == "e9_projdept":
        sizes = dict(smoke=(15, 10), full=(40, 25))[scale]
        n_depts, projs_per_dept = sizes
        wl = build_projdept(
            n_depts=n_depts,
            projs_per_dept=projs_per_dept,
            citibank_share=0.03,
            seed=21,
        )
        plans = [(name, wl.reference_plans[name]) for name in ("P1", "P2", "P3", "P4")]
        return wl.instance, plans
    if which == "e8_rs":
        sizes = dict(smoke=(300, 300, 60), full=(1500, 1500, 200))[scale]
        n_r, n_s, b_values = sizes
        wl = build_rs(n_r=n_r, n_s=n_s, b_values=b_values, seed=5)
        plans = [("canonical", wl.query)]
        plans += [
            (f"selection{i}", parse_query(text))
            for i, text in enumerate(RS_SELECTIONS)
        ]
        return wl.instance, plans
    raise ValueError(f"unknown E19 workload {which!r}")


def _run_arm(instance, plans, mode: str, repetitions: int):
    """Serve every plan ``repetitions`` times in one mode; returns
    (answers of the last repetition, modes seen, warmup s, steady s)."""

    answers = {}
    modes = set()
    start = time.perf_counter()
    for label, plan in plans:
        result = execute(plan, instance, mode=mode)
        answers[label] = result.results
        modes.add(result.mode)
    warmup_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repetitions - 1):
        for label, plan in plans:
            result = execute(plan, instance, mode=mode)
            answers[label] = result.results
            modes.add(result.mode)
    return answers, modes, warmup_seconds, time.perf_counter() - start


def run_compiled_comparison(
    which: str,
    repetitions: int = 4,
    scale: str = "smoke",
) -> Dict:
    """One E19 arm: the same plan repetition sequence, interpreted vs
    compiled, both checked against the reference evaluator."""

    instance, plans = build_plans(which, scale)
    reference = {
        label: evaluate(plan, instance) for label, plan in plans
    }
    interp_answers, interp_modes, interp_warmup, interp_steady = _run_arm(
        instance, plans, "interpret", repetitions
    )
    compiled_answers, compiled_modes, compiled_warmup, compiled_steady = _run_arm(
        instance, plans, "compiled", repetitions
    )

    per_plan_equal = {
        label: (
            interp_answers[label] == compiled_answers[label] == reference[label]
        )
        for label, _ in plans
    }
    nonempty = sum(1 for answer in reference.values() if answer)

    return {
        "workload": which,
        "scale": scale,
        "plans": [label for label, _ in plans],
        "repetitions": repetitions,
        "interpreted_warmup_seconds": interp_warmup,
        "interpreted_steady_seconds": interp_steady,
        "compiled_warmup_seconds": compiled_warmup,
        "compiled_steady_seconds": compiled_steady,
        "steady_speedup": (
            interp_steady / compiled_steady
            if compiled_steady
            else float("inf")
        ),
        "answers_equal": all(per_plan_equal.values()),
        "per_plan_equal": per_plan_equal,
        "nonempty_answers": nonempty,
        "interpreted_modes": sorted(interp_modes),
        "compiled_modes": sorted(compiled_modes),
    }


def assert_compiled_effective(result: Dict) -> None:
    """The deterministic E19 criteria: every plan's compiled answer is
    identical to the interpreted one and to the reference evaluator, and
    every compiled run reports the compiled mode.

    Timing is asserted separately (:func:`assert_compiled_win`) so the
    tier-1 smoke run can gate on structure without racing the wall clock.
    """

    assert result["answers_equal"], result
    # empty answers compare equal trivially; the arms must select rows
    assert result["nonempty_answers"] > 0, result
    assert result["interpreted_modes"] == ["interpret"], result
    # a refused plan raises PlanCompilationError: a compiled run never
    # reports another mode, and this line keeps that promise checked
    assert result["compiled_modes"] == ["compiled"], result


def assert_compiled_win(result: Dict, floor: float = STEADY_SPEEDUP_FLOOR) -> None:
    """The full E19 acceptance criteria for one workload arm."""

    assert_compiled_effective(result)
    assert result["steady_speedup"] >= floor, result


def test_e19_rs_compiled_wins(benchmark):
    result = benchmark.pedantic(
        run_compiled_comparison,
        args=("e8_rs",),
        kwargs=dict(scale="full", repetitions=3),
        rounds=1,
        iterations=1,
    )
    assert_compiled_win(result)


def test_e19_projdept_compiled_wins(benchmark):
    result = benchmark.pedantic(
        run_compiled_comparison,
        args=("e9_projdept",),
        kwargs=dict(scale="full", repetitions=3),
        rounds=1,
        iterations=1,
    )
    assert_compiled_win(result)
