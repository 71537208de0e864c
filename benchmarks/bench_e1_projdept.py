"""E1 — the running example (sections 1–3, figures 1–3).

Reproduces: chase of Q into the universal plan, backchase into the
minimal plans, discovery of the paper's P1–P4 (see ``README.md`` in this
directory for the exact forms) and the cost-based choice of Algorithm 1.
"""

from __future__ import annotations

from repro.api.context import OptimizeContext
from repro.optimizer.optimizer import Optimizer
from repro.query.evaluator import evaluate
from repro.query.paths import NFLookup


def test_e1_end_to_end_optimization(benchmark, projdept_small):
    wl = projdept_small
    # Full enumeration: the P1-P4 inventory below is a completeness check.
    opt = Optimizer(
        OptimizeContext(
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
            strategy="full",
        )
    )
    result = benchmark.pedantic(opt.optimize, args=(wl.query,), rounds=1, iterations=1)

    # --- the paper's plan inventory ---------------------------------------
    plans = result.plans
    # P2: scan Proj directly
    assert any(
        p.query.schema_names() == frozenset({"Proj"}) for p in plans
    ), "P2 missing"
    # P3 (refined): non-failing secondary index lookup
    assert any(
        isinstance(b.source, NFLookup) and "CitiBank" in str(b.source)
        for p in plans
        for b in p.query.bindings
    ), "P3 missing"
    # P4: single scan of the join-index view JI with primary-index probes
    assert any(
        "JI" in p.query.schema_names() and len(p.query.bindings) == 1
        for p in plans
    ), "P4 missing"
    # P1 (index-accelerated form): class dictionary navigation
    assert any(
        "Dept" in p.query.schema_names()
        and any("dom(Dept)" in str(b.source) for b in p.query.bindings)
        for p in plans
    ), "P1 missing"
    # cost-based winner under selective CitiBank statistics: P3
    assert result.best.refined and "SI{" in str(result.best.query)


def test_e1_universal_plan_chase(benchmark, projdept_small):
    from repro.chase.chase import chase

    wl = projdept_small
    result = benchmark(lambda: chase(wl.query, wl.constraints))
    names = result.query.schema_names()
    assert {"depts", "Proj", "Dept", "I", "SI", "JI"} <= names


def test_e1_all_plans_agree(benchmark, projdept_optimized):
    wl, result = projdept_optimized
    reference = evaluate(wl.query, wl.instance)

    def check_all():
        for plan in result.plans:
            assert evaluate(plan.query, wl.instance) == reference
        return len(result.plans)

    count = benchmark.pedantic(check_all, rounds=1, iterations=1)
    assert count >= 5
