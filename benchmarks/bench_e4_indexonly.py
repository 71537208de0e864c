"""E4 — section 4, example 1: index-only access paths for R(A, B, C).

Reproduces: the optimizer discovers index-only plans (no scan of R); they
beat the full scan both in the cost model and in measured execution.  The
paper's literal two-index intersection plan is verified equivalent (it is
subsumed by the minimal single-index plans under the full constraint set;
see the E4 note in this directory's ``README.md``).
"""

from __future__ import annotations

from repro.api.context import OptimizeContext
from repro.exec.engine import execute
from repro.optimizer.cost import estimate_cost
from repro.optimizer.optimizer import Optimizer
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query


def _optimize(rabc_workload):
    # Full enumeration: E4 compares the scan plan against the index plans,
    # and the pruned strategy (correctly) drops the dominated scan.
    opt = Optimizer(
        OptimizeContext(
            constraints=rabc_workload.constraints,
            physical_names=rabc_workload.physical_names,
            statistics=rabc_workload.statistics,
            strategy="full",
        )
    )
    return opt.optimize(rabc_workload.query)


def test_e4_optimization_finds_index_only_plans(benchmark, rabc_workload):
    result = benchmark.pedantic(
        _optimize, args=(rabc_workload,), rounds=1, iterations=1
    )
    no_scan = [p for p in result.plans if "R" not in p.query.schema_names()]
    assert any("SA" in p.query.schema_names() for p in no_scan)
    assert any("SB" in p.query.schema_names() for p in no_scan)
    # the cost model prefers an index-only plan over the scan
    assert result.best.query.schema_names() != frozenset({"R"})


def test_e4_index_plan_execution_beats_scan(benchmark, rabc_workload):
    wl = rabc_workload
    result = _optimize(wl)
    scan = next(
        p for p in result.plans if p.query.schema_names() == frozenset({"R"})
    )
    index = result.best

    index_run = benchmark(lambda: execute(index.query, wl.instance))
    scan_run = execute(scan.query, wl.instance)
    assert index_run.results == scan_run.results
    assert index_run.counters.tuples < scan_run.counters.tuples


def test_e4_paper_intersection_plan(benchmark, rabc_workload):
    """The literal §4.1 plan: scan dom(SA), filter x = 5, probe SB{9}."""

    wl = rabc_workload
    paper_plan = parse_query(
        "select r1.C from dom(SA) x, SA[x] r1, SB{9} r2 "
        "where x = 5 and r1 = r2"
    )
    run = benchmark(lambda: execute(paper_plan, wl.instance))
    assert run.results == evaluate(wl.query, wl.instance)
    # it avoids scanning R entirely
    assert "R" not in paper_plan.schema_names()


def test_e4_cost_model_ranks_index_under_scan(benchmark, rabc_workload):
    wl = rabc_workload
    scan_cost = estimate_cost(wl.query, wl.statistics)
    index_plan = parse_query('select r1.C from SA{5} r1 where r1.B = 9')
    index_cost = benchmark(lambda: estimate_cost(index_plan, wl.statistics))
    assert index_cost < scan_cost
