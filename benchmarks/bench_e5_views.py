"""E5 — section 4, example 2: answering R ⋈ S with V = π_A(R ⋈ S) plus
indexes IR and IS.

Reproduces: the intermediate query P (using V, thrown away as non-minimal
exactly as the paper describes for [LMSS95]-style frameworks), the
navigation-join plan ``from V v, IR[v.A] r', IS{r'.B} s'`` (reachable only
because the language expresses index lookups), and its execution advantage
when V is small.
"""

from __future__ import annotations

from repro.api.context import OptimizeContext
from repro.chase.containment import is_equivalent
from repro.exec.engine import execute
from repro.optimizer.optimizer import Optimizer
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.paths import Lookup, NFLookup


def _optimize(wl):
    # Full enumeration: E5 asserts the (dominated) navigation plan and the
    # paper's intermediate P appear in the plan space, not just the winner.
    opt = Optimizer(
        OptimizeContext(
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
            strategy="full",
        )
    )
    return opt.optimize(wl.query)


def test_e5_navigation_plan_found(benchmark, rs_small):
    result = benchmark.pedantic(_optimize, args=(rs_small,), rounds=1, iterations=1)
    nav = [
        p
        for p in result.plans
        if "V" in p.query.schema_names()
        and any(isinstance(b.source, (Lookup, NFLookup)) for b in p.query.bindings)
    ]
    assert nav, [str(p) for p in result.plans]
    # the plan never scans R or S — V is the only scanned relation
    assert any(
        not ({"R", "S"} & {str(b.source) for b in p.query.bindings}) for p in nav
    )


def test_e5_intermediate_p_not_minimal(benchmark, rs_small):
    """P = Q joined with V is equivalent but thrown away (not minimal)."""

    wl = rs_small
    p = parse_query(
        "select struct(A = r.A, B = s.B, C = s.C) from V v, R r, S s "
        "where v.A = r.A and r.B = s.B"
    )

    equivalent = benchmark(
        lambda: is_equivalent(p, wl.query, wl.constraints)
    )
    assert equivalent
    result = _optimize(wl)
    keys = {pl.query.canonical_key() for pl in result.plans}
    assert p.canonical_key() not in keys  # non-minimal: pruned


def test_e5_navigation_plan_execution(benchmark, rs_medium):
    """With |V| << |R ⋈ S| the navigation plan scans far fewer tuples."""

    wl = rs_medium
    nav_plan = parse_query(
        "select struct(A = v.A, B = r1.B, C = s1.C) "
        "from V v, IR[v.A] r1, IS{r1.B} s1"
    )
    reference = evaluate(wl.query, wl.instance)
    nav_run = benchmark(lambda: execute(nav_plan, wl.instance, mode="compiled"))
    assert nav_run.results == reference


def test_e5_direct_join_execution_baseline(benchmark, rs_medium):
    wl = rs_medium
    run = benchmark(lambda: execute(wl.query, wl.instance, mode="compiled"))
    assert run.results == evaluate(wl.query, wl.instance)
