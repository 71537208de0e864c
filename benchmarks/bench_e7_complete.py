"""E7 — Theorem 2 (complete backchase): the normal forms of backchasing
are exactly the minimal equivalent subqueries.

Reproduces: every normal form is minimal (no further binding removable)
and equivalent to the universal plan; distinct normal forms are distinct
queries; the set of normal forms is stable under search-order permutations
(completeness means the enumeration cannot miss forms depending on the
order in which removals are tried).
"""

from __future__ import annotations

from backchase_oracle import bottom_up_minimal_plans, is_minimal, try_remove_binding
from repro.backchase.backchase import RootVerdicts, minimal_subqueries
from repro.chase.chase import ChaseEngine, chase
from repro.chase.containment import is_equivalent
from repro.query.ast import PCQuery


def test_e7_normal_forms_are_minimal_and_equivalent(benchmark, rs_small):
    wl = rs_small
    universal = chase(wl.query, wl.constraints).query

    def enumerate_and_verify():
        engine = ChaseEngine(wl.constraints)
        forms = minimal_subqueries(RootVerdicts(universal, engine))
        for form in forms:
            assert is_minimal(form, wl.constraints, engine), str(form)
            assert is_equivalent(form, universal, wl.constraints, engine), str(form)
        return forms

    forms = benchmark.pedantic(enumerate_and_verify, rounds=1, iterations=1)
    keys = {f.canonical_key() for f in forms}
    assert len(keys) == len(forms)


def test_e7_enumeration_stable_under_removal_order(benchmark, rs_small):
    """Reversing the order in which binding removals are explored must not
    change the set of normal forms (memoized exhaustive search)."""

    wl = rs_small
    universal = chase(wl.query, wl.constraints).query

    def both_orders():
        forward = minimal_subqueries(universal, wl.constraints)
        reversed_universal = PCQuery(
            universal.output,
            universal.bindings,
            tuple(reversed(universal.conditions)),
        )
        backward = minimal_subqueries(reversed_universal, wl.constraints)
        return (
            {f.canonical_key() for f in forward},
            {f.canonical_key() for f in backward},
        )

    forward, backward = benchmark.pedantic(both_orders, rounds=1, iterations=1)
    assert forward == backward


def test_e7_original_query_recoverable(benchmark, rs_small):
    """'The original query must be among those it could produce' (§3)."""

    wl = rs_small
    universal = chase(wl.query, wl.constraints).query

    def enumerate():
        return minimal_subqueries(universal, wl.constraints)

    forms = benchmark.pedantic(enumerate, rounds=1, iterations=1)
    keys = {f.canonical_key() for f in forms}
    assert wl.query.canonical_key() in keys


def test_e7_bottom_up_cross_validation(benchmark, rs_small):
    """Theorem 2, validated two ways: the top-down backchase normal forms
    equal the bottom-up subset enumeration's minimal elements."""

    wl = rs_small
    universal = chase(wl.query, wl.constraints).query

    def both():
        top = {f.canonical_key() for f in minimal_subqueries(universal, wl.constraints)}
        bottom = {
            f.canonical_key()
            for f in bottom_up_minimal_plans(universal, wl.constraints)
        }
        return top, bottom

    top, bottom = benchmark.pedantic(both, rounds=1, iterations=1)
    assert top == bottom


def test_e7_single_step_soundness(benchmark, rs_small):
    """Every applicable backchase step yields an equivalent query."""

    wl = rs_small
    universal = chase(wl.query, wl.constraints).query
    engine = ChaseEngine(wl.constraints)

    def check_steps():
        count = 0
        for var in universal.binding_vars():
            candidate = try_remove_binding(universal, var, wl.constraints, engine)
            if candidate is not None:
                assert is_equivalent(candidate, universal, wl.constraints, engine)
                count += 1
        return count

    count = benchmark.pedantic(check_steps, rounds=1, iterations=1)
    assert count >= 1
