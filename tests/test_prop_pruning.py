"""Property-test harness for the cost-bounded backchase.

The contract of the ``pruned`` strategy: on *any* query and constraint
set, the plan it returns costs exactly as much as the cheapest plan the
full enumeration would find — pruning may drop dominated normal forms but
never the winner.  Exercised here on randomly generated PC queries and
constraint sets (generators in ``conftest``), with and without a
physical-schema filter, plus a direct soundness check of the lower bound
that justifies the pruning.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import constraint_sets, pc_queries, recording
from repro.backchase.backchase import minimal_subqueries
from repro.chase.chase import ChaseEngine
from repro.errors import BackchaseError, ChaseNonTermination
from repro.optimizer.cost import estimate_cost, plan_cost_floor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics

COMMON = dict(max_chase_steps=80, max_backchase_nodes=4_000)

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _optimize_both(query, deps, **kwargs):
    try:
        full = Optimizer(deps, strategy="full", **COMMON, **kwargs).optimize(query)
        pruned = Optimizer(deps, strategy="pruned", **COMMON, **kwargs).optimize(
            query
        )
    except (ChaseNonTermination, BackchaseError):
        assume(False)
    return full, pruned


@settings(max_examples=200, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets())
def test_pruned_best_cost_equals_full(query, deps):
    """The headline property: equal best cost on ≥200 generated cases."""

    full, pruned = _optimize_both(query, deps)
    assert pruned.best.cost == pytest.approx(full.best.cost)
    # the pruned plan set is a subset of the full enumeration's
    full_keys = {p.query.canonical_key() for p in full.plans}
    pruned_keys = {p.query.canonical_key() for p in pruned.plans}
    assert pruned_keys <= full_keys
    # and the search never does more work than the full enumeration
    assert (
        pruned.backchase_stats.candidates_explored
        <= full.backchase_stats.candidates_explored
    )
    assert (
        pruned.backchase_stats.nodes_visited
        <= full.backchase_stats.nodes_visited
    )


@settings(max_examples=60, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets())
def test_pruned_best_cost_equals_full_under_physical_filter(query, deps):
    """With a physical filter only eligible plans may tighten the bound;
    the filtered winner must still match the full enumeration's."""

    physical = frozenset(["S", "T", "IXA", "IXB", "IXS"])
    full, pruned = _optimize_both(query, deps, physical_names=physical)
    assert pruned.best.cost == pytest.approx(full.best.cost)
    assert pruned.best.physical_only == full.best.physical_only


@settings(max_examples=60, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets())
def test_cost_floor_lower_bounds_every_normal_form(query, deps):
    """`plan_cost_floor` soundness, directly: the floor of the universal
    plan never exceeds the cost of any reachable normal form."""

    stats = Statistics()
    try:
        opt = Optimizer(deps, strategy="full", **COMMON)
        universal = opt.universal_plan(query).query
        forms = minimal_subqueries(
            universal, deps, max_nodes=COMMON["max_backchase_nodes"]
        )
    except (ChaseNonTermination, BackchaseError):
        assume(False)
    floor = plan_cost_floor(universal, stats)
    for form in forms:
        assert floor <= estimate_cost(form, stats) + 1e-9, str(form)


@settings(max_examples=60, **RELAXED)
@given(
    query=pc_queries(),
    deps=constraint_sets(),
    physical=st.sampled_from((None, frozenset(["S", "T", "IXA", "IXB", "IXS"]))),
    cards=st.tuples(*[st.sampled_from((None, 10.0, 5_000.0))] * 3),
)
def test_no_floor_exceeds_a_bounding_cost(query, deps, physical, cards):
    """What ``pruned`` compares, on generated designs: for every normal
    form F of the unbounded search with an eligible variant, the floor of
    the universal plan (the root, whose subtree holds F) and the floor of F
    are both at most F's bounding cost — the best eligible cost of its
    costed variants, ``Optimizer._bounding_cost`` (the generated twin of
    ``test_pruned_backchase.py::TestTheFloorIsAdmissible``)."""

    stats = Statistics()
    for rel, card in zip("RST", cards):
        if card is not None:
            stats.set_card(rel, card)
    optimizer = Optimizer(
        deps, strategy="full", statistics=stats, physical_names=physical, **COMMON
    )
    with recording(Optimizer, "minimal_plans") as searches:
        try:
            optimizer.optimize(query)
        except (ChaseNonTermination, BackchaseError):
            assume(False)
    (forms,) = searches
    # read after the run: the costing pipeline's memo is filled
    bounding_cost = optimizer._bounding_cost(ChaseEngine(optimizer.constraints))

    def floor(plan):
        return plan_cost_floor(plan, optimizer.statistics, optimizer.cost_model)

    root = floor(optimizer.universal_plan(query).query)
    for form in forms:
        cost = bounding_cost(form)
        if cost is None:  # no eligible variant: it never sets the bound
            continue
        assert root <= cost, str(form)
        assert floor(form) <= cost, str(form)
