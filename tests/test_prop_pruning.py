"""Property-test harness for the cost-bounded backchase.

The contract of the ``pruned`` strategy: on *any* query and constraint
set, the plan it returns costs exactly as much as the cheapest plan the
full enumeration would find — pruning may drop dominated normal forms but
never the winner.  Exercised here on randomly generated PC queries and
constraint sets (generators in ``conftest``), with and without a
physical-schema filter, plus a direct soundness check of the lower bound
that justifies the pruning, and its two halves held to the one-pass
reference (``tests/floor_oracle.py``).
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import floor_oracle
from conftest import GEN_SCHEMA, constraint_pool, constraint_sets, pc_queries, recording
from repro.api.context import OptimizeContext
from repro.backchase.backchase import build_candidate, minimal_subqueries
from repro.errors import BackchaseError, ChaseNonTermination
from repro.optimizer.cost import estimate_cost, floor_terms, floor_value, plan_cost_floor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics
from repro.query.parser import parse_query

COMMON = dict(max_chase_steps=80, max_backchase_nodes=4_000)

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _context(deps, **kwargs):
    return OptimizeContext(constraints=deps, **COMMON, **kwargs)


def _optimize_both(query, deps, **kwargs):
    try:
        full = Optimizer(_context(deps, strategy="full", **kwargs)).optimize(query)
        pruned = Optimizer(_context(deps, strategy="pruned", **kwargs)).optimize(
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
        opt = Optimizer(_context(deps, strategy="full"))
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
        _context(deps, strategy="full", statistics=stats, physical_names=physical)
    )
    with recording(Optimizer, "minimal_plans") as searches:
        try:
            optimizer.optimize(query)
        except (ChaseNonTermination, BackchaseError):
            assume(False)
    (forms,) = searches
    universal = optimizer.universal_plan(query).query
    # over the universal plan's own verdicts: a form the run's memo does
    # not hold is priced, not looked up
    bounding_cost = optimizer._bounding_cost(optimizer._root_verdicts(universal))

    def floor(plan):
        return plan_cost_floor(plan, stats, optimizer.context.cost_model)

    root = floor(universal)
    for form in forms:
        cost = bounding_cost(form)
        if cost is None:  # no eligible variant: it never sets the bound
            continue
        assert root <= cost, str(form)
        assert floor(form) <= cost, str(form)


#: what a generated catalog may read: the generator schema's names, the
#: pool's index names and a name no generated query mentions
STAT = st.sampled_from((0.5, 1.0, 3.0, 12.0, 250.0, 5_000.0))
INDEXES = ["IXA", "IXB", "IXS"]
NAMES = sorted(GEN_SCHEMA) + INDEXES + ["Z"]
ATTRS = [f"{name}.{attr}" for name, attrs in sorted(GEN_SCHEMA.items()) for attr in attrs]


def catalogs():
    """Generated statistics: some cards, entry cards, fanouts and NDVs on
    record, and the defaults, each drawn from a wide range."""

    return st.builds(
        Statistics,
        cardinality=st.dictionaries(st.sampled_from(NAMES), STAT, max_size=4),
        entry_cardinality=st.dictionaries(st.sampled_from(INDEXES + ["Z"]), STAT, max_size=3),
        ndv=st.dictionaries(st.sampled_from(ATTRS), STAT, max_size=3),
        fanout=st.dictionaries(st.sampled_from(ATTRS), STAT, max_size=2),
        default_cardinality=STAT,
        default_ndv=STAT,
        default_fanout=STAT,
    )


@st.composite
def indexed_constraint_sets(draw):
    """Up to one pool group and one index group: a lookup source over a
    key equated to a constant is what a free-variable source is."""

    index = draw(st.sampled_from(("ix_rb", "ix_ra", "ix_sb")))
    return draw(constraint_sets(max_groups=1)) + dict(constraint_pool())[index]


@settings(max_examples=60, **RELAXED)
@given(
    query=pc_queries(),
    deps=indexed_constraint_sets(),
    first=catalogs(),
    then=catalogs(),
)
@example(  # a lookup keyed by a constant, under a catalog whose cheapest
    # statistic is a name no query reads: the free-variable clamp decides
    query=parse_query("select struct(F0 = v0.A) from R v0 where v0.B = 2"),
    deps=dict(constraint_pool())["ix_rb"],
    first=Statistics(cardinality={"Z": 0.5}),
    then=Statistics(),
)
def test_the_split_floor_is_the_one_pass_floor_bit_for_bit(query, deps, first, then):
    """``floor_value(floor_terms(q))`` is ``tests/floor_oracle.py``'s
    one-pass floor exactly — not approximately: a floor that ties the
    bound decides a pruning — on the query, its universal plan and the
    plan's one-binding removals, the terms read once and priced under
    ``first`` and again under ``then``, a catalog unlike it (a later
    request of a shape prices its recorded terms under its own)."""

    try:
        universal = Optimizer(_context(deps, strategy="full")).universal_plan(query).query
    except ChaseNonTermination:
        assume(False)
    removals = (
        build_candidate(universal, frozenset((var,)))
        for var in universal.binding_vars()
    )
    for node in [query, universal, *filter(None, removals)]:
        terms = floor_terms(node)
        for stats in (first, then):
            reference = floor_oracle.plan_cost_floor(node, stats)
            assert floor_value(terms, stats) == reference, str(node)
            assert plan_cost_floor(node, stats) == reference, str(node)
