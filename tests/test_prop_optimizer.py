"""Property-based end-to-end soundness of the optimizer.

For randomized combinations of physical structures (secondary indexes on
random attributes, materialized projection/join views) over randomized
instances, every plan Algorithm 1 emits must return exactly the logical
query's answer — on the instance the structures were built from (where
the implementation-mapping constraints hold by construction).
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from backchase_oracle import rule_normal_forms
from conftest import constraint_pool, constraint_sets, pc_queries
from repro.backchase import backchase
from repro.chase.chase import ChaseEngine, chase
from repro.errors import BackchaseError, ChaseNonTermination
from repro.model.instance import Instance
from repro.model.values import Row
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics
from repro.physical.indexes import SecondaryIndex
from repro.physical.views import MaterializedView
from repro.query.evaluator import evaluate
from repro.query.parser import parse_constraint, parse_query


@st.composite
def scenarios(draw):
    n_r = draw(st.integers(0, 12))
    n_s = draw(st.integers(0, 12))
    r = frozenset(
        Row(A=draw(st.integers(0, 3)), B=draw(st.integers(0, 3)))
        for _ in range(n_r)
    )
    s = frozenset(
        Row(B=draw(st.integers(0, 3)), C=draw(st.integers(0, 3)))
        for _ in range(n_s)
    )
    instance = Instance({"R": r, "S": s})

    structures = []
    if draw(st.booleans()):
        structures.append(SecondaryIndex("IRA", "R", draw(st.sampled_from(["A", "B"]))))
    if draw(st.booleans()):
        structures.append(SecondaryIndex("ISB", "S", "B"))
    if draw(st.booleans()):
        structures.append(
            MaterializedView(
                "V",
                parse_query(
                    "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
                ),
            )
        )
    constraints = []
    for structure in structures:
        structure.install(instance)
        constraints.extend(structure.constraints())

    query_text = draw(
        st.sampled_from(
            [
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
                "select r.A from R r where r.B = 2",
                "select struct(A = r.A, B = s.B) from R r, S s "
                "where r.B = s.B and r.A = 1",
                "select s.C from S s where s.B = 0",
            ]
        )
    )
    return instance, constraints, parse_query(query_text)


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_every_emitted_plan_is_correct(scenario):
    instance, constraints, query = scenario
    optimizer = Optimizer(
        constraints,
        statistics=Statistics.from_instance(instance),
        max_backchase_nodes=5000,
    )
    result = optimizer.optimize(query)
    reference = evaluate(query, instance)
    for plan in result.plans:
        assert evaluate(plan.query, instance) == reference, str(plan.query)


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_best_plan_never_costlier_than_original(scenario):
    instance, constraints, query = scenario
    from repro.optimizer.cost import estimate_cost

    stats = Statistics.from_instance(instance)
    optimizer = Optimizer(constraints, statistics=stats, max_backchase_nodes=5000)
    result = optimizer.optimize(query)
    assert result.best.cost <= estimate_cost(query, stats) + 1e-9


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_rule_normal_forms_are_the_backchase_normal_forms(scenario):
    """Theorem 2 against section 3 on random designs: chase-precedence
    rewriting with the two rules reaches exactly Algorithm 1's normal
    forms."""

    _instance, constraints, query = scenario
    by_rules = rule_normal_forms(query, constraints)
    universal = chase(query, constraints).query
    by_search = backchase.minimal_subqueries(universal, constraints, strategy="full")
    assert {f.canonical_key() for f in by_rules} == {
        f.canonical_key() for f in by_search
    }


#: dependencies that make a set not separable (``ChaseEngine.separable``),
#: so that lookup safety is decided on the whole scope: a premise whose
#: bindings share nothing, and an EGD that writes a constant
ENTANGLING = {
    "cartesian": "forall (r in R, s in S) -> exists (k in dom(IXA)) k = r.A",
    "const_egd": "forall (s in S) -> s.B = 1",
}


@st.composite
def indexed_constraint_sets(draw):
    """Two of the three index groups plus up to two more pool groups: no
    index, no lookup, and one index alone leaves little to infer.  One draw
    in three adds an ``ENTANGLING`` dependency: most sets are separable,
    and lookup safety is decided on the part of a scope linked to the key;
    these (and ``ne_tr``'s) are not."""

    indexes = draw(st.permutations(("ix_rb", "ix_ra", "ix_sb")))[:2]
    pool = dict(constraint_pool())
    deps = draw(constraint_sets(max_groups=2)) + pool[indexes[0]] + pool[indexes[1]]
    extra = draw(st.sampled_from((None, "cartesian", "const_egd")))
    if extra is not None:
        deps.append(parse_constraint(ENTANGLING[extra], extra))
    return list({dep.name: dep for dep in deps}.values())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(query=pc_queries(), deps=indexed_constraint_sets())
def test_served_lookup_safety_is_the_from_scratch_verdict(query, deps):
    """However one engine serves a lookup-safety verdict during a search —
    memo, guard, inference from the scopes it chased, or a chase — a
    second engine that never remembers one decides the same from scratch.
    Checked verdict by verdict, so a search cut at the node budget still
    counts for what it asked."""

    serving, deciding = ChaseEngine(deps, 80), ChaseEngine(deps, 80)
    real_safe = backchase._failing_lookup_safe

    def checked_safe(lookup, prefix, conditions, engine, *scope):
        served = real_safe(lookup, prefix, conditions, engine, *scope)
        decided = backchase._decide_lookup_safe(lookup, prefix, conditions, deciding)
        assert served == all(decided), (str(lookup), prefix, conditions, decided)
        return served

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backchase, "_failing_lookup_safe", checked_safe)
        try:
            universal = chase(query, deps, 80).query
            backchase.minimal_subqueries(
                universal, deps, engine=serving, max_nodes=250
            )
        except (ChaseNonTermination, BackchaseError):
            assume(False)
    assert deciding.lookup_safety == {} and not deciding.lookup_proofs
