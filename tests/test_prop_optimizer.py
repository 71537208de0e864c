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
from repro.api.context import OptimizeContext
from repro.chase.chase import ChaseEngine, chase
from repro.chase.containment import is_contained_in
from repro.errors import BackchaseError, ChaseNonTermination
from repro.lru import LRU
from repro.model.instance import Instance
from repro.model.values import Row
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics
from repro.physical.indexes import SecondaryIndex
from repro.physical.views import MaterializedView
from repro.query.evaluator import evaluate
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.query.parser import parse_constraint, parse_query
from repro.query.paths import Const


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
        OptimizeContext(
            constraints=constraints,
            statistics=Statistics.from_instance(instance),
            max_backchase_nodes=5000,
        )
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
    optimizer = Optimizer(
        OptimizeContext(
            constraints=constraints,
            statistics=stats,
            max_backchase_nodes=5000,
        )
    )
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
                backchase.RootVerdicts(universal, serving), max_nodes=250
            )
        except (ChaseNonTermination, BackchaseError):
            assume(False)
    assert deciding.lookup_safety == {} and not deciding.lookup_proofs


# -- genericity: the search's verdicts do not read constants -------------------
#
# Every verdict the search reaches is a chase fact, and the chase compares
# constants only for equality: an injective renaming π of a query's
# constants that keeps every constant a dependency mentions renames the
# search without changing it.  The normal forms of π(Q) are π of Q's — and
# so a search from π(Q) may read the verdicts Q's search kept (the
# database's verdict store, ``minimal_subqueries``' ``verdict_store``).


def dependency_constants(deps):
    """Every ``Const`` a dependency mentions."""

    paths = [
        path
        for dep in deps
        for path in [b.source for b in dep.premise_bindings + dep.conclusion_bindings]
        + [
            side
            for c in dep.premise_conditions + dep.conclusion_conditions
            for side in (c.left, c.right)
        ]
    ]
    return {t for path in paths for t in P.subterms(path) if isinstance(t, Const)}


def rename_constants(query, pi):
    """``query`` with every constant ``c`` in ``pi`` written ``pi[c]``."""

    def rename(path):
        return P.transform(path, lambda term: pi.get(term, term))

    output = query.output
    if isinstance(output, StructOutput):
        output = StructOutput(tuple((name, rename(p)) for name, p in output.fields))
    else:
        output = PathOutput(rename(output.path))
    return PCQuery(
        output,
        tuple(Binding(b.var, rename(b.source)) for b in query.bindings),
        tuple(Eq(rename(c.left), rename(c.right)) for c in query.conditions),
    )


#: what a renamed constant becomes: disjoint from the generators' 0..3 and
#: from every constant a dependency writes, of both types
FRESH = (10, 11, 12, 13, 47, "a", "b", "c", "d")


def draw_renaming(draw, query, deps):
    """A random injective renaming of ``query``'s constants onto ``FRESH``
    that keeps every constant ``deps`` mentions."""

    kept = dependency_constants(deps)
    renamed = sorted(
        {t for t in query.all_terms() if isinstance(t, Const)} - kept,
        key=lambda c: c._str,
    )
    image = draw(st.permutations(FRESH))[: len(renamed)]
    return dict(zip(renamed, map(Const, image)))


def searched(query, deps, strategy, statistics=None, max_nodes=250, store=None):
    """Normal forms of the optimizer's search from ``query``'s universal
    plan, each then cleaned as step 3 cleans it — its verdicts, condition
    pruning's pairs included, kept in ``store``, if given — whether that
    plan is unsatisfiable (two constants in one class), and the search's
    counters."""

    universal = chase(query, deps, 80)
    context = OptimizeContext(
        constraints=tuple(deps),
        statistics=statistics or Statistics(),
        strategy=strategy,
        max_backchase_nodes=max_nodes,
    )
    optimizer = Optimizer(context=context)
    verdicts = backchase.RootVerdicts(
        universal.query, ChaseEngine(context.constraints, 80), context, store
    )
    stats = backchase.BackchaseStats()
    forms = optimizer.minimal_plans(verdicts, stats)
    for form in forms:
        optimizer._variants(form, verdicts)  # prunes through the entry
    return forms, universal.congruence.inconsistent, stats


#: the counters of a search's walk: a search served from a store walks
#: what the same search from a fresh store walks
WALK = (
    "nodes_visited",
    "steps_attempted",
    "steps_applied",
    "normal_forms",
    "candidates_explored",
    "candidates_pruned",
)


def removal_graph(store):
    """The removal graph of ``store``'s one entry, as it stands now: per
    node, its spelling, its floor terms and each removal's outcome (an
    accepted child by its node's name)."""

    ((_, entry),) = store.items()
    names = {id(node): name for name, node in entry.removals.items()}
    return {
        name: (
            node.spelling,
            node.terms,
            [names[id(e)] if isinstance(e, backchase.RemovalNode) else e for e in node.edges],
        )
        for name, node in entry.removals.items()
    }


def form_keys(forms, inconsistent, pi=None):
    """The normal forms, each constant renamed by ``pi``, as canonical
    keys — binding lists only when the plan is unsatisfiable: the class
    of two clashing constants is written through whichever spells
    smaller, so its output and conditions follow the spelling, and an
    unsatisfiable query's output is any of them."""

    renamed = [rename_constants(f, pi) if pi else f for f in forms]
    if inconsistent:
        return {str(f.canonical().bindings) for f in renamed}
    return {f.canonical_key() for f in renamed}


def assert_generic(query, deps, pi, strategy, statistics=None, max_nodes=250):
    """Three ways to the normal forms of π(Q) agree: π of Q's, π(Q)'s own
    search, and π(Q)'s search reading the verdict store Q's search filled
    — and every verdict the store serves, condition (3) per shape and
    condition pruning's per pair, is the one π(Q)'s search decides (a
    fresh store reads nothing: that search is store-less).  Where π keeps
    the root's key, Q's search and π(Q)'s record the same removal graph
    (edges, child keys, marked spellings, floor terms), and π(Q)'s search from Q's
    store replays every removal it walks — it builds no candidate — and
    walks what its own search walks."""

    shared, alone = LRU(), LRU()
    try:
        forms, inconsistent, _ = searched(
            query, deps, strategy, statistics, max_nodes, shared
        )
    except (ChaseNonTermination, BackchaseError):
        assume(False)
    recorded = removal_graph(shared)
    renamed = rename_constants(query, pi)
    own, own_inconsistent, own_stats = searched(
        renamed, deps, strategy, statistics, max_nodes, alone
    )
    served, _, served_stats = searched(
        renamed, deps, strategy, statistics, max_nodes, shared
    )
    assert own_inconsistent == inconsistent
    expected = form_keys(forms, inconsistent, pi)
    assert form_keys(own, inconsistent) == expected
    assert form_keys(served, inconsistent) == expected
    ((key, decided),) = alone.items()
    entry = dict(shared.items()).get(key)
    if entry is None:
        return set()  # π moved the root's key: nothing was served
    assert removal_graph(alone) == recorded
    if strategy == "pruned":  # the root's floor, at least, was computed
        assert any(terms is not None for _, terms, _ in recorded.values())
    assert served_stats.candidates_replayed == served_stats.candidates_explored
    assert [getattr(served_stats, c) for c in WALK] == [
        getattr(own_stats, c) for c in WALK
    ]
    kept, decided = entry.verdicts, decided.verdicts
    both = decided.keys() & kept.keys()
    assert {k: kept[k] for k in both} == {k: decided[k] for k in both}
    return both


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    query=pc_queries(),
    deps=indexed_constraint_sets(),
    strategy=st.sampled_from(("full", "pruned")),
    data=st.data(),
)
def test_normal_forms_are_generic_in_the_constants(query, deps, strategy, data):
    """π(Q)'s normal forms are π of Q's, with and without the verdicts
    Q's search stored, on generated queries and constraint sets (the
    ``ENTANGLING`` arm, whose EGD writes a constant, included)."""

    assert_generic(query, deps, draw_renaming(data.draw, query, deps), strategy)


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios(), strategy=st.sampled_from(("full", "pruned")), data=st.data())
def test_scenario_normal_forms_are_generic_in_the_constants(scenario, strategy, data):
    """The same on the physical designs of :func:`scenarios`, costed under
    the instance's statistics."""

    instance, deps, query = scenario
    pi = draw_renaming(data.draw, query, deps)
    assert_generic(query, deps, pi, strategy, Statistics.from_instance(instance))


#: a constant-carrying query per workload, and a renaming of its constants
GENERIC_WORKLOADS = {
    "rs": (
        "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B and s.C = 3",
        {3: "three"},
    ),
    "rabc": (None, {5: 23, 9: "nine"}),
    "projdept": (None, {"CitiBank": "Initech"}),
    "oo_asr": (
        "select struct(D = d.DName, E = e.EName) from depts d, d.Staff e "
        'where d.DName = "D3"',
        {"D3": 77},
    ),
}


@pytest.mark.parametrize("strategy", ["pruned", "full"])
@pytest.mark.parametrize("name", sorted(GENERIC_WORKLOADS))
def test_workload_normal_forms_are_generic_in_the_constants(name, strategy):
    from repro.api.workloads import build_workload

    workload = build_workload(name)
    text, renaming = GENERIC_WORKLOADS[name]
    query = parse_query(text) if text else workload.query
    pi = {Const(old): Const(new) for old, new in renaming.items()}
    assert set(pi) <= set(query.all_terms())
    statistics = workload.statistics if strategy == "pruned" else None
    served = assert_generic(
        query, list(workload.constraints), pi, strategy, statistics, max_nodes=20_000
    )
    # both kinds of verdict were served: per shape, and per pruning pair
    assert {type(key) for key in served} == {str, tuple}


# -- genericity of step 3: condition pruning's containment pairs ---------------
#
# Condition pruning asks whether a normal form less one condition is
# contained in the form: a chase fact of the same kind as condition (3),
# so the same renaming π keeps its verdict.


def pruning_pairs(query, deps, strategy, statistics=None, max_nodes=250):
    """Every (trial, reference) pair condition pruning asks while ``query``
    is optimized, once each (``ChaseEngine.contained_in`` is asked by
    ``prune_conditions`` alone)."""

    context = OptimizeContext(
        constraints=tuple(deps),
        statistics=statistics or Statistics(),
        strategy=strategy,
        max_chase_steps=80,
        max_backchase_nodes=max_nodes,
    )
    pairs = {}
    asked = ChaseEngine.contained_in

    def recording(engine, q1, q2, *rest):
        pairs.setdefault((q1.canonical_key(), q2.canonical_key()), (q1, q2))
        return asked(engine, q1, q2, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChaseEngine, "contained_in", recording)
        Optimizer(context=context).optimize(query)
    return list(pairs.values())


def assert_pruning_generic(query, deps, pi, strategy, statistics=None, max_nodes=250):
    """Each pair condition pruning asks on ``query`` keeps its verdict
    under π, both sides renamed by the one π."""

    try:
        pairs = pruning_pairs(query, deps, strategy, statistics, max_nodes)
    except (ChaseNonTermination, BackchaseError):
        assume(False)
    for q1, q2 in pairs:
        verdict = is_contained_in(q1, q2, deps, ChaseEngine(deps, 80))
        renamed = is_contained_in(
            rename_constants(q1, pi), rename_constants(q2, pi), deps, ChaseEngine(deps, 80)
        )
        assert renamed == verdict, (str(q1), str(q2), pi)
    return pairs


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    query=pc_queries(),
    deps=indexed_constraint_sets(),
    strategy=st.sampled_from(("full", "pruned")),
    data=st.data(),
)
def test_pruning_verdicts_are_generic_in_the_constants(query, deps, strategy, data):
    """On generated queries and constraint sets (``ENTANGLING`` included)."""

    pi = draw_renaming(data.draw, query, deps)
    assert_pruning_generic(query, deps, pi, strategy)


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios(), strategy=st.sampled_from(("full", "pruned")), data=st.data())
def test_scenario_pruning_verdicts_are_generic_in_the_constants(scenario, strategy, data):
    """On the physical designs of :func:`scenarios`, costed under the
    instance's statistics."""

    instance, deps, query = scenario
    pi = draw_renaming(data.draw, query, deps)
    assert_pruning_generic(query, deps, pi, strategy, Statistics.from_instance(instance))


@pytest.mark.parametrize("name", sorted(GENERIC_WORKLOADS))
def test_workload_pruning_verdicts_are_generic_in_the_constants(name):
    """On each workload's constant-carrying query (the default strategy:
    its coster prunes every normal form the search completes)."""

    from repro.api.workloads import build_workload

    workload = build_workload(name)
    text, renaming = GENERIC_WORKLOADS[name]
    query = parse_query(text) if text else workload.query
    pi = {Const(old): Const(new) for old, new in renaming.items()}
    pairs = assert_pruning_generic(
        query, list(workload.constraints), pi, "pruned", workload.statistics, 20_000
    )
    assert pairs
