"""The two-query constraint check against the nested loop it replaced.

``repro.constraints.checker`` decides I ⊨ ∀x̄(B₁ → ∃ȳ B₂) as the difference
of two compiled queries; ``tests/checker_oracle.py`` enumerates premise
environments and searches each conclusion.  They must agree on the
verdict and on the *set* of violating environments — on generated
instances with structures installed and then written past, on the
generator's constraint groups (``ENTANGLING`` included), on premise-less
dependencies and on the four workloads.

The last property is ROADMAP item 15(b), lookup safety by answers: on an
instance the checker accepts, every normal form of the ``full`` search
runs and returns the logical query's answer.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from checker_oracle import oracle_violations
from conftest import constraint_pool, constraint_sets, gen_instances, pc_queries
from repro.api.workloads import build_workload
from repro.backchase.backchase import minimal_subqueries
from repro.chase.chase import chase
from repro.constraints.checker import check_all, holds, violations
from repro.constraints.epcd import EPCD
from repro.errors import BackchaseError, ChaseNonTermination
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.model.values import DictValue, Row, sort_key
from repro.physical.indexes import PrimaryIndex, SecondaryIndex
from repro.physical.views import MaterializedView
from repro.query.ast import Binding, Eq
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.paths import Attr, Const, SName, Var
from test_prop_optimizer import indexed_constraint_sets

#: the pool's three index groups, by the structure each characterizes
POOL_INDEXES = (
    SecondaryIndex("IXB", "R", "B"),
    SecondaryIndex("IXA", "R", "A"),
    SecondaryIndex("IXS", "S", "B"),
)

PRIMARY_INDEX = PrimaryIndex("PXA", "R", "A")

JOIN_VIEW = MaterializedView(
    "V", parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
)


def premise_less(name, conditions=(), value=1):
    """``exists (r in R) r.A = value``, behind variable-free premise
    conditions: the constructor takes it, the parser has no syntax."""

    return EPCD(
        name,
        (),
        conditions,
        (Binding("r", SName("R")),),
        (Eq(Attr(Var("r"), "A"), Const(value)),),
    )


def as_set(envs):
    return {tuple(sorted(env.items())) for env in envs}


def agree(deps, instance):
    for dep in deps:
        found = list(violations(dep, instance))
        expected = oracle_violations(dep, instance)
        assert as_set(found) == as_set(expected), dep.name
        assert len(found) == len(as_set(found)), dep.name
        assert holds(dep, instance) == (not expected), dep.name


@st.composite
def written_instances(draw):
    """A generated instance with the pool's indexes and the join view
    installed, then written past: base relations replaced after the
    build, index entries dropped or forged.  Some constraint sets hold on
    the result and some are violated."""

    instance = draw(gen_instances(max_rows=6))
    for structure in POOL_INDEXES + (JOIN_VIEW,):
        structure.install(instance)
    for rel in draw(st.sets(st.sampled_from(("R", "S", "T")), max_size=2)):
        fresh = draw(gen_instances(max_rows=6))
        instance[rel] = fresh[rel]
    for name in draw(st.sets(st.sampled_from(("IXA", "IXB", "IXS")), max_size=2)):
        entries = dict(instance[name].items())
        if entries and draw(st.booleans()):
            del entries[draw(st.sampled_from(sorted(entries)))]
        else:
            entries[draw(st.integers(0, 4))] = frozenset({Row(A=9, B=9, C=9)})
        instance[name] = DictValue(entries)
    return instance


class TestTheOracle:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        instance=written_instances(),
        deps=st.one_of(constraint_sets(max_groups=4), indexed_constraint_sets()),
        constant=st.integers(0, 4),
    )
    def test_verdicts_and_witnesses_are_the_nested_loops(
        self, instance, deps, constant
    ):
        structural = (
            POOL_INDEXES[0].constraints()
            + JOIN_VIEW.constraints()
            + [premise_less("some_r", value=constant)]
        )
        agree(deps + structural, instance)

    def test_every_pool_group_on_its_own(self):
        instance = Instance(
            {
                "R": frozenset({Row(A=0, B=1, C=2), Row(A=0, B=2, C=2)}),
                "S": frozenset({Row(B=1, C=3)}),
                "T": frozenset(),
            }
        )
        for structure in POOL_INDEXES:
            structure.install(instance)
        instance["R"] = instance["R"] | {Row(A=3, B=3, C=3)}
        for name, group in constraint_pool():
            agree(group, instance)
        assert {name for name, _ in check_all(
            [dep for _, group in constraint_pool() for dep in group], instance
        )} == {"ric_rs", "ric_st", "key_r", "IXB_si1", "IXA_si1"}

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_a_premise_less_dependency(self, rows):
        instance = Instance(
            {"R": frozenset(Row(A=a) for a in range(1, rows + 1))}
        )
        for dep in (
            premise_less("one"),
            premise_less("two", value=2),
            premise_less("never", (Eq(Const(1), Const(2)),), value=2),
            premise_less("always", (Eq(Const(1), Const(1)),), value=2),
        ):
            agree([dep], instance)
        assert holds(premise_less("one"), instance) == (rows >= 1)
        assert holds(premise_less("never", (Eq(Const(1), Const(2)),)), instance)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("projdept", {}),
            ("oo_asr", {}),
            ("rabc", {"n": 60}),
            ("rs", {"n_r": 40, "n_s": 40}),
        ],
    )
    def test_the_workloads(self, name, kwargs):
        workload = build_workload(name, **kwargs)
        instance = workload.instance
        agree(workload.constraints, instance)
        # Drop one element of every set extent, structures included.
        for rel in instance.names():
            rows = instance[rel]
            if isinstance(rows, frozenset) and rows:
                instance[rel] = rows - {min(rows, key=sort_key)}
        agree(workload.constraints, instance)
        assert check_all(workload.constraints, instance) != []


class TestLookupSafetyByAnswers:
    """ROADMAP item 15(b): a normal form the search accepts as lookup-safe
    never fails a lookup on an instance that satisfies the constraints,
    even where a dictionary lacks a key the query never reaches.  The
    primary index ``PXA`` (on ``R``'s key ``A``) is what puts failing
    lookups into the conditions of candidates: ``PXA[k] = r`` is safe only
    where ``k`` is known to be one of ``R``'s ``A`` values."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    # R has no row with A = 1, so PXA lacks the key 1; the query never
    # reaches it (its answer is empty), but a candidate that checks
    # ``1 = PXA[1].A`` before any loop would fail.
    @example(
        query=parse_query(
            "select struct(F0 = v1.C, F1 = v1.B) from R v0, S v1 "
            "where v0.A = 1 and v1.C = 0"
        ),
        deps=dict(constraint_pool())["ix_ra"] + dict(constraint_pool())["ix_sb"],
        primary=True,
        instance=Instance(
            {
                "R": frozenset({Row(A=0, B=0, C=0)}),
                "S": frozenset({Row(B=0, C=0)}),
                "T": frozenset(),
            }
        ),
        absent={1},
    )
    @given(
        query=pc_queries(),
        deps=indexed_constraint_sets(),
        primary=st.booleans(),
        instance=gen_instances(max_rows=5),
        absent=st.sets(st.integers(0, 3), max_size=3),
    )
    def test_every_normal_form_returns_the_answer(
        self, query, deps, primary, instance, absent
    ):
        # Keys in ``absent`` are in no index: no row of R or S carries them.
        # R keeps one row per A, so that A is R's key.
        by_key = {}
        for row in sorted(instance["R"], key=sort_key):
            if row["A"] not in absent:
                by_key.setdefault(row["A"], row)
        instance["R"] = frozenset(by_key.values())
        instance["S"] = frozenset(r for r in instance["S"] if r["B"] not in absent)
        structures = POOL_INDEXES + (PRIMARY_INDEX,)
        for structure in structures:
            structure.install(instance)
        if primary:
            deps = deps + dict(constraint_pool())["key_r"] + PRIMARY_INDEX.constraints()
        assume(check_all(deps, instance) == [])
        try:
            universal = chase(query, deps, 80).query
            forms = minimal_subqueries(universal, deps, strategy="full", max_nodes=250)
        except (ChaseNonTermination, BackchaseError):
            assume(False)
        answer = evaluate(query, instance)
        for form in forms:
            assert execute(form, instance, mode="compiled").results == answer, str(form)
