"""Shared fixtures: small instances, session-scoped workloads, and
hypothesis-style generators for random PC queries + constraint sets
(used by the property-test harnesses in ``test_prop_*.py``)."""

from __future__ import annotations

import pytest

from repro import Instance, Row, Schema, relation, INT, STRING
from repro.physical.indexes import SecondaryIndex
from repro.query.ast import PCQuery
from repro.query.parser import parse_constraint
from repro.query.paths import Attr, Const, SName, Var
from repro.workloads.projdept import build_projdept
from repro.workloads.relational import build_rabc, build_rs

try:  # hypothesis is optional: the property harnesses skip without it
    from hypothesis import settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    # Tier-1 is reproducible: under the default profile every draw is
    # derived from the test function itself and no example database is
    # replayed, so two runs of one commit run the same examples (a slow or
    # failing draw can be run again).  New draws are `make fuzz`'s job —
    # `--hypothesis-profile=explore`, on the weekly CI run.
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("tier1")


# -- generators for random PC queries and constraint sets ---------------------
#
# A small fixed schema keeps the generated space chase-friendly while still
# covering the interesting shapes: multi-way joins, constant selections,
# contradictory conditions (unsatisfiable queries), redundant bindings
# (tableau minimization), and constraints that enable removals (RICs,
# nonemptiness) or add access paths (secondary indexes).

GEN_SCHEMA = {"R": ("A", "B", "C"), "S": ("B", "C"), "T": ("A", "C")}


def constraint_pool():
    """Named groups of EPCDs the constraint-set generator samples from."""

    return [
        ("ric_rs", [parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric_rs")]),
        ("ric_sr", [parse_constraint(
            "forall (s in S) -> exists (r in R) s.B = r.B", "ric_sr")]),
        ("ric_st", [parse_constraint(
            "forall (s in S) -> exists (t in T) s.C = t.C", "ric_st")]),
        ("ne_tr", [parse_constraint(
            "forall (t in T) -> exists (r in R) true", "ne_tr")]),
        ("key_r", [parse_constraint(
            "forall (x in R, y in R) where x.A = y.A -> x = y", "key_r")]),
        ("ix_rb", SecondaryIndex("IXB", "R", "B").constraints()),
        ("ix_ra", SecondaryIndex("IXA", "R", "A").constraints()),
        ("ix_sb", SecondaryIndex("IXS", "S", "B").constraints()),
    ]


if HAVE_HYPOTHESIS:

    @st.composite
    def pc_queries(draw, max_bindings: int = 3, max_conditions: int = 3):
        """A random well-formed PC query over the generator schema."""

        n = draw(st.integers(min_value=1, max_value=max_bindings))
        rels = draw(
            st.lists(st.sampled_from(sorted(GEN_SCHEMA)), min_size=n, max_size=n)
        )
        bindings = [(f"v{i}", SName(rel)) for i, rel in enumerate(rels)]
        paths = [
            Attr(Var(var), attr)
            for var, rel in zip((b[0] for b in bindings), rels)
            for attr in GEN_SCHEMA[rel]
        ]
        path = st.sampled_from(paths)
        condition = st.one_of(
            st.tuples(path, path),
            st.tuples(path, st.integers(min_value=0, max_value=3).map(Const)),
        )
        conditions = draw(
            st.lists(condition, min_size=0, max_size=max_conditions)
        )
        n_fields = draw(st.integers(min_value=1, max_value=2))
        fields = [
            (f"F{i}", draw(path)) for i in range(n_fields)
        ]
        return PCQuery.make(fields, bindings, conditions)

    @st.composite
    def constraint_sets(draw, max_groups: int = 2, min_groups: int = 0):
        """A random set of EPCDs: ``min_groups`` to ``max_groups`` pool groups."""

        pool = constraint_pool()
        picked = draw(
            st.lists(
                st.sampled_from([name for name, _ in pool]),
                min_size=min_groups,
                max_size=max_groups,
                unique=True,
            )
        )
        by_name = dict(pool)
        return [dep for name in picked for dep in by_name[name]]


@pytest.fixture
def rs_schema() -> Schema:
    schema = Schema("rs")
    schema.add("R", relation(A=INT, B=INT))
    schema.add("S", relation(B=INT, C=INT))
    return schema


@pytest.fixture
def rs_instance() -> Instance:
    r = frozenset(
        {
            Row(A=1, B=10),
            Row(A=2, B=20),
            Row(A=3, B=30),
            Row(A=4, B=20),
        }
    )
    s = frozenset(
        {
            Row(B=10, C=100),
            Row(B=20, C=200),
            Row(B=20, C=201),
            Row(B=99, C=999),
        }
    )
    return Instance({"R": r, "S": s})


@pytest.fixture(scope="session")
def projdept():
    return build_projdept(n_depts=4, projs_per_dept=3, seed=3)


@pytest.fixture(scope="session")
def rabc():
    return build_rabc(n=300, a_values=20, b_values=20, seed=5)


@pytest.fixture(scope="session")
def rs_workload():
    return build_rs(n_r=60, n_s=60, b_values=30, seed=5)
