"""Unit tests for constraint builders and the instance-level checker."""

import pytest

from repro import Database
from repro.constraints.builders import (
    foreign_key,
    inclusion,
    inverse_relationship,
    key_constraint,
    member_foreign_key,
    nonempty_entries,
)
from repro.constraints.checker import check_all, holds, violations
from repro.model.instance import Instance
from repro.model.values import DictValue, Oid, Row


@pytest.fixture
def consistent():
    d0 = Oid("Dept", 0)
    dept = DictValue({d0: Row(DName="D0", DProjs=frozenset({"P1", "P2"}))})
    inst = Instance(
        {
            "Proj": frozenset(
                {
                    Row(PName="P1", PDept="D0"),
                    Row(PName="P2", PDept="D0"),
                }
            ),
            "Dept": dept,
            "depts": frozenset({d0}),
            "SI": DictValue(
                {"D0": frozenset({Row(PName="P1", PDept="D0"), Row(PName="P2", PDept="D0")})}
            ),
        }
    )
    inst.register_class("Dept", "Dept")
    return inst


class TestKeyConstraint:
    def test_holds_on_unique(self, consistent):
        assert holds(key_constraint("k", "Proj", "PName"), consistent)

    def test_violated_on_duplicates(self, consistent):
        consistent["Proj"] = consistent["Proj"] | {Row(PName="P1", PDept="D9")}
        dep = key_constraint("k", "Proj", "PName")
        assert not holds(dep, consistent)
        witnesses = list(violations(dep, consistent, limit=5))
        assert witnesses


class TestForeignKey:
    def test_holds(self, consistent):
        assert holds(foreign_key("fk", "Proj", "PDept", "depts", "DName"), consistent)

    def test_violated_by_dangling(self, consistent):
        consistent["Proj"] = consistent["Proj"] | {Row(PName="P9", PDept="Nowhere")}
        assert not holds(
            foreign_key("fk", "Proj", "PDept", "depts", "DName"), consistent
        )


class TestMemberForeignKey:
    def test_holds(self, consistent):
        dep = member_foreign_key("ric", "depts", "DProjs", "Proj", "PName")
        assert holds(dep, consistent)

    def test_violated_by_phantom_member(self, consistent):
        d1 = Oid("Dept", 1)
        dept = DictValue(
            dict(consistent["Dept"].items())
            | {d1: Row(DName="D1", DProjs=frozenset({"Phantom"}))}
        )
        consistent["Dept"] = dept
        consistent["depts"] = consistent["depts"] | {d1}
        dep = member_foreign_key("ric", "depts", "DProjs", "Proj", "PName")
        assert not holds(dep, consistent)


class TestInverseRelationship:
    def test_pair_holds(self, consistent):
        for dep in inverse_relationship(
            "INV", "depts", "DProjs", "Proj", "PName", "PDept", "DName"
        ):
            assert holds(dep, consistent), dep.name

    def test_forward_violated(self, consistent):
        # a project claims membership in D0 but points elsewhere
        consistent["Proj"] = frozenset(
            {Row(PName="P1", PDept="D9"), Row(PName="P2", PDept="D0")}
        )
        inv1 = inverse_relationship(
            "INV", "depts", "DProjs", "Proj", "PName", "PDept", "DName"
        )[0]
        assert not holds(inv1, consistent)


class TestInclusionAndNonempty:
    def test_inclusion(self, consistent):
        from repro.query.paths import Dom, SName

        dep = inclusion("inc", Dom(SName("Dept")), SName("depts"))
        assert holds(dep, consistent)
        dep_rev = inclusion("inc2", SName("depts"), Dom(SName("Dept")))
        assert holds(dep_rev, consistent)

    def test_nonempty_entries(self, consistent):
        assert holds(nonempty_entries("ne", "SI"), consistent)
        consistent["SI"] = DictValue({"D0": frozenset(), "X": frozenset({Row(A=1)})})
        assert not holds(nonempty_entries("ne", "SI"), consistent)


class TestCheckAll:
    def test_reports_only_failures(self, consistent):
        deps = [
            key_constraint("good", "Proj", "PName"),
            foreign_key("alsogood", "Proj", "PDept", "depts", "DName"),
        ]
        assert check_all(deps, consistent) == []
        consistent["Proj"] = consistent["Proj"] | {Row(PName="P9", PDept="Nowhere")}
        failures = check_all(deps, consistent)
        assert [name for name, _ in failures] == ["alsogood"]

    def test_egd_checking(self, consistent):
        # EGD with equality conclusion over premise env
        from repro.query.parser import parse_constraint

        dep = parse_constraint(
            "forall (p in Proj, q in Proj) where p.PName = q.PName -> p = q", "key"
        )
        assert holds(dep, consistent)


class TestItemOnesWrite:
    """ROADMAP item 1's write, raised on three CitiBank projects: the four
    index constraints it breaks, each with its witnesses in one order
    whatever ``PYTHONHASHSEED`` is (``make determinism`` runs it under
    three seeds).  Witnesses are ordered by the universal variables'
    values (``model.values.sort_key``; a row compares field by field, in
    field-name order, so ``Budg`` first), never by set order."""

    def test_the_broken_pairs_and_their_witnesses_are_pinned(self):
        db = Database.from_workload("projdept")
        projects = db.instance["Proj"]
        raised = sorted(
            (p for p in projects if p["CustName"] == "CitiBank"),
            key=lambda p: p["PName"],
        )[:3]
        db.instance["Proj"] = (projects - set(raised)) | {
            Row({**p, "Budg": p["Budg"] + 1000}) for p in raised
        }

        def named(value):
            return value["PName"] if isinstance(value, Row) else value

        failures = check_all(db.constraints, db.instance)
        assert [(name, {v: named(x) for v, x in witness.items()})
                for name, witness in failures] == [
            ("I_pi1", {"p": "P2_1"}),
            ("I_pi2", {"i": "P0_3"}),
            ("SI_si1", {"p": "P2_1"}),
            ("SI_si2", {"k": "CitiBank", "t": "P2_1"}),
        ]
        # The whole order, not only its head: set order would have to
        # match it on four sets of three to pass by chance.
        by_name = {dep.name: dep for dep in db.constraints}
        assert [
            [named(env[dep.universal_vars()[-1]]) for env in violations(dep, db.instance)]
            for dep in map(by_name.get, ("I_pi1", "I_pi2", "SI_si1", "SI_si2"))
        ] == [
            ["P2_1", "P0_3", "P2_0"],
            ["P0_3", "P2_0", "P2_1"],
            ["P2_1", "P0_3", "P2_0"],
            ["P2_1", "P0_3", "P2_0"],
        ]
