"""Unit tests for views, classes, gmaps, join indexes, ASRs, hash tables."""

import pytest

from repro.constraints.checker import check_all, holds
from repro.errors import ConstraintError
from repro.model.instance import Instance
from repro.model.schema import Schema
from repro.model.types import INT, STRING, SetType, relation, struct
from repro.model.values import DictValue, Oid, Row
from repro.physical.asr import AccessSupportRelation, PathStep
from repro.physical.classes import ClassEncoding
from repro.physical.dictionary import (
    dict_comprehension,
    from_pairs_grouped,
    from_pairs_unique,
    index_rows,
    invert_unique,
)
from repro.physical.gmap import GMap
from repro.physical.hashtable import HashTable
from repro.physical.joinindex import JoinIndex
from repro.physical.views import MaterializedView
from repro.query.ast import StructOutput
from repro.query.parser import parse_path, parse_query
from repro.query.paths import Attr, Var


@pytest.fixture
def rs_instance():
    return Instance(
        {
            "R": frozenset({Row(K=1, A=10, B=5), Row(K=2, A=20, B=6)}),
            "S": frozenset({Row(K=7, B=5, C="x"), Row(K=8, B=5, C="y")}),
        }
    )


class TestMaterializedView:
    def test_materialize_and_constraints(self, rs_instance):
        view = MaterializedView(
            "V",
            parse_query(
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
            ),
        )
        value = view.install(rs_instance)
        assert value == frozenset({Row(A=10, C="x"), Row(A=10, C="y")})
        assert check_all(view.constraints(), rs_instance) == []

    def test_constraint_violation_detected(self, rs_instance):
        view = MaterializedView(
            "V",
            parse_query(
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
            ),
        )
        view.install(rs_instance)
        rs_instance["V"] = rs_instance["V"] | {Row(A=999, C="zz")}
        failures = check_all(view.constraints(), rs_instance)
        assert [name for name, _ in failures] == ["V_cv'"]

    def test_refresh(self, rs_instance):
        view = MaterializedView(
            "V", parse_query("select struct(A = r.A) from R r")
        )
        view.install(rs_instance)
        rs_instance["R"] = rs_instance["R"] | {Row(K=3, A=30, B=9)}
        view.refresh(rs_instance)
        assert Row(A=30) in rs_instance["V"]

    def test_install_and_refresh_stamp_the_write_clock(self, rs_instance):
        # Database.apply_design leans on this: installing a view is an
        # instance write, so plan-cache/semcache invalidation sees it.
        view = MaterializedView(
            "V", parse_query("select struct(A = r.A) from R r")
        )
        before = rs_instance.clock
        view.install(rs_instance)
        assert rs_instance.written_since({"V"}, before)
        assert not rs_instance.written_since({"R", "S"}, before)
        installed = rs_instance.clock
        assert not rs_instance.written_since({"V"}, installed)
        view.refresh(rs_instance)
        assert rs_instance.written_since({"V"}, installed)
        refreshed = rs_instance.clock
        rs_instance.overlay()["V"] = frozenset()  # an overlay's writes stay local
        assert rs_instance.clock == refreshed

    def test_install_returns_value_equal_to_stored_extent(self, rs_instance):
        view = MaterializedView(
            "V", parse_query("select struct(B = s.B, C = s.C) from S s")
        )
        value = view.install(rs_instance)
        assert value is rs_instance["V"]
        assert value == frozenset({Row(B=5, C="x"), Row(B=5, C="y")})

    def test_refresh_after_row_removal_shrinks_the_extent(self, rs_instance):
        view = MaterializedView(
            "V",
            parse_query(
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
            ),
        )
        view.install(rs_instance)
        assert len(rs_instance["V"]) == 2
        rs_instance["S"] = frozenset({Row(K=7, B=5, C="x")})
        value = view.refresh(rs_instance)
        assert value == frozenset({Row(A=10, C="x")})
        # a refreshed view satisfies its own constraint pair again
        assert check_all(view.constraints(), rs_instance) == []

    def test_stale_view_detected_then_repaired_by_refresh(self, rs_instance):
        view = MaterializedView(
            "V", parse_query("select struct(A = r.A) from R r")
        )
        view.install(rs_instance)
        rs_instance["R"] = rs_instance["R"] | {Row(K=3, A=30, B=9)}
        # stale: cV is violated (a base row has no view image) until refresh
        assert check_all(view.constraints(), rs_instance) != []
        view.refresh(rs_instance)
        assert check_all(view.constraints(), rs_instance) == []

    def test_install_into_mutated_instance_uses_live_base(self, rs_instance):
        rs_instance["R"] = rs_instance["R"] | {Row(K=3, A=30, B=5)}
        view = MaterializedView(
            "V",
            parse_query(
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
            ),
        )
        value = view.install(rs_instance)
        assert Row(A=30, C="x") in value and Row(A=30, C="y") in value

    def test_view_requires_struct_output(self):
        with pytest.raises(ConstraintError):
            MaterializedView("V", parse_query("select r.A from R r"))

    def test_view_cannot_reference_itself(self):
        with pytest.raises(ConstraintError):
            MaterializedView("V", parse_query("select struct(A = v.A) from V v"))

    def test_schema_type(self, rs_instance):
        schema = Schema("t").add("R", relation(K=INT, A=INT, B=INT))
        view = MaterializedView("V", parse_query("select struct(A = r.A) from R r"))
        view.install(rs_instance, schema)
        assert schema.type_of("V") == relation(A=INT)


class TestClassEncoding:
    def test_populate_and_constraints(self):
        enc = ClassEncoding(
            "Dept", "depts", "DeptD", struct(DName=STRING, DProjs=SetType(STRING))
        )
        inst = Instance({"Proj": frozenset()})
        oid = Oid("Dept", 0)
        enc.populate(inst, {oid: Row(DName="D0", DProjs=frozenset({"P1"}))})
        assert inst["depts"] == frozenset({oid})
        assert inst.deref(oid)["DName"] == "D0"
        assert check_all(enc.constraints(), inst) == []

    def test_register_declares_names(self):
        enc = ClassEncoding("Dept", "depts", "DeptD", struct(DName=STRING))
        schema = Schema("t")
        enc.register(schema)
        assert "depts" in schema and "DeptD" in schema
        assert len(schema.constraints) == len(enc.constraints())

    def test_broken_encoding_detected(self):
        enc = ClassEncoding("Dept", "depts", "DeptD", struct(DName=STRING))
        inst = Instance()
        oid, phantom = Oid("Dept", 0), Oid("Dept", 1)
        enc.populate(inst, {oid: Row(DName="D0")})
        inst["depts"] = frozenset({oid, phantom})  # extent ⊄ dom(dict)
        failures = check_all(enc.constraints(), inst)
        assert "Dept_ext1" in [name for name, _ in failures]

    def test_populate_rejects_foreign_oid(self):
        enc = ClassEncoding("Dept", "depts", "DeptD", struct(DName=STRING))
        from repro.errors import InstanceError

        with pytest.raises(InstanceError):
            enc.populate(Instance(), {Oid("Proj", 0): Row(DName="D0")})


class TestGMap:
    def test_materialize_and_constraints(self, rs_instance):
        gmap = GMap.from_queries(
            "G",
            parse_query("select r.B from R r"),
            parse_path("r.A", scope={"r"}),
        )
        value = gmap.install(rs_instance)
        assert value[5] == frozenset({10})
        assert value[6] == frozenset({20})
        assert check_all(gmap.constraints(), rs_instance) == []

    def test_struct_key_gmap(self, rs_instance):
        gmap = GMap(
            name="G2",
            bindings=parse_query("select r.A from R r, S s where r.B = s.B").bindings,
            conditions=parse_query("select r.A from R r, S s where r.B = s.B").conditions,
            key_output=StructOutput((("A", Attr(Var("r"), "A")),)),
            value_output=Attr(Var("s"), "C"),
        )
        value = gmap.install(rs_instance)
        assert value[Row(A=10)] == frozenset({"x", "y"})
        assert check_all(gmap.constraints(), rs_instance) == []

    def test_corrupted_gmap_detected(self, rs_instance):
        gmap = GMap.from_queries(
            "G", parse_query("select r.B from R r"), parse_path("r.A", scope={"r"})
        )
        gmap.install(rs_instance)
        data = dict(rs_instance["G"].items())
        data[999] = frozenset({0})
        rs_instance["G"] = DictValue(data)
        failures = check_all(gmap.constraints(), rs_instance)
        assert "G_gm2" in [name for name, _ in failures]


class TestJoinIndex:
    def test_install_and_constraints(self, rs_instance):
        ji = JoinIndex("J", "R", "K", "B", "S", "K", "B")
        ji.install(rs_instance)
        assert rs_instance["J"] == frozenset({Row(LK=1, RK=7), Row(LK=1, RK=8)})
        assert "J_IL" in rs_instance and "J_IR" in rs_instance
        assert check_all(ji.constraints(), rs_instance) == []


class TestASR:
    def test_set_valued_path(self):
        inst = Instance({"Proj": frozenset({Row(PName="P1"), Row(PName="P2")})})
        enc = ClassEncoding(
            "Dept", "depts", "DeptD", struct(DName=STRING, DProjs=SetType(STRING))
        )
        enc.populate(
            inst, {Oid("Dept", 0): Row(DName="D0", DProjs=frozenset({"P1", "P2"}))}
        )
        asr = AccessSupportRelation("ASR1", "depts", (PathStep("DProjs"),))
        value = asr.install(inst)
        assert value == frozenset(
            {Row(O0=Oid("Dept", 0), O1="P1"), Row(O0=Oid("Dept", 0), O1="P2")}
        )
        assert check_all(asr.constraints(), inst) == []

    def test_scalar_hop_path(self, rs_instance):
        # R.B --> S via equality on S.B
        asr = AccessSupportRelation(
            "ASR2", "R", (PathStep("B", target_extent="S"),)
        )
        # scalar hop binds s in S with r.B = s... requires oid-style equality;
        # here values are rows, equality hop: r.B = s means s must BE the B
        # value, which is not a row — use the attr form instead.
        definition = asr.definition()
        assert definition.binding_vars() == ("o0", "o1")

    def test_empty_path_rejected(self):
        with pytest.raises(ConstraintError):
            AccessSupportRelation("A", "depts", ()).definition()


class TestHashTable:
    def test_build_matches_secondary_index(self, rs_instance):
        ht = HashTable("H", "S", "B")
        table = ht.build(rs_instance)
        assert len(table[5]) == 2
        ht.install_transient(rs_instance)
        assert check_all(ht.constraints(), rs_instance) == []


class TestDictionaryHelpers:
    def test_dict_comprehension(self):
        d = dict_comprehension([1, 2], lambda k: k * 10)
        assert d[2] == 20

    def test_from_pairs_unique_conflict(self):
        from repro.errors import InstanceError

        with pytest.raises(InstanceError):
            from_pairs_unique([(1, "a"), (1, "b")])

    def test_from_pairs_grouped(self):
        d = from_pairs_grouped([(1, "a"), (1, "b"), (2, "c")])
        assert d[1] == frozenset({"a", "b"})

    def test_invert_unique(self):
        d = from_pairs_unique([(1, "a"), (2, "b")])
        assert invert_unique(d)["a"] == 1

    def test_index_rows(self):
        rows = [Row(A=1, B="x"), Row(A=1, B="y")]
        idx = index_rows(rows, "A")
        assert len(idx[1]) == 2
