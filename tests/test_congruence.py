"""Unit tests for the congruence closure engine."""

from repro.chase.congruence import CongruenceClosure, build_congruence
from repro.query.parser import parse_path, parse_query
from repro.query.paths import Attr, Const, Dom, Lookup, SName, Var


def p(text, scope=None):
    return parse_path(text, scope=scope or set("defgkmopqrstuvxyz"))


class TestBasics:
    def test_reflexive(self):
        cc = CongruenceClosure()
        assert cc.equal(Var("x"), Var("x"))

    def test_merge_symmetric_transitive(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), Var("y"))
        cc.merge(Var("y"), Var("z"))
        assert cc.equal(Var("z"), Var("x"))

    def test_members(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), Var("y"))
        assert set(cc.members(Var("x"))) == {Var("x"), Var("y")}


class TestCongruenceRules:
    def test_attr_congruence(self):
        cc = CongruenceClosure()
        cc.add(p("x.A"))
        cc.add(p("y.A"))
        cc.merge(Var("x"), Var("y"))
        assert cc.equal(p("x.A"), p("y.A"))

    def test_attr_congruence_on_late_add(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), Var("y"))
        cc.add(p("x.A"))
        # y.A added after the merge must land in the same class
        assert cc.equal(p("y.A"), p("x.A"))

    def test_dom_congruence(self):
        cc = CongruenceClosure()
        cc.merge(Var("m"), SName("M"))
        assert cc.equal(Dom(Var("m")), Dom(SName("M")))

    def test_lookup_congruence_needs_both(self):
        cc = CongruenceClosure()
        cc.add(p("M[x]", scope={"x"}))
        cc.add(p("M[y]", scope={"y"}))
        assert not cc.equal(p("M[x]", {"x"}), p("M[y]", {"y"}))
        cc.merge(Var("x"), Var("y"))
        assert cc.equal(p("M[x]", {"x"}), p("M[y]", {"y"}))

    def test_nested_congruence_propagates(self):
        cc = CongruenceClosure()
        cc.add(p("x.A.B"))
        cc.add(p("y.A.B"))
        cc.merge(Var("x"), Var("y"))
        assert cc.equal(p("x.A.B"), p("y.A.B"))

    def test_record_equality_propagates_to_attrs(self):
        # I[i] = p implies I[i].Budg = p.Budg (used by PI constraints)
        cc = CongruenceClosure()
        cc.add(p("I[i].Budg"))
        cc.add(p("p.Budg"))
        cc.merge(p("I[i]"), Var("p"))
        assert cc.equal(p("I[i].Budg"), p("p.Budg"))


class TestConstants:
    def test_distinct_constants_inconsistent(self):
        cc = CongruenceClosure()
        cc.merge(Const(1), Var("x"))
        assert not cc.inconsistent
        cc.merge(Var("x"), Const(2))
        assert cc.inconsistent

    def test_same_constant_fine(self):
        cc = CongruenceClosure()
        cc.merge(Const("a"), Var("x"))
        cc.merge(Var("x"), Const("a"))
        assert not cc.inconsistent

    def test_constant_of(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), Const(7))
        assert cc.constant_of(Var("x")) == Const(7)
        assert cc.constant_of(Var("unrelated")) is None


class TestQueryCongruence:
    def test_build_congruence_applies_conditions(self):
        query = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B"
        )
        cc = build_congruence(query)
        assert cc.equal(p("r.B"), p("s.B"))

    def test_conditions_imply(self):
        query = parse_query(
            "select struct(A = r.A) from R r, S s, T t "
            "where r.B = s.B and s.B = t.B"
        )
        assert build_congruence(query).equal(p("r.B"), p("t.B"))
        assert not build_congruence(query).equal(p("r.A", {"r"}), p("t.B"))


class TestEquivalentAvoiding:
    def test_direct_member(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), p("s.B"))
        result = cc.equivalent_avoiding(Var("x"), frozenset({"x"}))
        assert result == p("s.B")

    def test_rebuild_composite(self):
        # x = y known; need x.A without x: rebuilds y.A
        cc = CongruenceClosure()
        cc.merge(Var("x"), Var("y"))
        cc.add(p("x.A"))
        result = cc.equivalent_avoiding(p("x.A"), frozenset({"x"}))
        assert result == p("y.A")

    def test_unavoidable_returns_none(self):
        cc = CongruenceClosure()
        cc.add(p("x.A"))
        assert cc.equivalent_avoiding(p("x.A"), frozenset({"x"})) is None

    def test_already_free(self):
        cc = CongruenceClosure()
        term = p("s.B")
        assert cc.equivalent_avoiding(term, frozenset({"x"})) is term

    def test_lookup_key_rewrite(self):
        # k = "CitiBank" known: SI[k] rewrites to SI["CitiBank"]
        cc = CongruenceClosure()
        cc.merge(Var("k"), Const("CitiBank"))
        cc.add(Lookup(SName("SI"), Var("k")))
        result = cc.equivalent_avoiding(
            Lookup(SName("SI"), Var("k")), frozenset({"k"})
        )
        assert result == Lookup(SName("SI"), Const("CitiBank"))


class TestClasses:
    def test_classes_partition_terms(self):
        cc = CongruenceClosure()
        cc.merge(Var("x"), Var("y"))
        cc.add(Var("z"))
        classes = cc.classes()
        assert sorted(len(c) for c in classes) == [1, 2]
