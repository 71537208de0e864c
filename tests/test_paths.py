"""Unit tests for path expressions."""

import copy
import pickle

import pytest

from repro.query import paths as P
from repro.query.parser import parse_query
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
)


class TestConstructionAndInterning:
    def test_interning_identity(self):
        assert Var("x") is Var("x")
        assert Attr(Var("x"), "A") is Attr(Var("x"), "A")
        assert Lookup(SName("M"), Var("k")) is Lookup(SName("M"), Var("k"))

    def test_distinct_kinds_not_equal(self):
        assert Var("R") != SName("R")
        assert Const(1) != Const(True)  # bool/int distinction

    def test_rendering(self):
        path = Attr(Lookup(SName("Dept"), Var("d")), "DName")
        assert str(path) == "Dept[d].DName"
        assert str(Dom(SName("I"))) == "dom(I)"
        assert str(NFLookup(SName("SI"), Const("CitiBank"))) == 'SI{"CitiBank"}'
        assert str(Const("x")) == '"x"'
        assert str(Const(5)) == "5"


#: one node of each of the eight classes
ONE_OF_EACH = (
    Var("x"),
    Const("CitiBank"),
    Param("p"),
    SName("R"),
    Attr(Var("x"), "A"),
    Dom(SName("I")),
    Lookup(SName("I"), Attr(Var("x"), "A")),
    NFLookup(SName("SI"), Const(1)),
)


class TestIdentity:
    """Interned nodes hash and compare by identity, and stay themselves
    through a pickle or a copy."""

    def test_the_eight_classes_are_covered(self):
        assert {type(p) for p in ONE_OF_EACH} == set(Path.__subclasses__())

    @pytest.mark.parametrize("path", ONE_OF_EACH, ids=str)
    def test_round_trips_yield_the_interned_node(self, path):
        assert pickle.loads(pickle.dumps(path)) is path
        assert copy.deepcopy(path) is path
        assert copy.copy(path) is path

    @pytest.mark.parametrize("path", ONE_OF_EACH, ids=str)
    def test_hash_and_equality_are_object_s(self, path):
        assert hash(path) == object.__hash__(path)
        assert type(path).__hash__ is object.__hash__
        assert type(path).__eq__ is object.__eq__

    def test_normalized_constants_round_trip_to_one_node(self):
        assert Const(1.0) is Const(1)
        assert pickle.loads(pickle.dumps(Const(1.0))) is Const(1)
        assert pickle.loads(pickle.dumps(Const(True))) is not Const(1)

    def test_a_deep_copied_query_shares_its_paths(self):
        query = parse_query(
            "select struct(A = r.A) from R r, dom(I) k, I[k] t "
            "where t = r and r.B = 1"
        )
        key = query.canonical_key()
        twin = copy.deepcopy(query)
        assert twin is not query and twin == query
        assert twin.canonical_key() == key
        assert all(a is b for a, b in zip(twin.all_terms(), query.all_terms()))


class TestStructure:
    def test_children_and_rebuild(self):
        path = Lookup(SName("M"), Var("k"))
        kids = P.children(path)
        assert kids == (SName("M"), Var("k"))
        rebuilt = P.rebuild(path, (SName("N"), Var("k")))
        assert rebuilt == Lookup(SName("N"), Var("k"))

    def test_subterms_postorder(self):
        path = Attr(Var("x"), "A")
        assert list(P.subterms(path)) == [Var("x"), path]

    def test_free_vars(self):
        path = Lookup(SName("M"), Attr(Var("k"), "A"))
        assert P.free_vars(path) == frozenset({"k"})
        assert P.free_vars(SName("R")) == frozenset()

    def test_schema_names(self):
        path = Lookup(SName("M"), Attr(Var("k"), "A"))
        assert P.schema_names(path) == frozenset({"M"})

    def test_size_and_depth(self):
        path = Attr(Attr(Var("x"), "A"), "B")
        assert P.size(path) == 3
        assert P.depth(path) == 3

    def test_count_probes(self):
        nested = Lookup(SName("M"), Attr(NFLookup(SName("N"), Var("k")), "A"))
        assert P.count_probes(nested) == 2
        assert P.count_probes(Attr(Var("x"), "A")) == 0


class TestSubstitute:
    def test_substitute_var(self):
        path = Attr(Var("x"), "A")
        result = P.substitute(path, {"x": Var("y")})
        assert result == Attr(Var("y"), "A")

    def test_substitute_no_hit_returns_same_object(self):
        path = Attr(Var("x"), "A")
        assert P.substitute(path, {"z": Var("y")}) is path

    def test_substitute_into_lookup_key(self):
        path = Lookup(SName("M"), Var("k"))
        result = P.substitute(path, {"k": Const(5)})
        assert result == Lookup(SName("M"), Const(5))

    def test_substitute_with_composite(self):
        path = Attr(Var("x"), "A")
        result = P.substitute(path, {"x": Lookup(SName("D"), Var("o"))})
        assert str(result) == "D[o].A"


class TestTransform:
    def test_transform_bottom_up(self):
        path = Attr(Var("x"), "A")

        def rename(p: Path) -> Path:
            if isinstance(p, Var):
                return Var(p.name.upper())
            return p

        assert P.transform(path, rename) == Attr(Var("X"), "A")

    def test_mentions_var(self):
        assert P.mentions_var(Attr(Var("x"), "A"), "x")
        assert not P.mentions_var(SName("R"), "x")


class TestOrdering:
    def test_sort_key_smaller_terms_first(self):
        small = Var("z")
        big = Attr(Attr(Var("a"), "X"), "Y")
        assert sorted([big, small], key=P.path_sort_key)[0] is small

    def test_convenience_constructors(self):
        assert P.A(P.V("x"), "A", "B") == Attr(Attr(Var("x"), "A"), "B")
        assert P.N("R") == SName("R")
        assert P.C(1) == Const(1)
