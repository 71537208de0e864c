"""Unit tests for the PC query AST."""

import pytest

from repro.errors import QueryValidationError
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput, fresh_var_namer
from repro.query.parser import parse_query
from repro.query.paths import Attr, Const, SName, Var


def q(text: str) -> PCQuery:
    return parse_query(text)


class TestValidation:
    def test_valid_query(self):
        query = q("select struct(A = r.A) from R r")
        query.validate()

    def test_duplicate_binding_var(self):
        query = PCQuery.make(
            Var("r"),
            [("r", SName("R")), ("r", SName("S"))],
        )
        with pytest.raises(QueryValidationError):
            query.validate()

    def test_forward_reference_rejected(self):
        query = PCQuery.make(
            Var("r"),
            [("s", Attr(Var("r"), "X")), ("r", SName("R"))],
        )
        with pytest.raises(QueryValidationError):
            query.validate()

    def test_unbound_output_var(self):
        query = PCQuery.make(Var("zzz"), [("r", SName("R"))])
        with pytest.raises(QueryValidationError):
            query.validate()

    def test_unbound_condition_var(self):
        query = PCQuery.make(
            Var("r"),
            [("r", SName("R"))],
            [(Var("r"), Var("nope"))],
        )
        with pytest.raises(QueryValidationError):
            query.validate()


class TestStructure:
    def test_binding_vars_and_lookup(self):
        query = q("select struct(A = r.A) from R r, S s where r.B = s.B")
        assert query.binding_vars() == ("r", "s")
        assert query.binding_of("s").source == SName("S")
        with pytest.raises(QueryValidationError):
            query.binding_of("zzz")

    def test_schema_names(self):
        query = q("select struct(A = r.A) from R r, dom(I) i where I[i] = r")
        assert query.schema_names() == frozenset({"R", "I"})

    def test_size(self):
        query = q("select struct(A = r.A) from R r, S s where r.B = s.B")
        assert query.size() == 3

    def test_condition_levels(self):
        query = q(
            "select struct(A = r.A) from R r, S s, T t "
            "where 1 = 1 and r.A = 5 and r.B = s.B and s.C = 7"
        )
        levels = query.condition_levels()
        assert [[str(c) for c in level] for level in levels] == [
            ["1 = 1"],
            ["r.A = 5"],
            ["r.B = s.B", "s.C = 7"],
            [],
        ]


class TestTransformations:
    def test_substitute(self):
        query = q("select struct(A = r.A) from R r where r.B = 5")
        result = query.substitute({"r": Var("x")})
        assert "x.A" in str(result)
        assert "x.B" in str(result)

    def test_rename_vars(self):
        query = q("select struct(A = r.A) from R r, S s where r.B = s.B")
        renamed = query.rename_vars({"r": "u"})
        assert renamed.binding_vars() == ("u", "s")
        assert "u.B = s.B" in str(renamed)

    def test_without_binding(self):
        query = q("select struct(A = r.A) from R r, S s")
        assert q("select struct(A = r.A) from R r, S s").without_binding(
            "s"
        ).binding_vars() == ("r",)

    def test_with_fresh_conditions_dedupes(self):
        query = q("select struct(A = r.A) from R r where r.B = 5")
        cond = Eq(Attr(Var("r"), "B"), Const(5))
        assert query.with_fresh_conditions([cond]) is query
        flipped = Eq(Const(5), Attr(Var("r"), "B"))
        assert query.with_fresh_conditions([flipped]) is query

    def test_with_bindings(self):
        query = q("select struct(A = r.A) from R r")
        extended = query.with_bindings([Binding("s", SName("S"))])
        assert extended.binding_vars() == ("r", "s")


class TestCanonicalization:
    def test_canonical_renames_by_order(self):
        a = q("select struct(A = r.A) from R r, S s where r.B = s.B")
        b = q("select struct(A = x.A) from R x, S y where y.B = x.B")
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_distinguishes_structure(self):
        a = q("select struct(A = r.A) from R r")
        b = q("select struct(A = r.A) from S r")
        assert a.canonical_key() != b.canonical_key()

    def test_canonical_key_cached(self):
        query = q("select struct(A = r.A) from R r")
        assert query.canonical_key() is query.canonical_key()


class TestOutputs:
    def test_struct_output_fields(self):
        out = StructOutput((("A", Var("x")),))
        assert out.paths() == (Var("x"),)
        assert "A = x" in str(out)

    def test_path_output(self):
        out = PathOutput(Attr(Var("x"), "C"))
        assert str(out) == "x.C"

    def test_make_from_tuples(self):
        query = PCQuery.make(
            [("A", Var("r"))],
            [("r", SName("R"))],
            [(Attr(Var("r"), "B"), Const(1))],
        )
        query.validate()
        assert isinstance(query.output, StructOutput)


class TestFreshNames:
    def test_fresh_var_namer_avoids_used(self):
        query = q("select struct(A = _x0.A) from R _x0")
        namer = fresh_var_namer(query)
        assert next(namer) == "_x1"
        assert next(namer) == "_x2"
