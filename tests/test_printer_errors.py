"""Tests for the pretty-printer and the error hierarchy."""

import pytest

from repro import errors
from repro.query.parser import parse_constraint, parse_query
from repro.query.printer import format_constraint, format_query


class TestFormatQuery:
    def test_multiline_sections(self):
        query = parse_query(
            "select struct(PN = s) from depts d, d.DProjs s, Proj p "
            "where s = p.PName"
        )
        text = format_query(query)
        assert text.startswith("select")
        assert "from" in text and "where" in text
        assert text.count("\n") >= 3

    def test_single_binding_from_inline(self):
        text = format_query(parse_query("select r.A from R r"))
        assert "from R r" in text

    def test_indent(self):
        text = format_query(parse_query("select r.A from R r"), indent=4)
        assert text.startswith("    select")

    def test_format_round_trips(self):
        query = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B and r.A = 1"
        )
        reparsed = parse_query(" ".join(format_query(query).split()))
        assert reparsed.canonical_key() == query.canonical_key()


class TestFormatConstraint:
    def test_tgd_rendering(self):
        dep = parse_constraint(
            "forall (p in Proj) -> exists (i in dom(I)) i = p.PName", "pi"
        )
        text = format_constraint(dep)
        assert text.startswith("forall (p in Proj)")
        assert "exists (i in dom(I))" in text

    def test_egd_rendering(self):
        dep = parse_constraint(
            "forall (x in R, y in R) where x.A = y.A -> x = y", "key"
        )
        text = format_constraint(dep)
        assert "where x.A = y.A" in text
        assert "exists" not in text

    def test_nonempty_renders_true(self):
        dep = parse_constraint(
            "forall (k in dom(SI)) -> exists (t in SI[k]) true", "ne"
        )
        assert format_constraint(dep).endswith("true")

    def test_constraint_round_trips(self):
        source = "forall (p in Proj) -> exists (i in dom(I)) i = p.PName and I[i] = p"
        dep = parse_constraint(source, "pi")
        reparsed = parse_constraint(format_constraint(dep), "pi")
        assert format_constraint(reparsed) == format_constraint(dep)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_syntax_error_position(self):
        err = errors.QuerySyntaxError("bad", position=7)
        assert err.position == 7

    def test_nontermination_carries_steps(self):
        err = errors.ChaseNonTermination("loop", steps=42)
        assert err.steps == 42

    def test_catch_all(self):
        from repro.query.parser import parse_query as pq

        with pytest.raises(errors.ReproError):
            pq("select")
