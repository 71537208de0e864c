"""Unit tests for the OQL-ish parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.lru import LRU
from repro.query import parser as parser_module
from repro.query.ast import StructOutput
from repro.query.parser import (
    parse_cache_info,
    parse_constraint,
    parse_path,
    parse_query,
)
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    SName,
    Var,
)


class TestQueryParsing:
    def test_paper_query(self):
        query = parse_query(
            'select struct(PN = s, PB = p.Budg, DN = d.DName) '
            'from depts d, d.DProjs s, Proj p '
            'where s = p.PName and p.CustName = "CitiBank"'
        )
        assert query.binding_vars() == ("d", "s", "p")
        assert query.binding_of("s").source == Attr(Var("d"), "DProjs")
        assert len(query.conditions) == 2
        assert isinstance(query.output, StructOutput)

    def test_in_binding_style(self):
        a = parse_query("select struct(A = p.A) from p in Proj")
        b = parse_query("select struct(A = p.A) from Proj p")
        assert a.canonical_key() == b.canonical_key()

    def test_path_output(self):
        query = parse_query("select r.C from R r")
        assert str(query.output) == "r.C"

    def test_dom_and_lookup(self):
        query = parse_query(
            "select struct(A = t.A) from dom(SI) k, SI[k] t where k = 5"
        )
        assert query.binding_of("k").source == Dom(SName("SI"))
        assert query.binding_of("t").source == Lookup(SName("SI"), Var("k"))

    def test_nonfailing_lookup(self):
        query = parse_query('select struct(A = t.A) from SI{"x"} t')
        assert query.binding_of("t").source == NFLookup(SName("SI"), Const("x"))

    def test_constants(self):
        query = parse_query(
            'select struct(A = r.A) from R r '
            'where r.S = "str" and r.I = 42 and r.F = 4.5 and r.B = true'
        )
        consts = {c.right.value for c in query.conditions if isinstance(c.right, Const)}
        assert consts == {"str", 42, 4.5, True}

    def test_select_referencing_later_bindings(self):
        # The output mentions variables bound in the from clause.
        query = parse_query("select struct(X = s.B) from R r, S s")
        assert "s.B" in str(query.output)

    def test_distinct_keyword_accepted(self):
        query = parse_query("select distinct struct(A = r.A) from R r")
        assert query.binding_vars() == ("r",)


class TestQueryErrors:
    def test_missing_from(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("select struct(A = x.A)")

    def test_duplicate_variable(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("select struct(A = r.A) from R r, S r")

    def test_garbage_trailing(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("select struct(A = r.A) from R r banana loose")

    def test_bad_character(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("select struct(A = r.A) from R r where r.A = @")

    def test_unclosed_bracket(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("select struct(A = t.A) from dom(SI k, SI[k] t")


class TestParsedTextMemo:
    """``parse_query`` remembers text -> query in one bounded LRU."""

    def test_a_repeated_text_is_one_object(self):
        text = "select struct(A = r.A) from R r where r.B = $b"
        assert parse_query(text) is parse_query(text)
        # keys are the text as given: whitespace is the template key's job
        spaced = parse_query(text.replace(" from ", "  from "))
        assert spaced is not parse_query(text)
        assert spaced.template_key() == parse_query(text).template_key()

    def test_the_oldest_text_is_evicted_and_reparses_equal(self, monkeypatch):
        bound = parser_module._PARSED.max_size
        monkeypatch.setattr(parser_module, "_PARSED", LRU(max_size=bound))
        texts = [
            f"select r.A from R r where r.B = $b and r.A = {i}"
            for i in range(bound + 1)
        ]
        first = parse_query(texts[0])
        keys = first.canonical_key(), first.template_key()
        for text in texts[1:]:
            parse_query(text)
        info = parse_cache_info()
        assert (info.size, info.evictions) == (bound, 1)
        assert texts[0] not in parser_module._PARSED
        again = parse_query(texts[0])
        assert again is not first and again == first
        assert (again.canonical_key(), again.template_key()) == keys

    def test_a_malformed_text_raises_every_time_and_is_not_stored(self):
        text = "select struct(A = r.A)\nfrom R r where r.A = @"
        size = parse_cache_info().size
        for _ in range(2):
            with pytest.raises(QuerySyntaxError) as caught:
                parse_query(text)
            assert caught.value.source == text
            assert caught.value.position == text.index("@")
            assert (caught.value.line, caught.value.column) == (2, 22)
        assert parse_cache_info().size == size

    def test_an_oversized_text_is_parsed_and_not_retained(self):
        # the envelope: 512 hostile megabyte texts must not pin half a
        # gigabyte, so a source past the fixed length is never a key
        limit = parser_module._MAX_REMEMBERED_SOURCE
        short = "select r.A from R r where r.B = 1"
        text = short + " " * (limit + 1 - len(short))
        size = parse_cache_info().size
        query = parse_query(text)
        assert query == parse_query(short)
        assert parse_cache_info().size <= size + 1  # `short` alone, at most
        assert text not in parser_module._PARSED
        assert parse_query(text) is not query
        assert parse_query(text[:limit]) is parse_query(text[:limit])


class TestPathParsing:
    def test_parse_path_with_scope(self):
        path = parse_path("Dept[d].DName", scope={"d"})
        assert path == Attr(Lookup(SName("Dept"), Var("d")), "DName")

    def test_parse_path_without_scope_makes_snames(self):
        path = parse_path("R.A")
        assert path == Attr(SName("R"), "A")

    def test_parenthesized(self):
        assert parse_path("(R).A") == Attr(SName("R"), "A")


class TestConstraintParsing:
    def test_tgd(self):
        dep = parse_constraint(
            "forall (p in Proj) -> exists (i in dom(I)) i = p.PName and I[i] = p",
            "PI1",
        )
        assert dep.name == "PI1"
        assert dep.is_tgd()
        assert len(dep.conclusion_conditions) == 2

    def test_egd(self):
        dep = parse_constraint(
            "forall (d in depts, d2 in depts) where d.DName = d2.DName -> d = d2",
            "KEY",
        )
        assert dep.is_egd()
        assert len(dep.premise_conditions) == 1

    def test_nonemptiness(self):
        dep = parse_constraint(
            "forall (k in dom(SI)) -> exists (t in SI[k]) true", "SI3"
        )
        assert dep.is_tgd()
        assert dep.conclusion_conditions == ()

    def test_conclusion_where_optional(self):
        a = parse_constraint("forall (r in R) -> exists (v in V) v.A = r.A")
        b = parse_constraint("forall (r in R) -> exists (v in V) where v.A = r.A")
        assert a.conclusion_conditions == b.conclusion_conditions

    def test_missing_arrow(self):
        with pytest.raises(QuerySyntaxError):
            parse_constraint("forall (r in R) exists (v in V) v.A = r.A")


class TestRoundTrip:
    def test_query_str_reparses(self):
        text = (
            "select struct(PN = s, PB = p.Budg) from depts d, d.DProjs s, Proj p "
            'where s = p.PName and p.CustName = "CitiBank"'
        )
        query = parse_query(text)
        again = parse_query(str(query))
        assert again.canonical_key() == query.canonical_key()

    def test_plan_with_nflookup_reparses(self):
        text = 'select struct(PN = p.PName) from SI{"CitiBank"} p'
        query = parse_query(text)
        assert parse_query(str(query)).canonical_key() == query.canonical_key()
