"""Parameterized query templates (``$x`` markers) end to end.

Covers the whole binding-marker stack of this PR: tokenizer/parser
support and literal normalization, the :class:`~repro.query.paths.Param`
leaf and its canonical/template keying, ``bind_params`` and its errors,
unbound-parameter guards at every execution entry point, the
:class:`~repro.api.database.PreparedQuery` template path (one plan-cache
miss serving many bindings, with counters proving it), the
selectivity-skew replan guard, per-binding semantic-cache entries, the
``line:column`` syntax-error rendering, and a property test pinning
``prepare(template).run(**b)`` ≡ cold execution across randomized
bindings and mid-sequence mutations.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SERVING_MIXES, recording
from repro import (
    CacheConfig,
    Database,
    Instance,
    Param,
    ParameterBindingError,
    QuerySyntaxError,
    ReproError,
    Row,
    evaluate,
    parse_query,
)
from repro.api import database as database_module
from repro.errors import QueryExecutionError
from repro.exec.compile import compile_plan
from repro.exec.engine import execute
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics
from repro.physical.indexes import SecondaryIndex
from repro.query import paths as P
from repro.query.ast import PCQuery


def rs_database(**kwargs) -> Database:
    return Database.from_workload(
        "rs", n_r=60, n_s=60, b_values=30, seed=5, **kwargs
    )


TEMPLATE_C = (
    "select struct(A = r.A, C = s.C) "
    "from R r, S s where r.B = s.B and s.C = $c"
)


# -- literal normalization (satellite: parser.py Const coercion) --------------


class TestLiteralNormalization:
    def test_whole_float_and_int_are_one_const(self):
        assert P.Const(1.0) is P.Const(1)
        assert type(P.Const(1.0).value) is int
        assert P.Const(1.5) is not P.Const(1)

    def test_bools_stay_distinct_from_ints(self):
        assert P.Const(True) is not P.Const(1)
        assert P.Const(False) is not P.Const(0)

    def test_parsed_queries_share_canonical_keys(self):
        q_int = parse_query("select r.A from R r where r.A = 1")
        q_float = parse_query("select r.A from R r where r.A = 1.0")
        assert q_int.canonical_key() == q_float.canonical_key()
        q_frac = parse_query("select r.A from R r where r.A = 1.5")
        assert q_frac.canonical_key() != q_int.canonical_key()

    def test_negative_literals_parse(self):
        query = parse_query("select r.A from R r where r.A = -2 and r.B = -1.5")
        consts = [
            term.value
            for path in query.all_paths()
            for term in P.subterms(path)
            if isinstance(term, P.Const)
        ]
        assert -2 in consts and -1.5 in consts

    def test_normalized_literal_evaluates(self):
        instance = Instance({"R": frozenset({Row(A=1, B=2)})})
        q_float = parse_query("select r.A from R r where r.A = 1.0")
        assert evaluate(q_float, instance) == frozenset({1})


# -- syntax errors carry line:column + caret (satellite) ----------------------


class TestSyntaxErrorLocation:
    def test_line_column_and_caret(self):
        text = "select struct(A = r.A)\nfrom R r\nwhere r.A = = 2"
        with pytest.raises(QuerySyntaxError) as exc_info:
            parse_query(text)
        err = exc_info.value
        assert err.line == 3
        assert err.column >= 1
        rendered = str(err)
        assert f"{err.line}:{err.column}:" in rendered
        assert "where r.A = = 2" in rendered
        assert "^" in rendered
        # the caret points inside the offending line
        caret_line = rendered.splitlines()[-1]
        assert caret_line.strip() == "^"

    def test_raw_offset_preserved(self):
        with pytest.raises(QuerySyntaxError) as exc_info:
            parse_query("select ?? from R r")
        assert exc_info.value.position >= 0

    def test_errors_without_source_render_plain(self):
        err = QuerySyntaxError("boom", position=3)
        assert str(err) == "boom"
        err.with_source("0123456")
        assert str(err).startswith("1:4: boom")


# -- Param leaves and template keys -------------------------------------------


class TestParamAst:
    def test_parse_and_intern(self):
        query = parse_query(TEMPLATE_C)
        assert query.has_params()
        assert query.param_names() == ("c",)
        assert Param("c") is Param("c")
        assert str(Param("c")) == "$c"

    def test_duplicate_markers_unify(self):
        query = parse_query(
            "select struct(A = r.A) from R r, S s "
            "where r.A = $x and s.C = $x and r.B = s.B"
        )
        assert query.param_names() == ("x",)

    def test_template_key_is_alpha_invariant(self):
        q_x = parse_query("select r.A from R r where r.A = $x")
        q_y = parse_query("select r.A from R r where r.A = $y")
        assert q_x.template_key() == q_y.template_key()
        assert q_x.canonical_key() != q_y.canonical_key()

    def test_shared_marker_and_distinct_markers_differ(self):
        q_shared = parse_query(
            "select struct(A = r.A) from R r, S s "
            "where r.A = $x and s.C = $x and r.B = s.B"
        )
        q_distinct = parse_query(
            "select struct(A = r.A) from R r, S s "
            "where r.A = $x and s.C = $y and r.B = s.B"
        )
        assert q_shared.template_key() != q_distinct.template_key()

    def test_template_key_of_plain_query_is_canonical_key(self):
        query = parse_query("select r.A from R r where r.A = 1")
        assert query.template_key() == query.canonical_key()

    def test_param_may_collide_with_variable_name(self):
        query = parse_query("select struct(A = x.A) from R x where x.A = $x")
        assert query.param_names() == ("x",)
        bound = query.bind_params({"x": 7})
        assert not bound.has_params()
        instance = Instance({"R": frozenset({Row(A=7), Row(A=8)})})
        assert evaluate(bound, instance) == frozenset({Row(A=7)})

    def test_param_in_output_clause(self):
        query = parse_query(
            "select struct(A = r.A, Tag = $tag) from R r where r.B = $b"
        )
        # first-occurrence order walks bindings, then conditions, then output
        assert query.param_names() == ("b", "tag")
        bound = query.bind_params({"tag": "hit", "b": 2})
        instance = Instance({"R": frozenset({Row(A=1, B=2), Row(A=3, B=4)})})
        results = evaluate(bound, instance)
        assert results == frozenset({Row(A=1, Tag="hit")})


class TestBindParams:
    def test_binds_constants(self):
        query = parse_query(TEMPLATE_C)
        bound = query.bind_params({"c": 3})
        assert not bound.has_params()
        assert bound.canonical_key() == parse_query(
            TEMPLATE_C.replace("$c", "3")
        ).canonical_key()

    def test_missing_binding_raises(self):
        query = parse_query(TEMPLATE_C)
        with pytest.raises(ParameterBindingError, match=r"unbound.*\$c"):
            query.bind_params({})

    def test_unknown_binding_raises(self):
        query = parse_query(TEMPLATE_C)
        with pytest.raises(ParameterBindingError, match=r"unknown.*\$d"):
            query.bind_params({"c": 1, "d": 2})

    def test_unbound_param_refuses_to_evaluate(self):
        query = parse_query(TEMPLATE_C)
        instance = Instance(
            {"R": frozenset({Row(A=1, B=2)}), "S": frozenset({Row(B=2, C=3)})}
        )
        with pytest.raises(QueryExecutionError, match=r"unbound parameter \$c"):
            evaluate(query, instance)


# -- canonicalization pins (satellite 3: binding-order sensitivity) -----------


class TestCanonicalBindingOrderPin:
    def test_from_clause_order_changes_the_canonical_key(self):
        """Pinned limitation (see ROADMAP § Parameterized templates):
        ``canonical()`` renames variables by binding order, so permuting
        the from clause changes the canonical key and such variants do
        not share plan-cache entries.  This test documents the current
        behavior; making canonicalization order-insensitive would have to
        preserve chase/containment semantics and the golden plans."""

        q_rs = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B"
        )
        q_sr = parse_query(
            "select struct(A = r.A) from S s, R r where r.B = s.B"
        )
        assert q_rs.canonical_key() != q_sr.canonical_key()
        # semantically they are the same query: same answers everywhere
        instance = Instance(
            {"R": frozenset({Row(A=1, B=2)}), "S": frozenset({Row(B=2, C=3)})}
        )
        assert evaluate(q_rs, instance) == evaluate(q_sr, instance)


# -- the PreparedQuery template path ------------------------------------------


class TestPreparedTemplates:
    def test_one_miss_serves_many_bindings(self):
        db = rs_database()
        template = parse_query(TEMPLATE_C)
        prepared = db.prepare(template)
        assert prepared.params == ("c",)

        bindings = [3, 7, 11, 3]
        for c in bindings:
            got = prepared.run(c=c).results
            cold = evaluate(template.bind_params({"c": c}), db.instance)
            assert got == cold
        info = db.plan_cache_info()
        assert info.misses == 1  # the eager prepare, and nothing else
        assert info.hits == len(bindings)  # every run() probed and hit
        db.close()

    def test_alpha_variant_templates_share_the_entry(self):
        db = rs_database()
        prepared_c = db.prepare(parse_query(TEMPLATE_C))
        prepared_z = db.prepare(parse_query(TEMPLATE_C.replace("$c", "$z")))
        assert db.plan_cache_info().misses == 1
        assert prepared_c.run(c=3).results == prepared_z.run(z=3).results
        db.close()

    def test_run_validates_binding_names(self):
        db = rs_database()
        prepared = db.prepare(parse_query(TEMPLATE_C))
        with pytest.raises(ParameterBindingError, match=r"unbound.*\$c"):
            prepared.run()
        with pytest.raises(ParameterBindingError, match=r"unknown.*\$d"):
            prepared.run(c=1, d=2)
        plain = db.prepare(parse_query("select r.A from R r where r.A = 1"))
        with pytest.raises(ParameterBindingError, match="no .-markers"):
            plain.run(c=1)
        db.close()

    def test_execute_routes_params_and_guards_templates(self):
        db = rs_database()
        template = parse_query(TEMPLATE_C)
        got = db.execute(template, params={"c": 3}).results
        assert got == evaluate(template.bind_params({"c": 3}), db.instance)
        with pytest.raises(ParameterBindingError, match=r"unbound.*\$c"):
            db.execute(template)
        with pytest.raises(ParameterBindingError, match=r"unbound"):
            db.execute_plan(db.optimize(template).best)
        db.close()

    def test_mutation_reoptimizes_then_serves_fresh_answers(self):
        db = rs_database()
        template = parse_query(TEMPLATE_C)
        prepared = db.prepare(template)
        before = prepared.run(c=3).results
        assert before == evaluate(template.bind_params({"c": 3}), db.instance)

        # grow S mid-sequence: the entry drops, the next run re-optimizes
        new_s = frozenset(set(db.instance["S"]) | {Row(B=0, C=3)})
        db.instance["S"] = new_s
        after = prepared.run(c=3).results
        assert after == evaluate(template.bind_params({"c": 3}), db.instance)
        assert db.plan_cache_info().misses == 2  # prepare + post-mutation
        db.close()

    def test_only_constant_bindings_skip_the_unbound_marker_walk(self):
        """Binding every declared marker to a constant leaves none to
        look for; a marker bound to a marker is a path binding, refused
        by the binding check before anything runs."""

        db = rs_database()
        prepared = db.prepare(parse_query(TEMPLATE_C))
        with recording(PCQuery, "has_params") as walks:
            plain = prepared.run(c=3).results
            assert prepared.run(c=P.Const(3)).results == plain
        assert walks == []
        with pytest.raises(ParameterBindingError, match=r"\$c is bound to the path \$d"):
            prepared.run(c=Param("d"))
        db.close()

    def test_explain_keeps_the_markers(self):
        db = rs_database()
        prepared = db.prepare(parse_query(TEMPLATE_C))
        assert "$c" in prepared.explain()
        db.close()


# -- the parsed-text memo shares queries, never answers --------------------------


class TestParsedTextMemoHoldsNoData:
    def test_same_text_after_a_mutation_reads_the_new_extent(self):
        """Invalidation stays the plan cache's and the semantic cache's:
        the memo hands every front door the same query object before and
        after a write, and each answers from the new extent."""

        instance = Instance(
            {"S": frozenset(Row(B=i % 4, C=i) for i in range(8))}
        )
        db = Database(instance=instance)
        template = "select struct(C = s.C) from S s where s.B = $b"
        text = "select struct(C = s.C) from S s where s.B = 3"
        prepared = db.prepare(template)
        session = db.session(hybrid=True)
        query = parse_query(text)

        def answers():
            assert parse_query(text) is query
            return (
                db.execute(template, params={"b": 3}).results,
                prepared.run(b=3).results,
                session.run(parse_query(text)).results,
            )

        before = evaluate(query, instance)
        assert answers() == (before,) * 3
        assert session.run(parse_query(text)).source == "exact"
        instance["S"] = frozenset({Row(B=3, C=41), Row(B=4, C=2)})
        after = evaluate(query, instance)
        assert after != before
        assert answers() == (after,) * 3
        session.close()
        db.close()


# -- template mixes: one plan per shape (formerly benchmark E17) ---------------

#: the repeated mixes with their constants turned into ``$`` markers; each
#: template comes with the i-th binding of its marker
MIX_TEMPLATES = {
    "e5_rs": [
        (
            "select struct(A = r.A, C = s.C) "
            "from R r, S s where r.B = s.B and s.C = $c",
            lambda i: {"c": 3 + i},
        ),
        (
            "select struct(B = s.B, C = s.C) "
            "from R r, S s where r.B = s.B and r.A = $a",
            lambda i: {"a": 11 + i},
        ),
    ],
    "e1_projdept": [
        (
            "select struct(PN = p.PName, PB = p.Budg) "
            "from Proj p where p.CustName = $cust",
            lambda i: {"cust": f"Customer{1 + i}"},
        ),
        (
            "select struct(PN = p.PName, CN = p.CustName) "
            "from Proj p where p.PName = $pn",
            lambda i: {"pn": f"P{i}_0"},
        ),
    ],
}


@pytest.mark.parametrize("mix", sorted(MIX_TEMPLATES))
def test_template_mix_plans_each_shape_once_and_never_again(mix, monkeypatch):
    """Why a template request is fast: every binding of a shape — distinct
    constants back to back, the worst case for exact-match caching — is a
    plan-cache hit on the one entry its ``prepare`` planned; the optimizer
    is never entered again.  (How fast: ``steady_templates`` in
    ``benchmarks/perf``, whose harness rejects a run with a plan-cache miss
    or an ``optimize`` call in the timed region.)  The skew guard is off
    (an infinite band holds every ratio) so the count is exact: a skewed
    binding would legitimately add a variant entry; ``TestSkewGuard``
    covers it."""

    monkeypatch.setattr(database_module, "SKEW_REPLAN_RATIO", math.inf)
    workload, params, _ = SERVING_MIXES[mix]
    db = Database.from_workload(workload, **params)
    templates = [parse_query(text) for text, _ in MIX_TEMPLATES[mix]]
    prepared = [db.prepare(template) for template in templates]
    requests = [
        (t, make(i))
        for i in range(3)
        for t, (_, make) in enumerate(MIX_TEMPLATES[mix])
    ] * 2
    with recording(Optimizer, "optimize") as optimized:
        answers = [prepared[t].run(**binding).results for t, binding in requests]
    assert optimized == []
    info = db.plan_cache_info()
    assert (info.misses, info.hits) == (len(templates), len(requests))
    assert info.evictions == info.invalidations == 0
    assert answers == [
        evaluate(templates[t].bind_params(binding), db.instance)
        for t, binding in requests
    ]
    # the binding domains select rows, or equal answers prove nothing
    assert any(answers)
    db.close()


# -- the selectivity-skew guard -----------------------------------------------


def skewed_database() -> Database:
    """40 R rows: A=1 thirty times (the skewed value), A=2..11 once each.

    NDV(R.A) = 11, so the uniform estimate prices every binding at ~1/11
    of the extent; A=1 actually selects 75% (ratio ~8.25, over the
    band of ``SKEW_REPLAN_RATIO`` = 8) while A=2 selects 2.5% (ratio
    ~0.28, inside the band).
    """

    rows = {Row(A=1, N=i) for i in range(30)}
    rows |= {Row(A=a, N=100 + a) for a in range(2, 12)}
    return Database(instance=Instance({"R": frozenset(rows)}))


def unrecorded_ndv_database(heavy: int) -> Database:
    """40 R rows, ``heavy`` of them with A=1, under a catalog that records
    R's cardinality and no NDV: the cost model prices ``r.A = $x`` at
    ``DEFAULT_SELECTIVITY`` (0.1), not at ``1 / default_ndv`` (0.05)."""

    rows = {Row(A=1, N=i) for i in range(heavy)}
    rows |= {Row(A=2 + i, N=100 + i) for i in range(40 - heavy)}
    return Database(
        instance=Instance({"R": frozenset(rows)}),
        statistics=Statistics(cardinality={"R": 40}),
    )


SKEW_TEMPLATE = "select struct(N = r.N) from R r where r.A = $x"


class TestSkewGuard:
    def test_skewed_binding_gets_a_variant_entry(self):
        db = skewed_database()
        template = parse_query(SKEW_TEMPLATE)
        prepared = db.prepare(template)  # miss 1: the base template entry

        common = prepared.run(x=2).results  # in-band: base entry hit
        assert common == evaluate(template.bind_params({"x": 2}), db.instance)
        assert db.plan_cache_info().misses == 1

        skewed = prepared.run(x=1).results  # skewed: variant entry miss
        assert skewed == evaluate(template.bind_params({"x": 1}), db.instance)
        info = db.plan_cache_info()
        assert info.misses == 2
        assert info.size == 2  # base entry + one #skew: variant

        prepared.run(x=1)  # same skew bucket: the variant entry hits
        assert db.plan_cache_info().misses == 2
        db.close()

    @pytest.mark.parametrize("heavy, misses", [(20, 1), (36, 2)])
    def test_the_guard_reads_the_selectivity_the_plan_was_costed_with(
        self, heavy, misses
    ):
        """A=1 selecting 20 of 40 rows is 5× the 0.1 the plan was costed
        with: inside the band of 8, so the base entry serves it (against
        0.05 it would read 10× and replan).  36 of 40 is 9× (18× against
        0.05): a ``#skew:`` variant under either reading."""

        db = unrecorded_ndv_database(heavy)
        template = parse_query(SKEW_TEMPLATE)
        prepared = db.prepare(template)
        got = prepared.run(x=1).results
        assert got == evaluate(template.bind_params({"x": 1}), db.instance)
        assert db.plan_cache_info().misses == misses
        db.close()

    def test_the_band_is_a_constant_not_an_option(self):
        with pytest.raises(TypeError):
            CacheConfig(skew_replan_ratio=None)
        assert database_module.SKEW_REPLAN_RATIO == 8.0

    def test_a_write_is_read_by_the_next_binding(self):
        """The guard counts off the extent's own value index, and a write
        is a new extent: the next binding reads the new frequencies."""

        db = skewed_database()
        template = parse_query(SKEW_TEMPLATE)
        assert skew_tag(db, template, 1).startswith("#skew:")
        assert skew_tag(db, template, 5) is None
        # A=1..10 four times each: x=1 is ordinary now
        db.instance["R"] = frozenset(
            Row(A=a, N=10 * a + i) for a in range(1, 11) for i in range(4)
        )
        assert skew_tag(db, template, 1) is None
        # A=5 on 39 of 50 rows: x=5 is skewed now
        db.instance["R"] = frozenset(
            {Row(A=5, N=i) for i in range(39)}
            | {Row(A=a, N=100 + a) for a in range(6, 17)}
        )
        assert skew_tag(db, template, 5).startswith("#skew:")
        got = db.prepare(template).run(x=5).results
        assert got == evaluate(template.bind_params({"x": 5}), db.instance)
        db.close()

    def test_the_frequency_is_a_share_of_every_row(self):
        """18 of 40 rows carry A=None.  NDV(R.A) = 3 prices ``r.A = $x`` at
        1/3; A=2 selects 1 of the extent's 40 rows, 0.075 of that — a
        ``#skew:`` variant whose adjusted NDV is the cardinality, 40.
        (Counting only the 22 rows with a scalar A would read 0.136,
        inside the band.)"""

        rows = {Row(A=1, N=i) for i in range(20)}
        rows |= {Row(A=2, N=50), Row(A=3, N=51)}
        rows |= {Row(A=None, N=100 + i) for i in range(18)}
        db = Database(instance=Instance({"R": frozenset(rows)}))
        template = parse_query(SKEW_TEMPLATE)
        assert skew_tag(db, template, 1) is None
        tag, adjusted = db._skew_variant(template, ("x",), {"x": 2})
        assert tag == "#skew:p0.R.A@-4"
        assert adjusted.distinct("R", "A") == 40.0
        db.close()


def skew_tag(db: Database, template, x):
    """The ``#skew:`` tag binding ``$x`` to ``x`` routes to, or ``None``."""

    variant = db._skew_variant(template, ("x",), {"x": x})
    return variant[0] if variant is not None else None


# -- per-binding semantic-cache entries ---------------------------------------


class TestSessionTemplates:
    def test_exact_entries_are_keyed_per_binding(self):
        db = rs_database()
        session = db.session(hybrid=False)
        template = parse_query(TEMPLATE_C)

        first = session.run(template, params={"c": 3})
        assert first.source == "cold"
        repeat = session.run(template, params={"c": 3})
        assert repeat.source == "exact"
        assert repeat.results == first.results
        other = session.run(template, params={"c": 7})
        assert other.source != "exact"  # a different binding, its own entry
        assert other.results == evaluate(
            template.bind_params({"c": 7}), db.instance
        )
        session.close()
        db.close()

    def test_unbound_template_is_rejected(self):
        db = rs_database()
        session = db.session()
        with pytest.raises(ParameterBindingError, match=r"unbound.*\$c"):
            session.run(parse_query(TEMPLATE_C))
        session.close()
        db.close()

    @pytest.mark.parametrize(
        "params", ({}, {"a": 1, "b": 2}, {"a": P.Attr(P.Var("r"), "B")})
    )
    def test_a_binding_mistake_reads_the_same_everywhere(self, params):
        """One validator behind every entry point (the façade and the
        session used to word an unbound marker differently, and the
        engine ran past an unknown one).  A missing marker, an unknown
        one and a path bound in a value's place read the same at the
        façade, the session, the engine in either mode and a compiled
        artifact."""

        db = rs_database()
        session = db.session()
        template = parse_query("select struct(A = r.A) from R r where r.B = $a")
        calls = [
            lambda: db.execute(template, params=params),
            lambda: db.prepare(template).run(**params),
            lambda: session.run(template, params=params),
            lambda: template.bind_params(params),
            lambda: compile_plan(template).run(db.instance, params=params),
        ]
        calls += [
            lambda mode=mode: execute(template, db.instance, mode=mode, params=params)
            for mode in ("interpret", "compiled")
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ParameterBindingError) as caught:
                call()
            messages.add(str(caught.value))
        assert len(messages) == 1, messages
        session.close()
        db.close()

    @pytest.mark.parametrize("mode", ["interpret", "compiled"])
    def test_a_plan_that_dropped_a_marker_runs(self, mode):
        """An unsatisfiable template's plan need not keep its marker's
        condition; the engine checks the plan's own markers exactly, so
        the façade hands it those."""

        db = rs_database(exec_mode=mode)
        template = "select struct(B = r.B) from R r where r.B = 0 and r.B = 1 and r.A = $a"
        assert not db.optimize(template).best.query.param_names()
        assert db.execute(template, params={"a": 1}).results == frozenset()
        assert db.prepare(template).run(a=2).results == frozenset()
        db.close()

    def test_cache_register_rejects_templates(self):
        db = rs_database()
        session = db.session()
        rejected_before = session.cache.stats.rejected
        assert session.cache.register(parse_query(TEMPLATE_C)) is None
        assert session.cache.stats.rejected == rejected_before + 1
        session.close()
        db.close()


# -- property: prepared templates ≡ cold execution under mutation -------------


@st.composite
def binding_scripts(draw):
    """A small R/S instance (with a secondary index, so the backchase has
    real plan choices) plus a run/mutate script over one template."""

    def rows_r():
        return frozenset(
            Row(A=draw(st.integers(0, 3)), B=draw(st.integers(0, 3)))
            for _ in range(draw(st.integers(1, 8)))
        )

    r = rows_r()
    s = frozenset(
        Row(B=draw(st.integers(0, 3)), C=draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 8)))
    )
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("run"),
                    st.integers(0, 4),
                    st.integers(0, 4),
                ),
                st.tuples(st.just("mutate"), st.just(None), st.just(None)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    mutations = [rows_r() for _ in steps]
    return r, s, steps, mutations


@given(binding_scripts())
@settings(max_examples=25, deadline=None)
def test_prepared_template_matches_cold_execution(script):
    r, s, steps, mutations = script
    instance = Instance({"R": r, "S": s})
    index = SecondaryIndex("IRA", "R", "A")
    index.install(instance, None)
    db = Database(
        instance=instance,
        constraints=index.constraints(),
        physical_names=frozenset({"R", "S", "IRA"}),
    )
    template = parse_query(
        "select struct(A = r.A, C = s.C) from R r, S s "
        "where r.B = s.B and r.A = $a and s.C = $c"
    )
    prepared = db.prepare(template)
    for i, (op, a, c) in enumerate(steps):
        if op == "mutate":
            new_r = mutations[i]
            db.instance["R"] = new_r
            SecondaryIndex("IRA", "R", "A").install(db.instance, None)
        else:
            got = prepared.run(a=a, c=c).results
            cold = evaluate(
                template.bind_params({"a": a, "c": c}), db.instance
            )
            assert got == cold, (a, c)
    db.close()
