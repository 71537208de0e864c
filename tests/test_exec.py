"""Unit tests for the execution engine (operators, planner, engine)."""

import pytest

from repro.errors import QueryExecutionError
from repro.exec.engine import execute, explain
from repro.exec.operators import (
    Counters,
    Filter,
    Project,
    ScanBind,
    Singleton,
    chain,
)
from repro.exec.planner import compile_query
from repro.model.instance import Instance
from repro.model.values import DictValue, Row
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.paths import Attr, SName, Var


def q(text):
    return parse_query(text)


JOIN = "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"


@pytest.fixture
def instance():
    return Instance(
        {
            "R": frozenset({Row(A=1, B=10), Row(A=2, B=20), Row(A=3, B=10)}),
            "S": frozenset({Row(B=10, C="x"), Row(B=20, C="y"), Row(B=30, C="z")}),
            "IS": DictValue(
                {
                    10: frozenset({Row(B=10, C="x")}),
                    20: frozenset({Row(B=20, C="y")}),
                    30: frozenset({Row(B=30, C="z")}),
                }
            ),
        }
    )


class TestOperators:
    def test_scan_counts_tuples(self, instance):
        counters = Counters()
        op = ScanBind(Singleton(counters), "r", SName("R"), counters)
        rows = list(op.rows(instance))
        assert len(rows) == 3
        assert counters.tuples == 3

    def test_filter_counts(self, instance):
        counters = Counters()
        plan = compile_query(q("select r.A from R r where r.B = 10"), counters)
        results = frozenset(plan.results(instance))
        assert results == frozenset({1, 3})
        assert counters.filtered == 1

    def test_nested_scan_join(self, instance):
        # index-nested-loop: S is scanned once per R row, the join
        # condition filters the pairs
        counters = Counters()
        plan = compile_query(q(JOIN), counters)
        results = frozenset(plan.results(instance))
        assert len(results) == 3  # each R row finds exactly one partner
        assert counters.tuples == 3 + 3 * 3
        assert counters.filtered == 3 * 3 - 3


class TestPlanner:
    def test_pipeline_explain(self):
        text = explain(q("select struct(A = r.A) from R r, S s where r.B = s.B"))
        assert "scan R as r" in text
        assert "filter" in text

    def test_equi_join_is_a_nested_scan(self):
        plan = compile_query(q(JOIN))
        assert [type(op) for op in chain(plan)] == [
            Singleton, ScanBind, ScanBind, Filter, Project
        ]
        text = plan.explain()
        assert "scan S as s" in text
        assert "filter r.B = s.B" in text

    def test_dependent_scan_is_a_scan(self):
        text = explain(q("select struct(X = m) from depts d, d.DProjs m"))
        assert "scan d.DProjs as m" in text

    def test_index_scan_compiles(self):
        text = explain(q('select struct(C = t.C) from IS{10} t'))
        assert "scan IS{10} as t" in text


class TestEngine:
    def test_agrees_with_reference(self, instance):
        queries = [
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
            "select r.A from R r where r.B = 10",
            "select struct(C = t.C) from dom(IS) k, IS[k] t where k = 10",
            "select struct(C = t.C) from IS{10} t",
            "select struct(C = t.C) from IS{999} t",
        ]
        for text in queries:
            query = q(text)
            assert execute(query, instance).results == evaluate(query, instance)

    def test_equi_join_agrees_across_executors(self, instance):
        query = q(JOIN)
        interpreted = execute(query, instance, mode="interpret")
        compiled = execute(query, instance, mode="compiled")
        assert compiled.mode == "compiled"
        assert interpreted.results == compiled.results == evaluate(query, instance)

    def test_compiled_probe_scans_fewer_tuples(self, instance):
        # the compiled join probes S's value index instead of scanning S
        # once per R row
        query = q(JOIN)
        interpreted = execute(query, instance, mode="interpret")
        compiled = execute(query, instance, mode="compiled")
        assert compiled.counters.tuples < interpreted.counters.tuples
        assert compiled.counters.probes == 3

    def test_index_probe_counted(self, instance):
        query = q("select struct(C = t.C) from R r, IS{r.B} t")
        result = execute(query, instance)
        assert result.counters.probes >= 3

    def test_failing_lookup_raises(self, instance):
        query = q("select struct(C = t.C) from IS[999] t")
        with pytest.raises(QueryExecutionError):
            execute(query, instance)

    def test_execution_result_metadata(self, instance):
        result = execute(q("select r.A from R r"), instance)
        assert len(result) == 3
        assert result.elapsed_seconds >= 0
        assert "scan R" in result.plan_text
