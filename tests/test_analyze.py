"""EXPLAIN ANALYZE tests (``repro.obs.analyze`` + ``Database.explain``).

The differential contract: an instrumented run returns exactly the rows a
plain :func:`repro.exec.engine.execute` returns, on every workload's
golden plan (the ProjDept scenario is the paper's P1–P4 plan space).
Per-operator actuals must be internally consistent — each operator's loop
count equals its input operator's row count, scans of a base relation
produce ``|R| × loops`` rows — and the estimated-rows column must be read
off the cost model's own multiplicity walk.
"""

from __future__ import annotations

import pytest

from repro import Database, evaluate, execute, parse_query
from repro.errors import ParameterBindingError, ReproError
from repro.model.values import DictValue
from repro.obs.analyze import analyze_query
from repro.obs.feedback import level_specs
from repro.optimizer import cost

from conftest import GOLDEN_WORKLOADS

JOIN_Q = "select struct(A = r.A) from R r, S s where r.B = s.B"


@pytest.fixture(scope="module")
def rs(rs_workload):
    return rs_workload


class TestAnalyzeQuery:
    def test_results_match_execute(self, rs):
        query = parse_query(JOIN_Q)
        ar = analyze_query(query, rs.instance)
        assert ar.results == execute(query, rs.instance).results
        assert ar.rows == len(ar.results)
        assert ar.elapsed_seconds > 0.0
        assert ar.plan_text  # captured before instrumenting

    def test_operator_chain_is_internally_consistent(self, rs):
        query = parse_query(JOIN_Q)
        ar = analyze_query(query, rs.instance)
        stats = ar.op_stats
        assert stats[0].label == "unit"
        assert stats[0].rows == 1
        # loops of operator i == rows of operator i-1 (pipelined input)
        for prev, this in zip(stats, stats[1:]):
            assert this.loops == prev.rows
        # an unfiltered scan of R over one input row yields |R| rows
        scan_r = next(s for s in stats if s.label.startswith("scan R"))
        assert scan_r.rows == 60 * scan_r.loops
        # the final project's produced count covers the distinct results
        assert stats[-1].rows >= ar.rows

    def test_labels_match_the_plan_text(self, rs):
        ar = analyze_query(parse_query(JOIN_Q), rs.instance)
        for stat in ar.op_stats:
            assert stat.label in ar.plan_text

    def test_estimates_require_statistics(self, rs):
        query = parse_query(JOIN_Q)
        bare = analyze_query(query, rs.instance)
        assert all(s.est_rows is None for s in bare.op_stats)
        assert bare.estimated_cost is None
        informed = analyze_query(query, rs.instance, statistics=rs.statistics)
        assert all(s.est_rows is not None for s in informed.op_stats)
        assert informed.estimated_cost is not None
        # the scan of R is estimated at exactly |R| rows
        scan_r = next(
            s for s in informed.op_stats if s.label.startswith("scan R")
        )
        assert scan_r.est_rows == pytest.approx(60.0)

    def test_estimates_are_read_off_one_cost_walk(self, rs, monkeypatch):
        """"est rows" and feedback's level estimates are the record of one
        ``estimate_cost`` walk, which prices each condition once: with
        every factor pinned at 1/4, a filter's row is its input's times
        1/4 per condition."""

        priced = []

        def quarter(cond, sources, stats):
            priced.append(cond)
            return 0.25

        monkeypatch.setattr(cost, "_selectivity", quarter)
        query = parse_query(JOIN_Q + " and s.C = 1")
        stats = rs.statistics
        r, rs_rows = stats.card("R"), stats.card("R") * stats.card("S")
        ar = analyze_query(query, rs.instance, statistics=stats)
        assert len(priced) == len(query.conditions) == 2
        assert [s.est_rows for s in ar.op_stats] == [
            1.0, r, rs_rows, rs_rows / 16, rs_rows / 16
        ]
        specs = level_specs(query, stats)
        assert len(priced) == 4
        assert [s.est_rows for s in specs] == [r, rs_rows / 16]

    def test_empty_probes_count_missed_lookups(self, rs):
        # Look R's keys up in an IS that holds none: every lookup misses.
        query = parse_query(
            "select struct(A = r.A, C = t.C) from R r, IS{r.B} t"
        )
        ar = analyze_query(
            query, rs.instance, overlays={"IS": DictValue({})}
        )
        assert ar.rows == 0
        scan = next(
            s for s in ar.op_stats if s.label.startswith("scan IS")
        )
        assert scan.empty_probes == scan.probes == scan.loops > 0
        assert scan.rows == 0

    def test_overlays_run_against_cached_extents(self, rs):
        # A view-only plan over an overlay extent: the classic semantic
        # cache rewrite execution mode.
        extent = execute(parse_query(JOIN_Q), rs.instance).results
        ar = analyze_query(
            parse_query("select struct(A = v.A) from CV v"),
            rs.instance,
            overlays={"CV": extent},
        )
        assert ar.results == frozenset(extent)
        assert "[cached]" in ar.plan_text

    def test_render_and_as_dict(self, rs):
        ar = analyze_query(
            parse_query(JOIN_Q), rs.instance, statistics=rs.statistics
        )
        text = ar.render()
        assert "EXPLAIN ANALYZE" in text
        assert "est rows" in text and "self ms" in text
        d = ar.as_dict()
        assert d["rows"] == ar.rows
        assert len(d["operators"]) == len(ar.op_stats)


class TestGoldenDifferential:
    @pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
    def test_actual_rows_match_execute_on_golden_plans(
        self, name, optimized_workloads
    ):
        """``explain(q, analyze=True)`` runs the *optimized* winner; its
        actual top-level row count must equal ``len(execute(q))``."""

        db = optimized_workloads.database(name)
        query = db.workload.query
        ar = db.explain(query, analyze=True)
        executed = db.execute(query)
        assert ar.rows == len(executed.results)
        assert ar.results == executed.results
        assert ar.results == evaluate(query, db.instance)
        # the analyzed plan is the plan-cached winner, not the raw query
        assert ar.plan_text == db.explain(query)
        assert ar.estimated_cost is not None
        for prev, this in zip(ar.op_stats, ar.op_stats[1:]):
            assert this.loops == prev.rows


class TestDatabaseExplainAnalyze:
    def test_accepts_oql_text(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        ar = db.explain(JOIN_Q, analyze=True)
        assert ar.rows == len(db.execute(JOIN_Q).results)
        db.close()

    def test_requires_an_instance(self, rs):
        db = Database(constraints=rs.constraints)
        assert isinstance(db.explain(parse_query(JOIN_Q)), str)
        with pytest.raises(ReproError, match="instance"):
            db.explain(parse_query(JOIN_Q), analyze=True)
        db.close()

    def test_rejects_unbound_templates(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        with pytest.raises(ParameterBindingError):
            db.explain("select r.A from R r where r.B = $b", analyze=True)
        db.close()

    def test_session_exact_hit_analyzes_to_the_stored_result(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        session = db.session()
        query = parse_query(JOIN_Q)
        ran = session.run(query)
        ar = db.explain(query, session=session, analyze=True)
        assert ar.results == ran.results
        assert ar.plan_text == ""  # no plan runs on an exact hit
        assert ar.elapsed_seconds == 0.0
        session.close()
        db.close()

    def test_session_miss_analyzes_the_cold_run(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        session = db.session()
        query = parse_query(JOIN_Q)
        ar = db.explain(query, session=session, analyze=True)
        assert ar.results == session.run(query).results
        assert ar.op_stats
        session.close()
        db.close()
