"""Unit tests for the observability layer (``repro.obs``).

Covers: the span/event tracer (nesting, request grouping, JSONL export,
error tagging, ring-buffer eviction), the metrics registry (monotone
counters, histograms, pull-based legacy sources), the slow-query log,
per-request :class:`QueryReport` timelines, the **overhead guard** (a
disabled tracer allocates nothing on the hot path and production plans
carry no per-tuple instrumentation), and the **counter-parity guarantee**
(registry-surfaced values bit-identical to the legacy counter families:
``BackchaseStats``, containment ``cache_info()``, semcache ``CacheStats``,
``plan_cache_info()``).
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import pytest

from repro import (
    Database,
    MetricsRegistry,
    Observability,
    ObsConfig,
    QueryReport,
    SlowQueryLog,
    Tracer,
    execute,
    parse_query,
)
from repro.exec.planner import compile_query
from repro.obs.trace import NOOP_SPAN, NOOP_TRACER
from repro.workloads.relational import build_rs


@pytest.fixture(scope="module")
def rs():
    return build_rs(n_r=60, n_s=60, b_values=30, seed=5)


JOIN_Q = "select struct(A = r.A) from R r, S s where r.B = s.B"


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_span_records_name_attrs_and_duration(self):
        tracer = Tracer()
        with tracer.span("phase.chase", steps=3) as sp:
            sp.set(bindings=7)
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.name == "phase.chase"
        assert span.attrs == {"steps": 3, "bindings": 7}
        assert span.duration >= 0.0
        assert span.end is not None

    def test_nesting_depth_and_request_grouping(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tracer.span("outer2"):
            pass
        assert [s.name for s in tracer.spans] == ["inner", "outer", "outer2"]
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # each top-level span opens a new request
        assert by_name["outer"].request_id == by_name["inner"].request_id
        assert by_name["outer2"].request_id != by_name["outer"].request_id
        assert tracer.requests() == [
            by_name["outer"].request_id, by_name["outer2"].request_id
        ]

    def test_request_spans_default_latest_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("root"):
            tracer.event("evt")
        spans = tracer.request_spans()
        assert [s.name for s in spans] == ["root", "evt"]
        assert [s.name for s in tracer.request_spans(1)] == ["a"]

    def test_event_is_zero_length(self):
        tracer = Tracer()
        span = tracer.event("plan_cache.lookup", hit=True)
        assert span.end is not None
        assert span.attrs == {"hit": True}

    def test_exception_propagates_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.spans[0].attrs == {"error": "ValueError"}

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(max_spans=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in tracer.spans] == ["b", "c"]

    def test_disabled_returns_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x", a=1) is NOOP_SPAN
        assert tracer.event("y") is NOOP_SPAN
        assert tracer.span("x") is tracer.span("y")
        assert len(tracer) == 0

    def test_enable_disable_clear(self):
        tracer = Tracer(enabled=False)
        tracer.enable()
        with tracer.span("now"):
            pass
        assert len(tracer) == 1
        tracer.disable()
        with tracer.span("not-recorded"):
            pass
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", tier="cold"):
            tracer.event("evt", n=2)
        records = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert [r["name"] for r in records] == ["evt", "root"]
        assert records[1]["attrs"] == {"tier": "cold"}
        assert all(r["start_ms"] >= 0.0 for r in records)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        assert path.read_text().count("\n") == 2

    def test_span_durations_feed_latency_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("phase.exec"):
            pass
        hist = registry.histograms["latency.phase.exec"]
        assert hist.count == 1

    def test_add_counters_works_while_disabled(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=False, registry=registry)
        tracer.add_counters("backchase", {"explored": 5, "skipped": 0.5})
        assert registry.counters["backchase.explored"].value == 5
        assert "backchase.skipped" not in registry.counters  # floats skipped


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_are_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(2)
        counter.inc()
        assert counter.value == 3
        with pytest.raises(ValueError, match="monotone"):
            counter.inc(-1)
        assert registry.counter("c") is counter  # create-on-first-use

    def test_add_counters_skips_bools_and_floats(self):
        registry = MetricsRegistry()
        registry.add_counters(
            "fam", {"hits": 2, "flag": True, "benefit_accrued": 1.5}
        )
        assert set(registry.counters) == {"fam.hits"}

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for v in (0.00005, 0.05, 99.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.min == 0.00005
        assert hist.max == 99.0
        assert hist.mean == pytest.approx((0.00005 + 0.05 + 99.0) / 3)
        d = hist.as_dict()
        assert d["buckets"]["le_0.0001"] == 1
        assert d["buckets"]["le_0.1"] == 1
        assert d["buckets"]["overflow"] == 1

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(7)
        registry.gauge("g").set(3)
        assert registry.snapshot()["gauges"] == {"g": 3}

    def test_sources_are_read_live_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.register_source("fam", lambda: dict(state))
        assert registry.snapshot()["sources"]["fam"] == {"hits": 0}
        state["hits"] = 5
        assert registry.snapshot()["sources"]["fam"] == {"hits": 5}

    def test_source_returning_none_is_omitted(self):
        registry = MetricsRegistry()
        registry.register_source("dead", lambda: None)
        assert "dead" not in registry.snapshot()["sources"]

    def test_broken_source_reports_error_not_crash(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("gone")

        registry.register_source("bad", broken)
        assert "RuntimeError" in registry.snapshot()["sources"]["bad"]["error"]

    def test_render_mentions_every_section(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("g").set(1)
        registry.histogram("latency.x").observe(0.001)
        registry.register_source("fam", lambda: {"hits": 1})
        text = registry.render()
        for needle in ("sources", "counters", "gauges", "latency", "a.b: 1"):
            assert needle in text
        assert MetricsRegistry().render().endswith("(empty)")


# -- slow-query log -----------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_and_counts(self):
        log = SlowQueryLog(threshold_seconds=0.1, capacity=8)
        assert not log.observe("fast", 0.05)
        assert log.observe("slow", 0.2, source="cold", rows=3)
        assert (log.observed, log.recorded, len(log)) == (2, 1, 1)
        (entry,) = log.as_dicts()
        assert entry["query"] == "slow"
        assert entry["source"] == "cold"
        assert entry["rows"] == 3

    def test_only_a_recorded_request_is_formatted(self):
        class Query:
            rendered = 0

            def __str__(self):
                Query.rendered += 1
                return "select it"

        log = SlowQueryLog(threshold_seconds=0.1)
        assert not log.observe(Query(), 0.05)
        assert Query.rendered == 0
        assert log.observe(Query(), 0.2)
        assert Query.rendered == 1
        assert log.as_dicts()[0]["query"] == "select it"

    def test_request_paths_hand_over_the_query_unformatted(self, rs):
        from repro.query.ast import PCQuery

        db = Database(instance=rs.instance)  # default threshold: 250 ms
        seen = []
        real = db.obs.slow_log.observe
        db.obs.slow_log.observe = lambda query, *a, **kw: (
            seen.append(query), real(query, *a, **kw)
        )[1]
        db.execute(JOIN_Q)
        with db.session() as session:
            session.run(parse_query(JOIN_Q))
        assert len(seen) == 2 and all(isinstance(q, PCQuery) for q in seen)
        db.close()

    def test_capacity_bounds_entries(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=2)
        for i in range(4):
            log.observe(f"q{i}", 1.0)
        assert [e["query"] for e in log.as_dicts()] == ["q2", "q3"]
        assert log.recorded == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_seconds=-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_render(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.observe("select 1", 0.5, source="execute", rows=1)
        assert "select 1" in log.render()
        assert "(none)" in SlowQueryLog().render()


# -- query report -------------------------------------------------------------


class TestQueryReport:
    def test_phase_breakdown_and_render(self):
        tracer = Tracer()
        with tracer.span("db.execute"):
            with tracer.span("phase.chase"):
                pass
            with tracer.span("phase.exec"):
                pass
        report = QueryReport.from_tracer(tracer)
        assert set(report.phase_seconds()) == {"chase", "exec"}
        assert report.span_named("phase.chase") is not None
        assert report.span_named("nope") is None
        text = report.render()
        assert "db.execute" in text
        # nesting indents the children one level past the root
        assert "  phase.chase" in text

    def test_empty_report(self):
        report = QueryReport.from_tracer(Tracer())
        assert report.total_seconds == 0.0
        assert "no spans" in report.render()


# -- overhead guard (satellite: tracing off must cost nothing) ----------------


class TestOverheadGuard:
    def test_noop_tracer_records_and_allocates_nothing(self):
        # Warm up so lazy caches (attr lookups, code objects) don't count.
        for _ in range(10):
            with NOOP_TRACER.span("hot", attr=1):
                pass
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(10_000):
            with NOOP_TRACER.span("hot", attr=1) as sp:
                sp.set(more=2)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(NOOP_TRACER) == 0
        # Nothing survives the calls: net growth stays under a kilobyte
        # across ten thousand disabled spans.
        assert after - before < 1024

    def test_production_plans_carry_no_instrumentation(self, rs):
        # EXPLAIN ANALYZE shadows ``rows`` with instance attributes and
        # interposes timing proxies — but only on its own freshly compiled
        # plan.  Plans from the production compile path must stay clean.
        plan = compile_query(parse_query(JOIN_Q))
        op = plan
        while op is not None:
            assert "rows" not in vars(op), f"instrumented rows on {op!r}"
            op = getattr(op, "child", None)

    def test_execute_with_tracing_off_records_nothing(self, rs):
        result = execute(parse_query(JOIN_Q), rs.instance)
        assert result.results
        assert len(NOOP_TRACER) == 0


# -- counter parity (registry values == legacy counter families) --------------


class TestCounterParity:
    def test_backchase_and_containment_counters_match_legacy(self, rs):
        db = Database.from_workload("rs", n_r=60, n_s=60, b_values=30, seed=5)
        result = db.optimize(db.workload.query)
        counters = db.metrics()["counters"]
        legacy = result.backchase_stats.as_dict()
        for key, value in legacy.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            assert counters[f"backchase.{key}"] == value, key
        info = result.containment
        assert counters["containment.hits"] == info.hits
        assert counters["containment.misses"] == info.misses
        assert result.lookup_decisions["chased"] > 0
        for how, count in result.lookup_decisions.items():
            assert counters[f"lookup_safety.{how}"] == count, how
        assert result.containment_decisions["early"] > 0
        for how, count in result.containment_decisions.items():
            assert counters[f"containment.decided.{how}"] == count, how
        for what, count in result.chase_counts.items():
            assert counters[f"chase.{what}"] == count, what
        db.close()

    @pytest.mark.parametrize("strategy", ["pruned", "full"])
    @pytest.mark.parametrize("name", ["rs", "rabc", "oo_asr", "projdept"])
    def test_every_computed_verdict_has_a_containment_span(self, name, strategy):
        """Regression: the default strategy used to fill the engine's
        containment cache inline, so its condition-(3) verdicts recorded no
        ``chase.containment`` span (and no ``latency.chase.containment``
        sample).  Every computed verdict — each one counted once in
        ``containment_decisions`` — is a span.  A private traced run per
        case: the spans of the search are the subject, and conftest's
        shared databases run silent."""

        db = Database.from_workload(
            name, strategy=strategy, obs=ObsConfig(tracing=True)
        )
        result = db.optimize(db.workload.query)
        spans = [s for s in db.obs.tracer.spans if s.name == "chase.containment"]
        computed = sum(result.containment_decisions.values())
        assert computed > result.containment.misses > 0
        assert len(spans) == computed
        db.close()

    def test_counters_accumulate_across_optimizes(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        r1 = db.optimize(parse_query(JOIN_Q))
        r2 = db.optimize(parse_query("select r.A from R r where r.B = 5"))
        counters = db.metrics()["counters"]
        expected = (
            r1.backchase_stats.as_dict()["candidates_explored"]
            + r2.backchase_stats.as_dict()["candidates_explored"]
        )
        assert counters["backchase.candidates_explored"] == expected
        db.close()

    def test_plan_cache_source_matches_plan_cache_info(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        db.execute(JOIN_Q)
        db.execute(JOIN_Q)
        snap = db.metrics()["sources"]["plan_cache"]
        assert snap == dataclasses.asdict(db.plan_cache_info())
        assert snap["hits"] >= 1  # the repeat hit the plan cache
        db.close()

    def test_semcache_source_matches_session_stats(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        session = db.session()
        query = parse_query(JOIN_Q)
        session.run(query)
        session.run(query)
        snap = db.metrics()["sources"]["semcache"]
        assert snap == session.stats.as_dict()
        assert snap["exact_hits"] == 1
        session.close()
        db.close()

    def test_dead_session_source_is_omitted(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        session = db.session()
        session.run(parse_query(JOIN_Q))
        session.close()
        del session
        assert "semcache" not in db.metrics()["sources"]
        db.close()

    def test_second_session_gets_its_own_source_name(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        s1 = db.session()
        s2 = db.session()
        s2.run(parse_query(JOIN_Q))
        sources = db.metrics()["sources"]
        assert sources["semcache"] == s1.stats.as_dict()
        assert sources["semcache#2"] == s2.stats.as_dict()
        assert sources["semcache#2"]["lookups"] == 1
        s1.close()
        s2.close()
        db.close()


# -- database wiring ----------------------------------------------------------


class TestDatabaseObservability:
    def test_traced_execute_produces_the_full_timeline(self):
        db = Database.from_workload(
            "rs", obs=ObsConfig(tracing=True),
            n_r=20, n_s=20, b_values=10, seed=1,
        )
        db.execute(JOIN_Q)
        names = {s.name for s in db.tracer.request_spans()}
        for expected in (
            "db.execute", "db.optimize", "plan_cache.lookup",
            "phase.chase", "phase.backchase", "phase.cost", "phase.exec",
        ):
            assert expected in names, expected
        report = db.query_report()
        assert report.total_seconds > 0.0
        assert {"chase", "backchase", "cost", "exec"} <= set(
            report.phase_seconds()
        )
        db.close()

    def test_metrics_snapshot_shape(self):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        snap = db.metrics()
        assert set(snap) >= {
            "counters", "gauges", "histograms", "sources",
            "slow_queries", "tracing",
        }
        assert snap["tracing"] == {"enabled": False, "spans_recorded": 0}
        assert "plan cache" not in snap  # sources carry the legacy families
        assert "plan_cache" in snap["sources"]
        text = db.metrics_report()
        assert "metrics" in text and "slow queries" in text
        db.close()

    def test_slow_log_threshold_zero_records_every_execute(self):
        db = Database.from_workload(
            "rs", obs=ObsConfig(slow_query_threshold=0.0),
            n_r=20, n_s=20, b_values=10, seed=1,
        )
        db.execute(JOIN_Q)
        entries = db.metrics()["slow_queries"]
        assert len(entries) == 1
        assert entries[0]["source"] == "execute"
        db.close()

    def test_session_runs_feed_the_slow_log(self):
        db = Database.from_workload(
            "rs", obs=ObsConfig(slow_query_threshold=0.0),
            n_r=20, n_s=20, b_values=10, seed=1,
        )
        session = db.session()
        session.run(parse_query(JOIN_Q))
        sources = [e["source"] for e in db.metrics()["slow_queries"]]
        assert "session.cold" in sources
        session.close()
        db.close()

    @pytest.mark.parametrize(
        "text, bindings",
        [
            ("select r.A from R r where r.B = $b", {"b": 3}),
            # param-free runs used to open no façade span at all
            ("select r.A from R r where r.B = 3", {}),
        ],
    )
    def test_prepared_run_traced_and_skew_free(self, text, bindings):
        db = Database.from_workload(
            "rs", obs=ObsConfig(tracing=True),
            n_r=20, n_s=20, b_values=10, seed=1,
        )
        prepared = db.prepare(text)
        prepared.run(**bindings)
        spans = db.tracer.request_spans()
        assert [s.name for s in spans if s.depth == 0] == ["db.run_prepared"]
        assert "phase.exec" in [s.name for s in spans]
        assert "latency.db.run_prepared" in db.metrics()["histograms"]
        db.close()

    def test_observability_object_passthrough(self):
        obs = Observability(ObsConfig(tracing=True, max_spans=16))
        db = Database.from_workload(
            "rs", obs=obs, n_r=20, n_s=20, b_values=10, seed=1
        )
        assert db.obs is obs
        assert db.tracer is obs.tracer
        db.close()
