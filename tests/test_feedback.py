"""Plan-quality feedback layer tests (``repro.obs.feedback`` and its
``Database`` plumbing).

Covers, in order:

- the Q-error primitive and the :class:`FeedbackStore` learning rules
  (cardinality reads, selectivity-implied NDVs, the no-op guards that
  keep a confirming observation from counting as a correction);
- the **zero-cost-when-off guarantee** (the acceptance gate): a default
  Database carries no store, collects no per-level actuals, generates
  byte-level-silent compiled artifacts (three parameters, no ``_fb`` /
  ``_r0`` locals), and exposes no feedback metrics;
- the **actuals-parity pin**: on every built-in workload plan the
  collected actuals agree between the interpreted and compiled engines
  *and* with the instrumented analyzer's row counts (the estimates are
  one reading of the cost walk, ``tests/test_analyze.py``);
- the store's regression verdict (Q-error threshold, latency drift
  against the entry's best time) and the drift → flag → ``#fb:`` replan
  loop on a pinned-stale catalog;
- the **answer-preservation property**: under a seeded random query /
  mutation sequence, a feedback+replan Database returns exactly the cold
  per-query answers;
- the satellite wirings: slow-query log on ``PreparedQuery.run``,
  session cold-path feedback hook, deterministic statistics sampling
  defaults.
"""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

from repro import (
    CacheConfig,
    Database,
    Instance,
    ObsConfig,
    Row,
    Statistics,
    execute,
    parse_query,
)
from repro.exec.compile import compile_plan, generate_plan
from repro.exec.operators import Filter, ScanBind, chain as _chain
from repro.exec.planner import compile_query
from repro.obs.analyze import analyze_query
from repro.obs.feedback import (
    MIN_DRIFT_SECONDS,
    REGRESSION_CAPACITY,
    FeedbackStore,
    LevelSpec,
    QERROR_BUCKETS,
    level_specs,
    qerror,
)
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.cost import estimate_cost
from repro.optimizer.statistics import (
    AUTO_SAMPLE_SIZE,
    AUTO_SAMPLE_THRESHOLD,
    _capped,
    default_sample,
)

JOIN_Q = "select struct(A = r.A, B = s.B) from R r, S s where r.B = s.B"

WORKLOADS = ("rs", "rabc", "projdept", "oo_asr")


def small_instance() -> Instance:
    r = frozenset(Row(A=i % 4, B=i % 3, C=i) for i in range(12))
    s = frozenset(Row(B=i % 3, C=i % 5) for i in range(9))
    t = frozenset(Row(A=i % 4, C=i % 5) for i in range(6))
    return Instance({"R": r, "S": s, "T": t})


# -- the Q-error primitive ----------------------------------------------------


class TestQerror:
    def test_perfect_estimate_is_one(self):
        assert qerror(10, 10) == 1.0

    def test_symmetric(self):
        assert qerror(5, 50) == qerror(50, 5) == 10.0

    def test_floored_at_one_row(self):
        # an empty level vs a 1-row estimate is not an infinite error
        assert qerror(0.25, 0) == 1.0
        assert qerror(8.0, 0) == 8.0


# -- FeedbackStore learning ---------------------------------------------------


class TestFeedbackLearning:
    def stats(self) -> Statistics:
        return Statistics.from_instance(small_instance())

    def test_confirming_scan_is_not_a_correction(self):
        # card(R) is 12 and the scan saw 12 rows: the no-op guard must
        # keep has_corrections() false (a spurious correction would make
        # every flagged entry eligible for a pointless replan).
        store = FeedbackStore()
        specs = (LevelSpec(label="scan R", est_rows=12.0, rel="R"),)
        store._learn(specs, (12,), self.stats())
        assert not store.has_corrections()
        assert store.corrections == 0

    def test_unconditioned_scan_reads_cardinality(self):
        store = FeedbackStore()
        specs = (LevelSpec(label="scan R", est_rows=12.0, rel="R"),)
        store._learn(specs, (500,), self.stats())
        assert store.card_overrides["R"] == 500.0
        assert store.corrections == 1

    def test_conditioned_fanout_beyond_card_raises_cardinality(self):
        # 40 survivors out of a believed 12-row relation: selectivity
        # cannot exceed 1, so the cardinality itself must be stale.
        store = FeedbackStore()
        specs = (
            LevelSpec(
                label="scan R + filter",
                est_rows=4.0,
                rel="R",
                attrs=(("R", "A"),),
                has_conds=True,
            ),
        )
        store._learn(specs, (40,), self.stats())
        assert store.card_overrides["R"] == 40.0

    def test_single_attr_condition_implies_ndv(self):
        # 6 of 12 rows survive an equality on R.A: implied NDV 2, and the
        # catalog believes ndv(R.A) = 4, so it is a correction.
        store = FeedbackStore()
        stats = self.stats()
        assert stats.distinct("R", "A") == 4
        specs = (
            LevelSpec(
                label="scan R + filter",
                est_rows=3.0,
                rel="R",
                attrs=(("R", "A"),),
                has_conds=True,
            ),
        )
        store._learn(specs, (6,), stats)
        assert store.ndv_overrides[("R", "A")] == 2.0

    def test_confirming_ndv_is_not_a_correction(self):
        # 3 of 12 survive: implied NDV 4 == believed ndv(R.A) — no-op.
        store = FeedbackStore()
        specs = (
            LevelSpec(
                label="scan R + filter",
                est_rows=3.0,
                rel="R",
                attrs=(("R", "A"),),
                has_conds=True,
            ),
        )
        store._learn(specs, (3,), self.stats())
        assert not store.has_corrections()

    def test_ambiguous_attribution_teaches_no_ndv(self):
        store = FeedbackStore()
        specs = (
            LevelSpec(
                label="scan R + filter",
                est_rows=3.0,
                rel="R",
                attrs=(("R", "A"), ("R", "B")),
                has_conds=True,
            ),
        )
        store._learn(specs, (6,), self.stats())
        assert store.ndv_overrides == {}

    def test_observe_rejects_misaligned_actuals(self):
        store = FeedbackStore()
        query = parse_query(JOIN_Q)
        stats = self.stats()
        # the plan has two binding levels; one actual cannot align
        assert (
            store.observe(query, stats, (7,), rows=7, elapsed_seconds=0.0)
            is None
        )
        assert store.observed == 0

    def test_clear_drops_overrides_and_bumps_version(self):
        store = FeedbackStore()
        store._set_card("R", 500.0)
        store._set_ndv(("R", "A"), 2.0)
        version = store.version
        store.clear()
        assert not store.has_corrections()
        assert store.version > version

    def test_fingerprint_is_drift_stable(self):
        # log2 bucketing: 100 vs 110 land in one bucket (no variant
        # churn in steady state), a further >2x drift re-keys.
        a, b, c = FeedbackStore(), FeedbackStore(), FeedbackStore()
        a._set_card("R", 100.0)
        b._set_card("R", 110.0)
        c._set_card("R", 300.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_corrected_statistics_leaves_base_untouched(self):
        store = FeedbackStore()
        store._set_card("R", 500.0)
        store._set_ndv(("R", "A"), 2.0)
        base = self.stats()
        adjusted = store.corrected_statistics(base)
        assert adjusted.card("R") == 500.0
        assert adjusted.distinct("R", "A") == 2.0
        assert base.card("R") == 12
        assert base.distinct("R", "A") == 4

    def test_ring_buffer_and_jsonl_export(self, tmp_path):
        store = FeedbackStore(capacity=2)
        query = parse_query(JOIN_Q)
        stats = self.stats()
        execution = execute(query, small_instance(), feedback=True)
        for _ in range(3):
            store.observe(
                query,
                stats,
                execution.level_rows,
                rows=len(execution.results),
                elapsed_seconds=0.001,
            )
        assert store.observed == 3 and len(store) == 2
        path = tmp_path / "feedback.jsonl"
        assert store.export_jsonl(str(path)) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        assert all("max_qerror" in rec and "levels" in rec for rec in records)


# -- zero cost when off (acceptance gate) ------------------------------------


class TestZeroCostWhenOff:
    def test_default_database_has_no_feedback_state(self):
        db = Database(instance=small_instance())
        assert db.obs.feedback is None
        execution = db.execute(JOIN_Q)
        assert execution.level_rows is None
        assert "feedback" not in db.metrics()
        assert not any(
            name.startswith("feedback.") for name in db.obs.registry.counters
        )
        assert not any(
            name.startswith("feedback.")
            for name in db.obs.registry.histograms
        )
        db.close()

    def test_silent_artifact_carries_no_feedback_code(self):
        query = parse_query(JOIN_Q)
        source = generate_plan(query).source
        assert "_fb" not in source and "_r0" not in source
        compiled = compile_plan(query)
        assert compiled.feedback is False
        # def _plan(instance, counters, _params): — no _fb out-parameter
        assert compiled.fn.__code__.co_argcount == 3

    def test_feedback_artifact_is_a_distinct_variant(self):
        query = parse_query(JOIN_Q)
        source = generate_plan(query, feedback=True).source
        assert "_fb" in source and "_r0" in source
        compiled = compile_plan(query, feedback=True)
        assert compiled.feedback is True
        assert compiled.fn.__code__.co_argcount == 4
        out = []
        results = compiled.run(small_instance(), feedback_out=out)
        assert len(out) == 1 and len(out[0]) == 2
        interp = execute(parse_query(JOIN_Q), small_instance(), feedback=True)
        assert out[0] == interp.level_rows
        assert results == interp.results

    def test_compiled_database_default_stays_silent(self):
        db = Database(instance=small_instance(), exec_mode="compiled")
        execution = db.execute(JOIN_Q)
        assert execution.mode == "compiled"
        assert execution.level_rows is None
        db.close()


# -- collection and stamping with feedback on ---------------------------------


class TestFeedbackCollection:
    @pytest.mark.parametrize("exec_mode", ["interpret", "compiled"])
    def test_execute_collects_and_stamps(self, exec_mode):
        db = Database(
            instance=small_instance(),
            obs=ObsConfig(feedback=True),
            exec_mode=exec_mode,
        )
        execution = db.execute(JOIN_Q)
        assert execution.level_rows is not None
        assert len(execution.level_rows) == 2  # two binding levels
        store = db.obs.feedback
        assert store.observed == 1
        assert db.obs.registry.counters["feedback.observations"].value == 1
        assert db.obs.registry.histograms["feedback.qerror"].count == 2
        assert db.obs.registry.histograms["feedback.qerror.max"].count == 1
        (entry,) = db._plan_cache._entries.values()
        assert entry.baseline_seconds is not None
        snapshot = db.metrics()
        assert snapshot["feedback"]["observed"] == 1
        assert "regressions" in snapshot
        assert "disabled" not in db.feedback_report()
        db.close()

    def test_mutation_clears_corrections(self):
        db = Database(
            instance=small_instance(), obs=ObsConfig(feedback=True)
        )
        db.obs.feedback._set_card("R", 500.0)
        assert db.metrics()["feedback"]["card_overrides"] == {"R": 500.0}
        db.instance["T"] = frozenset({Row(A=0, C=0)})
        # the store is emptied when the database next reads it
        feedback = db.metrics()["feedback"]
        assert feedback["card_overrides"] == feedback["ndv_overrides"] == {}
        assert not db.obs.feedback.has_corrections()
        db.close()

    def test_session_cold_path_feeds_the_store(self):
        db = Database(
            instance=small_instance(), obs=ObsConfig(feedback=True)
        )
        with db.session() as sess:
            sess.run(parse_query(JOIN_Q))
        store = db.obs.feedback
        assert store.observed == 1
        assert store.entries[-1].source == "session.cold"
        db.close()


# -- actuals parity (the acceptance pin) --------------------------------------


def _level_tail_indexes(query):
    """Chain index of each binding level's tail op (the Filter following
    the bind when present, the bind itself otherwise) — where both the
    level specs and the analyzer place the level's row count."""

    ops = _chain(compile_query(query))
    tails = []
    for idx, op in enumerate(ops):
        if not isinstance(op, ScanBind):
            continue
        nxt = ops[idx + 1] if idx + 1 < len(ops) else None
        tails.append(idx + 1 if isinstance(nxt, Filter) else idx)
    return tails


class TestParityWithExplainAnalyze:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_actuals_match_analyze_and_modes_agree(
        self, name, optimized_workloads
    ):
        wl = optimized_workloads.workload(name)
        query = optimized_workloads.winner(name)

        analysis = analyze_query(query, wl.instance)
        tails = _level_tail_indexes(query)

        # (1) actuals: the interpreted engine agrees with the analyzer's
        # instrumented row counts at every level tail
        interp = execute(query, wl.instance, feedback=True)
        assert len(tails) == len(interp.level_rows) > 0
        for actual, tail in zip(interp.level_rows, tails):
            assert actual == analysis.op_stats[tail].rows

        # (2) the compiled engine (when the plan compiles) reports the
        # same actuals and the same answers
        comp = execute(query, wl.instance, mode="compiled", feedback=True)
        assert comp.level_rows == interp.level_rows
        assert comp.results == interp.results


# -- the regression verdict --------------------------------------------------

SCAN_Q = "select struct(A = r.A) from R r"  # one level, est 12 rows


def observe_scan(store, actual, elapsed_seconds=0.01, entry=None):
    """One observation of ``SCAN_Q`` whose single level saw ``actual``
    rows: its Q-error is ``actual / 12`` against the catalog."""

    return store.observe(
        parse_query(SCAN_Q),
        Statistics.from_instance(small_instance()),
        (actual,),
        rows=actual,
        elapsed_seconds=elapsed_seconds,
        entry=entry,
    )


def stub_entry():
    return SimpleNamespace(baseline_seconds=None, flagged=False)


class TestRegressionVerdict:
    def test_qerror_threshold_flags(self):
        store = FeedbackStore(qerror_threshold=16.0)
        assert observe_scan(store, 12 * 8).kind is None
        flagged = observe_scan(store, 12 * 16)
        assert flagged.kind == "qerror" and flagged.value == 16.0
        assert store.flagged == 1 and store.observed == 2
        assert list(store.regressions) == [flagged]
        assert store.registry.counters["feedback.regressions"].value == 1
        assert set(flagged.regression_dict()) == {
            "query", "source", "kind", "value", "threshold",
            "max_qerror", "elapsed_seconds", "baseline_seconds",
        }

    def test_latency_drift_flags_the_entry(self):
        store = FeedbackStore()
        entry = stub_entry()
        assert observe_scan(store, 12, 0.01, entry).kind is None
        assert entry.baseline_seconds == 0.01 and not entry.flagged
        slow = observe_scan(store, 12, 0.1, entry)
        assert slow.kind == "latency" and slow.baseline_seconds == 0.01
        assert slow.value == pytest.approx(10.0)
        assert entry.flagged and entry.baseline_seconds == 0.01

    def test_latency_drift_flags_against_the_best_time(self):
        store = FeedbackStore()
        assert observe_scan(store, 12, 1.0).baseline_seconds is None
        entry = stub_entry()
        observe_scan(store, 12, 0.01, entry)
        assert observe_scan(store, 12, 0.002, entry).kind is None
        assert entry.baseline_seconds == 0.002  # a faster run lowers it
        # 2x the first run, 10x the best: judged against the best
        slow = observe_scan(store, 12, 0.02, entry)
        assert slow.kind == "latency" and slow.baseline_seconds == 0.002
        assert slow.value == pytest.approx(10.0)
        assert entry.flagged and entry.baseline_seconds == 0.002

    def test_sub_millisecond_jitter_never_flags(self):
        store = FeedbackStore()
        elapsed = MIN_DRIFT_SECONDS / 2
        entry = stub_entry()
        entry.baseline_seconds = elapsed / 100
        assert observe_scan(store, 12, elapsed, entry).kind is None
        assert not entry.flagged and not store.regressions

    def test_capacity_bounds_regressions(self):
        store = FeedbackStore(qerror_threshold=2.0)
        for i in range(REGRESSION_CAPACITY + 6):
            observe_scan(store, 48, elapsed_seconds=float(i))
        assert store.flagged == REGRESSION_CAPACITY + 6
        assert [r.elapsed_seconds for r in store.regressions] == [
            float(i) for i in range(6, REGRESSION_CAPACITY + 6)
        ]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            FeedbackStore(qerror_threshold=0.5)
        with pytest.raises(ValueError):
            FeedbackStore(capacity=0)

    def test_reports_to_the_database_registry_and_tracer(self):
        obs = Observability(ObsConfig(feedback=True, tracing=True))
        store = obs.feedback
        assert store.registry is obs.registry and store.tracer is obs.tracer
        observe_scan(store, 12 * 32)
        assert obs.registry.counters["feedback.regressions"].value == 1
        (event,) = [s for s in obs.tracer.spans if s.name == "feedback.regression"]
        assert event.attrs == {"kind": "qerror", "qerror": 32.0}
        # a standalone store counts into a registry of its own
        alone, other = FeedbackStore(), FeedbackStore()
        observe_scan(alone, 12)
        assert alone.registry is not other.registry
        assert alone.registry.counters["feedback.observations"].value == 1
        assert "feedback.observations" not in other.registry.counters

    def test_render_appends_quantiles_and_regressions(self):
        store = FeedbackStore(qerror_threshold=16.0)
        empty = store.render()
        assert "q-error over" not in empty
        assert empty.endswith("0/0 flagged, showing last 0)\n  (none)")
        observe_scan(store, 12)
        observe_scan(store, 12 * 32, elapsed_seconds=0.005)
        lines = store.render().splitlines()
        assert lines[-3].startswith("q-error over 2 levels: ")
        assert lines[-2].startswith("plan regressions (q-error >= 16 or ")
        assert "1/2 flagged, showing last 1)" in lines[-2]
        assert lines[-1].startswith("  qerror=    32.00 (threshold 16) ")
        assert lines[-1].endswith("5.0ms  " + str(parse_query(SCAN_Q)))

    def test_variant_needs_a_flagged_entry_and_corrections(self):
        store = FeedbackStore()
        base = Statistics.from_instance(small_instance())
        entry = SimpleNamespace(flagged=True, replanned=False)
        assert store.variant(entry, base) is None  # nothing learned yet
        store._set_card("R", 480.0)
        assert store.variant(None, base) is None
        unflagged = SimpleNamespace(flagged=False, replanned=False)
        assert store.variant(unflagged, base) is None
        for _ in range(2):
            tag, corrected = store.variant(entry, base)
            assert tag == "#fb:" + store.fingerprint()
            assert corrected.card("R") == 480.0 and base.card("R") == 12
        assert entry.replanned and not unflagged.replanned
        assert store.registry.counters["feedback.replans"].value == 1


class TestQerrorHistogram:
    def test_geometric_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("feedback.qerror", bounds=QERROR_BUCKETS)
        for value in (1.0, 1.2, 2.5, 40.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.quantile(0.5) == 1.5  # two of four within the 1.5 bucket
        assert hist.quantile(1.0) == 64.0
        # dimensionless rendering: Q-errors are not latencies
        rendered = registry.render()
        assert "feedback.qerror" in rendered
        assert "ms" not in rendered.split("feedback.qerror", 1)[1].split("\n")[0]


# -- drift -> flag -> replan, and answer preservation -------------------------


def drifted_database(**kwargs) -> Database:
    """A Database whose catalog is pinned (explicit statistics, so
    mutations never refresh it) and whose R extent then drifts 25x with
    every new row matching the selection — the bench's E20 scenario in
    miniature."""

    instance = small_instance()
    stats = Statistics.from_instance(instance)
    db = Database(instance=instance, statistics=stats, **kwargs)
    drift = frozenset(
        Row(A=0, B=i % 3, C=100 + i) for i in range(300)
    )
    db.instance["R"] = db.instance["R"] | drift
    return db


DRIFT_Q = (
    "select struct(B = r.B, C = s.C) from R r, S s "
    "where r.A = 0 and r.B = s.B"
)


class TestDriftFlagReplan:
    def test_drift_is_flagged_and_replanned(self):
        db = drifted_database(
            obs=ObsConfig(feedback=True, qerror_threshold=4.0),
            cache_config=CacheConfig(feedback_replan=True),
        )
        reference = db.execute_plan(db.optimize(DRIFT_Q).best).results
        for _ in range(4):
            assert db.execute(DRIFT_Q).results == reference
        counters = db.obs.registry.counters
        assert counters["feedback.regressions"].value >= 1
        assert counters["feedback.replans"].value >= 1
        assert db.obs.feedback.has_corrections()
        # the corrected catalog learned the drifted R cardinality
        assert db.obs.feedback.card_overrides["R"] > 100
        # the variant entry is tagged with the corrections fingerprint
        assert any(
            "#fb:" in str(key) for key in db._plan_cache._entries
        )
        db.close()

    def test_replan_optimizes_under_the_corrected_catalog(self):
        db = drifted_database(
            obs=ObsConfig(feedback=True, qerror_threshold=4.0),
            cache_config=CacheConfig(feedback_replan=True),
        )
        for _ in range(4):
            db.execute(DRIFT_Q)
        entries = db._plan_cache._entries
        (base,) = [e for k, e in entries.items() if "#fb:" not in k[0]]
        (variant,) = [e for k, e in entries.items() if "#fb:" in k[0]]
        plan = variant.result.best
        assert plan.query != base.result.best.query
        corrected = db.obs.feedback.corrected_statistics(db.context.statistics)
        assert plan.cost == estimate_cost(
            plan.query, corrected, db.context.cost_model
        )
        db.close()

    def test_regression_record_names_its_source(self):
        db = drifted_database(
            obs=ObsConfig(feedback=True, qerror_threshold=4.0)
        )
        db.execute(DRIFT_Q)
        (record,) = db.metrics()["regressions"]
        assert record["source"] == "execute" and "attrs" not in record
        assert record["kind"] == "qerror" and record["threshold"] == 4.0
        (entry,) = db._plan_cache._entries.values()
        assert record["query"] == str(entry.result.best.query)
        db.close()

    def test_replan_off_by_default_still_detects(self):
        db = drifted_database(
            obs=ObsConfig(feedback=True, qerror_threshold=4.0)
        )
        for _ in range(3):
            db.execute(DRIFT_Q)
        counters = db.obs.registry.counters
        assert counters["feedback.regressions"].value >= 1
        assert "feedback.replans" not in counters
        assert not any(
            "#fb:" in str(key) for key in db._plan_cache._entries
        )
        db.close()


class TestAnswerPreservationProperty:
    QUERIES = [
        JOIN_Q,
        DRIFT_Q,
        "select struct(A = r.A) from R r where r.A = 1",
        "select struct(C = t.C) from S s, T t where s.C = t.C",
        "select struct(A = r.A, C = t.C) from R r, T t "
        "where r.A = t.A and t.C = 2",
    ]

    def test_feedback_replan_preserves_answers_under_mutation(self):
        rng = random.Random(20990807)
        instance = small_instance()
        db = Database(
            instance=instance,
            statistics=Statistics.from_instance(instance),
            obs=ObsConfig(feedback=True, qerror_threshold=2.0),
            cache_config=CacheConfig(feedback_replan=True),
        )
        for step in range(24):
            if step and rng.random() < 0.3:
                # mutate T (sometimes skewed toward the joined values)
                rows = frozenset(
                    Row(A=rng.randrange(4) if rng.random() < 0.5 else 0,
                        C=rng.randrange(5))
                    for _ in range(rng.randrange(1, 40))
                )
                db.instance["T"] = rows
            query = rng.choice(self.QUERIES)
            with Database(instance=db.instance) as cold:
                expected = cold.execute(query).results
            assert db.execute(query).results == expected, (step, query)
        assert db.obs.feedback.observed >= 24
        db.close()


# -- satellite wirings --------------------------------------------------------


class TestSatelliteWirings:
    def test_prepared_run_feeds_the_slow_log(self):
        db = Database(
            instance=small_instance(),
            obs=ObsConfig(slow_query_threshold=0.0),
        )
        db.prepare(parse_query(JOIN_Q)).run()
        sources = [entry.source for entry in db.obs.slow_log.entries]
        assert "prepared" in sources
        db.close()

    def test_default_sample_thresholds(self):
        assert default_sample(None) is None
        assert default_sample(small_instance()) is None
        assert default_sample(small_instance(), sample=7) == 7
        big = Instance(
            {"R": frozenset(Row(A=i) for i in range(AUTO_SAMPLE_THRESHOLD + 1))}
        )
        assert default_sample(big) == AUTO_SAMPLE_SIZE
        assert default_sample(big, sample=50) == 50

    def test_capped_set_sampling_is_order_free(self):
        rows = [Row(A=i, B=i % 7) for i in range(100)]
        forward = frozenset(rows)
        backward = frozenset(reversed(rows))
        a = _capped(forward, 10)
        b = _capped(backward, 10)
        assert sorted(map(repr, a)) == sorted(map(repr, b))
        assert len(a) == 10
        # under the cap: everything, no sampling
        assert len(_capped(forward, 1000)) == 100

    def test_sampled_statistics_are_reproducible(self):
        instance = small_instance()
        first = Statistics.from_instance(instance, sample=5)
        second = Statistics.from_instance(instance, sample=5)
        assert first.card("R") == second.card("R")
        assert first.distinct("R", "A") == second.distinct("R", "A")
