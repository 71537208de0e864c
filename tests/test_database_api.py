"""Unit tests for the :class:`repro.Database` façade.

Covers: workload constructors, the frozen :class:`OptimizeContext` and its
fingerprint, the cross-request plan cache (hit/miss/eviction/invalidation
counters, strategy keying), prepared queries skipping chase/backchase on
repeat runs, the ``Database.explain`` ≡ ``session.run().plan_text`` parity
regression (the hybrid ``[cached]`` overlay fix), session wiring, and the
single serve path's probe / root-span accounting.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from conftest import SERVING_MIXES, recording
from repro import (
    CacheConfig,
    Database,
    Instance,
    OptimizeContext,
    Optimizer,
    ReproError,
    Row,
    Statistics,
    evaluate,
    execute,
    parse_constraint,
    parse_query,
)
from repro.api import build_workload
from repro.api.plancache import PlanCache
from repro.backchase.backchase import RootVerdicts
from repro.chase.chase import ChaseEngine
from repro.errors import OptimizationError
from repro.exec.engine import explain
from repro.lru import LRU
from repro.query import parser as parser_module
from repro.query.ast import PCQuery
from repro.semcache.session import CachedSession


def rs_database(**kwargs) -> Database:
    return Database.from_workload(
        "rs", n_r=60, n_s=60, b_values=30, seed=5, **kwargs
    )


class TestFromWorkload:
    @pytest.mark.parametrize("name", ["rs", "rabc", "projdept", "oo_asr"])
    def test_builds_and_answers_the_canonical_query(
        self, name, optimized_workloads
    ):
        # the run's shared databases are `from_workload` builds
        db = optimized_workloads.database(name)
        result = db.execute(db.workload.query)
        assert result.results == evaluate(db.workload.query, db.instance)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="unknown workload"):
            Database.from_workload("nope")
        with pytest.raises(ReproError, match="unknown workload"):
            build_workload("nope")

    def test_builder_kwargs_pass_through(self):
        db = Database.from_workload("rs", n_r=10, n_s=10, b_values=5, seed=1)
        assert len(db.instance["R"]) == 10
        assert db.physical_names == db.workload.physical_names
        assert tuple(db.constraints) == tuple(db.workload.constraints)
        assert db.statistics is db.workload.statistics

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known wrong answer (ROADMAP open item 1): the write leaves the "
        "index SI stale, and the plan still reads it",
    )
    def test_a_write_that_breaks_an_index_pair_keeps_the_answer(self):
        """Raise one CitiBank project's budget: no logical constraint
        breaks, but ``SI`` still holds the old row, and the plan — a scan
        of ``SI{"CitiBank"}`` — answers from it."""

        db = Database.from_workload("projdept")
        query = db.workload.query
        projects = db.instance["Proj"]
        raised = min(
            (p for p in projects if p["CustName"] == "CitiBank"),
            key=lambda p: p["PName"],
        )
        db.instance["Proj"] = (projects - {raised}) | {
            Row({**raised, "Budg": raised["Budg"] + 1000})
        }
        assert db.execute(query).results == evaluate(query, db.instance)


class TestOptimizeContext:
    def test_frozen(self):
        ctx = OptimizeContext()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.strategy = "full"

    def test_rejects_unknown_strategy(self):
        with pytest.raises(OptimizationError, match="unknown strategy"):
            OptimizeContext(strategy="greedy")

    def test_override_appends_and_shares_constraints(self):
        dep = parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric"
        )
        extra = parse_constraint(
            "forall (s in S) -> exists (r in R) s.B = r.B", "cir"
        )
        ctx = OptimizeContext(constraints=(dep,))
        over = ctx.override(extra_constraints=(extra,))
        assert over.constraints == (dep, extra)
        assert over.constraints[0] is dep  # shared, not re-derived
        assert ctx.constraints == (dep,)  # original untouched

    def test_override_keeps_vs_clears_physical_filter(self):
        ctx = OptimizeContext(physical_names=frozenset({"R"}))
        assert ctx.override().physical_names == frozenset({"R"})
        assert ctx.override(physical_names=None).physical_names is None
        assert ctx.override(
            physical_names=frozenset({"Z"})
        ).physical_names == frozenset({"Z"})

    def test_fingerprint_is_stable_and_design_sensitive(self):
        dep = parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric"
        )
        a = OptimizeContext(constraints=(dep,))
        b = OptimizeContext(constraints=(dep,))
        assert a.fingerprint() == a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != a.override(strategy="full").fingerprint()
        assert (
            a.fingerprint()
            != a.override(physical_names=frozenset({"R"})).fingerprint()
        )
        assert a.fingerprint() != OptimizeContext().fingerprint()

    def test_fingerprint_ignores_statistics(self):
        """Statistics staleness is handled by invalidation, not key churn."""

        dep = parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric"
        )
        a = OptimizeContext(constraints=(dep,))
        refreshed = a.override(statistics=Statistics().set_card("R", 7))
        assert a.fingerprint() == refreshed.fingerprint()

    def test_no_hash_join_flag(self):
        # a hash join is a plan over a hash-table dictionary, which the
        # backchase reaches and the cost model prices; no execution flag
        # swaps one in behind the plan
        fields = {f.name for f in dataclasses.fields(OptimizeContext)}
        assert "use_hash_joins" not in fields
        with pytest.raises(TypeError):
            OptimizeContext(use_hash_joins=True)
        with pytest.raises(TypeError):
            Database(use_hash_joins=True)
        instance = Instance({"R": frozenset({Row(A=1, B=2)})})
        with pytest.raises(TypeError):
            execute(parse_query("select r.A from R r"), instance, use_hash_joins=True)

    def test_optimizer_roundtrip(self):
        """An optimizer is built over one context and reads every setting
        off it; there is no second way to build one."""

        ctx = OptimizeContext(strategy="full", max_chase_steps=77)
        opt = Optimizer(ctx)
        assert opt.context is ctx
        assert opt.optimize(parse_query("select r.A from R r")).strategy == "full"
        with pytest.raises(TypeError):
            Optimizer(constraints=(), strategy="full")
        assert not hasattr(ctx, "optimizer") and not hasattr(opt, "strategy")

    def test_backchase_and_exec_consume_contexts(self):
        from repro import minimal_subqueries

        dep = parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric"
        )
        ctx = OptimizeContext(constraints=(dep,))
        q = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B"
        )
        # the search takes its constraint set once: from the verdicts of
        # its root, whose engine chases with the context's, or beside a
        # bare query
        for strategy in ("full", "pruned"):
            verdicts = RootVerdicts(q, ChaseEngine(ctx.constraints), ctx, LRU())
            with_ctx = minimal_subqueries(verdicts, strategy=strategy)
            bare = minimal_subqueries(q, [dep], strategy=strategy)
            assert [f.canonical_key() for f in with_ctx] == [
                f.canonical_key() for f in bare
            ]
        with pytest.raises(ReproError, match="constraint set"):
            minimal_subqueries(q)

        # execute() takes its execution flags as arguments
        instance = Instance({"R": frozenset({Row(A=1, B=2)})})
        scan = parse_query("select r.A from R r")
        compiled = execute(scan, instance, mode="compiled")
        assert compiled.mode == "compiled" and compiled.results == frozenset({1})


class TestPlanCache:
    # every test counts its own database's plan-cache traffic, so none of
    # them can use conftest's shared (already warm) databases

    def test_miss_then_hits_return_the_same_result(self):
        db = rs_database()
        q = db.workload.query
        first = db.optimize(q)
        info = db.plan_cache_info()
        assert (info.misses, info.hits) == (1, 0)
        assert db.optimize(q) is first  # a hit: no chase/backchase re-run
        assert db.plan_cache_info().hits == 1

    def test_lru_eviction(self):
        db = rs_database(cache_config=CacheConfig(plan_cache_size=1))
        q1 = parse_query("select struct(A = r.A) from R r")
        q2 = parse_query("select struct(C = s.C) from S s")
        db.optimize(q1)
        db.optimize(q2)  # evicts q1
        info = db.plan_cache_info()
        assert (info.size, info.evictions) == (1, 1)
        db.optimize(q1)  # re-optimized: a miss, not a hit
        assert db.plan_cache_info().misses == 3

    def test_disabled_plan_cache(self):
        db = rs_database(cache_config=CacheConfig(plan_cache_size=0))
        db.optimize(db.workload.query)
        info = db.plan_cache_info()
        assert (info.hits, info.misses, info.size, info.max_size) == (0, 0, 0, 0)

    def test_mutation_invalidates_only_dependents(self):
        db = rs_database()
        join = db.workload.query  # reads R, S (and V/IR/IS plans)
        s_only = parse_query("select struct(C = s.C) from S s where s.C = 3")
        db.optimize(join)
        db.optimize(s_only)
        assert db.plan_cache_info().size == 2
        db.instance["R"] = db.instance["R"]  # touches R: join entry only
        info = db.plan_cache_info()
        assert info.invalidations == 1
        assert info.size == 1
        assert db.optimize(s_only)  # still a hit
        assert db.plan_cache_info().hits == 1

    def test_refresh_statistics_clears_the_cache(self):
        db = rs_database()
        db.optimize(db.workload.query)
        db.refresh_statistics()
        info = db.plan_cache_info()
        assert info.size == 0
        assert info.invalidations == 1

    def test_plancache_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_size=0)


class TestLRUPrimitive:
    """`repro.lru.LRU`, and the counters of the caches composed on it."""

    def test_eviction_order_recency_and_counters(self):
        from repro.lru import LRU, CacheInfo

        lru = LRU(max_size=2)
        assert lru.put("a", 1) == []
        assert lru.put("b", 2) == []
        assert lru.get("a") == 1  # refreshes 'a': 'b' is now the oldest
        assert lru.put("c", 3) == [("b", 2)]
        assert lru.get("b") is None
        assert list(lru) == ["a", "c"]
        assert lru.put("a", 4) == []  # overwrite: no eviction, most recent
        assert list(lru) == ["c", "a"] and list(lru.values()) == [3, 4]
        assert lru.cache_info() == CacheInfo(
            hits=1, misses=1, size=2, max_size=2, evictions=1
        )
        assert lru.pop("c") == 3 and lru.pop("c") is None
        lru.clear()
        info = lru.cache_info()  # neither pop nor clear touches a counter
        assert (info.hits, info.misses, info.size, info.evictions) == (1, 1, 0, 1)

    def test_unbounded_and_bad_bound(self):
        from repro.lru import LRU

        lru = LRU(max_size=None)
        for i in range(300):
            assert lru.put(i, str(i)) == []
        assert len(lru) == 300 and lru.cache_info().evictions == 0
        with pytest.raises(ValueError):
            LRU(max_size=0)

    def test_composed_caches_report_the_pre_refactor_numbers(self):
        """One fixed script; the expected counters were recorded from the
        hand-rolled `OrderedDict` stores this primitive replaced."""

        from repro.lru import LRU

        verdicts = LRU(max_size=2)
        for name, verdict in (("a", True), ("b", False), ("c", True)):
            verdicts.get((name, name))
            verdicts.put((name, name), verdict)
        verdicts.get(("b", "b"))
        verdicts.get(("a", "a"))
        verdicts.put(("b", "b"), True)
        verdicts.get(("c", "c"))
        assert dataclasses.asdict(verdicts.cache_info()) == dict(
            hits=2, misses=4, size=2, max_size=2, evictions=1, invalidations=0
        )

        plans = PlanCache(max_size=2)
        instance = Instance({"R": 1, "S": 2, "T": 3})
        plans.put(("q1", "f"), "r1", frozenset({"R"}))
        plans.put(("q2", "f"), "r2", frozenset({"R", "S"}))
        plans.get(("q1", "f"))
        plans.get(("q9", "f"))
        plans.put(("q3", "f"), "r3", frozenset({"S"}))  # evicts q2
        plans.put(("q1", "f"), "r1b", frozenset({"T"}))  # re-put: R -> T
        instance["R"] = 1
        assert plans.invalidate_source(instance) == 0  # q2 evicted, q1 on T
        instance["T"] = 3
        assert plans.invalidate_source(instance) == 1
        assert len(plans) == 1
        plans.put(("q4", "f"), "r4", frozenset())
        assert plans.clear() == 2
        assert dataclasses.asdict(plans.cache_info()) == dict(
            hits=1, misses=1, size=0, max_size=2, evictions=1, invalidations=3
        )


class TestExecuteAndPrepare:
    def test_execute_equals_cold_pipeline(self):
        db = rs_database()
        q = db.workload.query
        cold_opt = Optimizer(
            OptimizeContext(
                constraints=list(db.constraints),
                physical_names=db.physical_names,
                statistics=db.statistics,
            )
        )
        cold = execute(cold_opt.optimize(q).best.query, db.instance)
        got = db.execute(q)
        assert got.results == cold.results == evaluate(q, db.instance)
        assert got.plan_text == cold.plan_text

    def test_prepare_skips_chase_on_repeat_runs(self):
        db = rs_database()
        q = db.workload.query
        prepared = db.prepare(q)  # pays the single optimization
        assert db.plan_cache_info().misses == 1
        first = prepared.run()
        second = prepared.run()
        info = db.plan_cache_info()
        assert info.misses == 1  # no re-optimization happened
        assert info.hits >= 2  # every run() re-fetched the cached plan
        assert first.results == second.results == db.execute(q).results

    def test_prepared_run_with_overlays(self):
        instance = Instance({"R": frozenset(Row(A=i, B=i % 2) for i in range(6))})
        db = Database(instance=instance)
        prepared = db.prepare(parse_query("select r.A from R r where r.B = 1"))
        assert len(prepared.run()) == 3
        shadow = frozenset({Row(A=99, B=1)})
        assert prepared.run(overlays={"R": shadow}).results == frozenset({99})
        # the overlay never leaked into the base instance
        assert len(prepared.run()) == 3

    def test_prepared_run_against_substitute_instance(self):
        db = rs_database()
        q = parse_query("select struct(C = s.C) from S s where s.C = 0")
        prepared = db.prepare(q)
        other = Instance({"S": frozenset({Row(B=1, C=0)})})
        assert len(prepared.run(instance=other)) == 1

    def test_mutation_reoptimizes_prepared_plan(self):
        # A database with no derived structures: mutations cannot leave
        # the physical design stale, so logical equivalence must survive.
        instance = Instance(
            {"S": frozenset(Row(B=i % 4, C=i) for i in range(8))}
        )
        db = Database(instance=instance)
        q = parse_query("select struct(C = s.C) from S s where s.B = 3")
        prepared = db.prepare(q)
        prepared.run()
        instance["S"] = frozenset({Row(B=3, C=41), Row(B=4, C=2)})
        assert db.plan_cache_info().invalidations >= 1
        got = prepared.run()  # transparently re-optimized
        assert got.results == evaluate(q, instance)
        assert len(got.results) == 1
        assert db.plan_cache_info().misses == 2
        # auto-observed statistics refreshed from the mutated instance
        assert db.statistics.card("S") == 2.0

    def test_execute_with_params_is_one_probe_and_one_request(self):
        """`execute(template, params=…)` used to route through
        `prepare(...).run(...)`: two plan-cache probes and two tracer
        requests (`db.prepare`, `db.run_prepared`) per client request."""

        from repro.obs import ObsConfig

        db = rs_database(obs=ObsConfig(tracing=True))
        template = "select r.A from R r where r.B = $b"
        db.execute(template, params={"b": 1})  # the one miss
        before = db.plan_cache_info()
        requests = set(db.tracer.requests())
        got = db.execute(template, params={"b": 2})
        after = db.plan_cache_info()
        assert (after.hits - before.hits, after.misses) == (1, before.misses)
        (request_id,) = set(db.tracer.requests()) - requests
        spans = db.tracer.request_spans(request_id)
        assert [s.name for s in spans if s.depth == 0] == ["db.execute"]
        assert got.results == evaluate(
            parse_query(template).bind_params({"b": 2}), db.instance
        )
        # prepare(t).run(**b) stays at one probe per run
        prepared = db.prepare(template)
        before = db.plan_cache_info().hits
        prepared.run(b=2)
        assert db.plan_cache_info().hits == before + 1

    def test_execute_without_instance_raises(self):
        db = Database(constraints=())
        with pytest.raises(ReproError, match="no instance"):
            db.execute(parse_query("select r.A from R r"))
        with pytest.raises(ReproError, match="no instance"):
            db.session()


def derives_nothing_when_repeated(
    request, db: Database, repeats: int = 100
) -> int:
    """Assert that, after one warm-up ``request(0)``, ``repeats`` further
    requests construct no parser and rename no variable; returns the
    parse-memo hits they scored, read off ``db.metrics()``."""

    def hits() -> int:
        return db.metrics()["sources"]["query.parse_cache"]["hits"]

    request(0)
    before = hits()
    with recording(parser_module, "_Parser") as parsers, recording(
        PCQuery, "rename_vars"
    ) as renames:
        for i in range(1, repeats + 1):
            request(i)
    assert len(parsers) == 0, f"{len(parsers)} _Parser constructions"
    assert len(renames) == 0, f"{len(renames)} rename_vars calls"
    return hits() - before


class TestRepeatedTextDerivesNothing:
    """Why a plan-cache hit is cheap (the effect is ``steady_templates``
    ``latency_p50_ms`` of ``benchmarks/perf``): a text served before is
    one memo probe, and its query object canonicalized when it was first
    keyed — on each of the three front doors."""

    TEMPLATE = "select struct(A = r.A) from R r where r.B = $b"

    def test_execute_text_over_two_bindings(self):
        db = rs_database()
        template = parse_query(self.TEMPLATE)
        expected = [
            evaluate(template.bind_params({"b": b}), db.instance) for b in (0, 1)
        ]

        def request(i):
            got = db.execute(self.TEMPLATE, params={"b": i % 2})
            assert got.results == expected[i % 2]

        assert derives_nothing_when_repeated(request, db) >= 99
        info = db.plan_cache_info()
        assert (info.misses, info.hits) == (1, 100)
        db.close()

    def test_prepared_run(self):
        db = rs_database()
        prepared = db.prepare(self.TEMPLATE)
        derives_nothing_when_repeated(lambda i: prepared.run(b=i % 2), db)
        db.close()

    def test_session_exact_hit(self):
        db = rs_database()
        session = db.session()
        text = "select struct(A = r.A) from R r where r.B = 1"
        sources = []
        hits = derives_nothing_when_repeated(
            lambda i: sources.append(session.run(parse_query(text)).source), db
        )
        assert hits >= 99
        assert sources == ["cold"] + ["exact"] * 100
        session.close()
        db.close()

    def test_a_memo_that_always_misses_is_caught(self, monkeypatch):
        monkeypatch.setattr(parser_module._PARSED, "get", lambda text: None)
        db = rs_database()
        with pytest.raises(AssertionError, match="100 _Parser constructions"):
            derives_nothing_when_repeated(
                lambda i: db.execute(self.TEMPLATE, params={"b": i % 2}), db
            )
        db.close()

    def test_a_canonical_form_that_is_not_remembered_is_caught(self, monkeypatch):
        real = PCQuery.canonical

        def forgetful(self):
            self.__dict__.pop("_canonical", None)
            return real(self)

        monkeypatch.setattr(PCQuery, "canonical", forgetful)
        db = rs_database()
        prepared = db.prepare(self.TEMPLATE)
        with pytest.raises(AssertionError, match="100 rename_vars calls"):
            derives_nothing_when_repeated(lambda i: prepared.run(b=i % 2), db)
        db.close()


@pytest.mark.parametrize("mix", sorted(SERVING_MIXES))
class TestPreparedMixes:
    """Prepared queries on the two repeated mixes (formerly benchmark E15):
    why a prepared request is fast is that it never re-optimizes — pinned
    here without a clock; how fast is ``steady_templates`` beside
    ``cold_projdept`` / ``cold_mix`` in ``benchmarks/perf``."""

    def test_one_optimization_per_distinct_query(self, mix, serving_mixes):
        _, statements, info = serving_mixes[mix].prepared
        # the eager prepares, and nothing else
        n = len(statements)
        assert (info.misses, info.hits, info.size) == (n, 0, n)
        assert info.evictions == info.invalidations == 0

    def test_a_steady_pass_never_enters_the_optimizer(self, mix, serving_mixes):
        db, statements, _ = serving_mixes[mix].prepared
        search_counters = lambda: {
            name: value
            for name, value in db.metrics()["counters"].items()
            if name.startswith(("backchase.", "containment."))
        }
        before, counters = db.plan_cache_info(), search_counters()
        assert counters["backchase.candidates_explored"] > 0
        with recording(Optimizer, "optimize") as optimized:
            answers = [s.run().results for _ in range(2) for s in statements]
        after = db.plan_cache_info()
        assert optimized == []
        assert search_counters() == counters
        # every run() re-fetched its cached plan
        assert after.hits - before.hits == 2 * len(statements)
        assert (after.misses, after.evictions, after.invalidations) == (
            before.misses, 0, 0,
        )
        expected = [evaluate(s.query, db.instance) for s in statements]
        assert answers == expected * 2


class TestExplainParity:
    """Satellite regression: ``Database.explain`` must render exactly what
    would execute — including the hybrid ``[cached]`` overlay tags that
    ``exec.engine.explain`` used to drop unless callers threaded
    ``cached_names`` by hand."""

    WARM = "select struct(A = r.A, B = r.B) from R r where r.A = 4"
    PARTIAL = (
        "select struct(A = r.A, C = s.C) from R r, S s "
        "where r.B = s.B and r.A = 4"
    )

    def test_engine_explain_threads_cached_names(self):
        q = parse_query(self.WARM)
        assert "[cached]" not in explain(q)
        assert "[cached]" in explain(q, cached_names=frozenset({"R"}))

    def test_explain_matches_execute(self):
        db = rs_database()
        q = db.workload.query
        assert db.explain(q) == db.execute(q).plan_text

    def test_explain_matches_session_on_every_tier(self):
        db = rs_database()
        session = db.session()
        warm = parse_query(self.WARM)
        partial = parse_query(self.PARTIAL)

        # cold tier: nothing cached yet
        assert db.explain(warm, session=session) == session.run(warm).plan_text

        # hybrid tier: the partial query joins the cached selection with S
        text = db.explain(partial, session=session)
        ran = session.run(partial)
        assert ran.source == "hybrid"
        assert text == ran.plan_text
        assert "[cached]" in text

        # exact tier: the promoted answer executes no plan at all
        assert db.explain(partial, session=session) == ""
        exact = session.run(partial)
        assert exact.source == "exact" and exact.plan_text == ""

        # a session with nothing cached explains the raw cold execution
        assert db.explain(partial, session=db.session()) == explain(partial)
        session.close()
        db.close()

    def test_explain_is_a_pure_peek(self):
        db = rs_database()
        session = db.session()
        session.run(parse_query(self.WARM))
        before = session.stats.as_dict()
        views_before = {v.name: v.hits for v in session.cache.views()}
        db.explain(parse_query(self.PARTIAL), session=session)
        assert session.stats.as_dict() == before
        assert {v.name: v.hits for v in session.cache.views()} == views_before
        session.close()


class TestSessionWiring:
    def test_session_inherits_the_database_context(self):
        db = rs_database()
        session = db.session()
        assert session.context is session.cache.context is db.context
        assert session.hybrid is True
        session.close()

    def test_a_session_has_no_disabled_mode(self):
        """A session always serves through its cache; the query run as
        written, uncached, is ``execute`` on the instance."""

        db = rs_database()
        with pytest.raises(TypeError):
            db.session(enabled=False)
        with pytest.raises(TypeError):
            CachedSession(db.instance, enabled=False)


class TestNothingHoldsADroppedOwner:
    """The instance keeps no reference to what reads it: a session or a
    database nobody holds any more is freed without ``close()``."""

    QUERY = "select struct(A = r.A) from R r"

    def test_dropped_sessions_are_freed_and_leave_the_metrics(self):
        db = rs_database()
        refs = []
        for _ in range(5):
            session = db.session()
            session.run(parse_query(self.QUERY))
            refs.append(weakref.ref(session))
        del session
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5
        sources = db.metrics()["sources"]
        assert [name for name in sources if name.startswith("semcache")] == []

    def test_an_unclosed_database_is_freed_while_its_instance_lives(self):
        db = rs_database()
        instance = db.instance
        db.execute(self.QUERY)
        ref = weakref.ref(db)
        del db
        gc.collect()
        assert ref() is None
        assert instance["R"]  # the instance outlives it
