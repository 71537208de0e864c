"""Unit tests for the semantic result cache (repro.semcache)."""

from __future__ import annotations

import pytest

from conftest import SERVING_MIXES, serve_mix
from repro import (
    Database,
    Instance,
    OptimizeContext,
    Row,
    Statistics,
    evaluate,
    parse_query,
)
from repro.chase.chase import ChaseEngine
from repro.lru import LRU
from repro.obs import ObsConfig
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import Optimizer
from repro.query.parser import parse_constraint
from repro.semcache import (
    COLD,
    EXACT,
    HYBRID,
    REWRITE,
    CachedSession,
    CostBenefitPolicy,
    SemanticCache,
    make_cached_view,
    view_definition,
    view_extent,
)


def observed(instance: Instance) -> OptimizeContext:
    """A default context over the instance's observed statistics."""

    return OptimizeContext(statistics=Statistics.from_instance(instance))


@pytest.fixture
def rs_instance_large() -> Instance:
    r = frozenset(Row(A=i, B=i % 7) for i in range(40))
    s = frozenset(Row(B=i % 7, C=i) for i in range(30))
    return Instance({"R": r, "S": s})


@pytest.fixture
def session(rs_instance_large) -> CachedSession:
    # View-only mode: these tests pin the all-or-nothing rewrite tier's
    # contract (a hit reads cached extents exclusively).  Hybrid mode has
    # its own class below and the differential harness in
    # test_prop_hybrid.py.
    sess = CachedSession(
        rs_instance_large,
        context=observed(rs_instance_large),
        hybrid=False,
    )
    yield sess
    sess.close()


JOIN = "select struct(A = r.A, B = s.B, C = s.C) from R r, S s where r.B = s.B"
CONTAINED = (
    "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B and s.C = 3"
)


class TestViewCapture:
    def test_struct_query_is_its_own_definition(self):
        q = parse_query(JOIN)
        assert view_definition(q) is q

    def test_path_query_wraps_value_field(self):
        q = parse_query("select r.A from R r where r.B = 5")
        definition = view_definition(q)
        assert [name for name, _ in definition.output.fields] == ["value"]
        extent = view_extent(q, frozenset({1, 2}))
        assert extent == frozenset({Row(value=1), Row(value=2)})

    def test_cached_view_derives_constraint_pair(self):
        view = make_cached_view("_SC1", parse_query(JOIN), frozenset(), 1)
        names = [c.name for c in view.constraints]
        assert names == ["_SC1_cv", "_SC1_cv'"]
        assert view.sources == frozenset({"R", "S"})

    def test_plan_only_view(self):
        view = make_cached_view("_SC1", parse_query(JOIN), None, 1)
        assert view.plan_only and view.tuples() == 0


class TestSessionPaths:
    def test_cold_then_exact(self, session, rs_instance_large):
        q = parse_query(JOIN)
        first = session.run(q)
        assert first.source == COLD
        assert first.results == evaluate(q, rs_instance_large)
        again = session.run(q)
        assert again.source == EXACT
        assert again.results == first.results
        assert again.view_names

    def test_contained_query_rewrites_onto_cache(self, session, rs_instance_large):
        session.run(parse_query(JOIN))
        result = session.run(parse_query(CONTAINED))
        assert result.source == REWRITE
        assert result.results == evaluate(parse_query(CONTAINED), rs_instance_large)
        # the plan reads only cache-owned names
        assert all(name.startswith("_SC") for name in result.view_names)

    def test_rewrite_promotes_to_exact(self, session):
        session.run(parse_query(JOIN))
        assert session.run(parse_query(CONTAINED)).source == REWRITE
        assert session.run(parse_query(CONTAINED)).source == EXACT

    def test_uncachable_query_stays_cold(self, session, rs_instance_large):
        session.run(parse_query(JOIN))
        # projects an attribute combination the cached view cannot supply a
        # proof for under no base constraints: different relation T is absent,
        # so use a fresh selection on R alone (not contained in the join).
        q = parse_query("select struct(A = r.A, B = r.B) from R r")
        result = session.run(q)
        assert result.source == COLD
        assert result.results == evaluate(q, rs_instance_large)

    def test_disabled_session_is_plain_executor(self, rs_instance_large):
        sess = CachedSession(rs_instance_large, enabled=False)
        q = parse_query(JOIN)
        assert sess.run(q).source == COLD
        assert sess.run(q).source == COLD
        assert len(sess.cache) == 0

    def test_stats_counters_add_up(self, session):
        session.run(parse_query(JOIN))          # cold
        session.run(parse_query(JOIN))          # exact
        session.run(parse_query(CONTAINED))     # rewrite
        stats = session.stats
        assert stats.lookups == 3
        assert stats.exact_hits == 1
        assert stats.rewrite_hits == 1
        assert stats.misses == 1
        assert stats.hits == 2
        assert 0.0 < stats.hit_rate() <= 1.0


class TestHybridSession:
    """The partial-hit tier: plans mixing cached extents and base data."""

    @pytest.fixture
    def big_instance(self) -> Instance:
        # R large enough that re-scanning it estimates (and is) costlier
        # than scanning a small cached selection of it.
        r = frozenset(Row(A=i % 50, B=i % 7) for i in range(400))
        s = frozenset(Row(B=i % 7, C=i) for i in range(90))
        return Instance({"R": r, "S": s})

    WARM = "select struct(A = r.A, B = r.B) from R r where r.A = 1"
    PARTIAL = (
        "select struct(A = r.A, C = s.C) from R r, S s "
        "where r.B = s.B and r.A = 1"
    )

    def _session(self, instance, **options) -> CachedSession:
        return CachedSession(
            instance, context=observed(instance), **options
        )

    def test_partial_overlap_served_hybrid(self, big_instance):
        with self._session(big_instance) as sess:
            assert sess.run(parse_query(self.WARM)).source == COLD
            got = sess.run(parse_query(self.PARTIAL))
            assert got.source == HYBRID
            assert got.results == evaluate(parse_query(self.PARTIAL), big_instance)
            assert got.view_names and all(
                name.startswith("_SC") for name in got.view_names
            )
            assert "S" in got.base_names  # the uncovered base relation
            assert "[cached]" in got.plan_text
            assert sess.stats.hybrid_hits == 1
            assert sess.stats.rewrite_hits == 0
            assert sess.stats.benefit_accrued > 0.0

    def test_view_only_mode_misses_partial_overlap(self, big_instance):
        with self._session(big_instance, hybrid=False) as sess:
            sess.run(parse_query(self.WARM))
            got = sess.run(parse_query(self.PARTIAL))
            assert got.source == COLD
            assert sess.stats.hybrid_hits == 0

    def test_hybrid_promotes_to_exact(self, big_instance):
        with self._session(big_instance) as sess:
            sess.run(parse_query(self.WARM))
            assert sess.run(parse_query(self.PARTIAL)).source == HYBRID
            assert sess.run(parse_query(self.PARTIAL)).source == EXACT

    def test_base_mutation_never_serves_stale_hybrid(self, big_instance):
        with self._session(big_instance) as sess:
            sess.run(parse_query(self.WARM))
            assert sess.run(parse_query(self.PARTIAL)).source == HYBRID
            # mutate the base relation the hybrid plan reads directly: the
            # promoted exact entry must drop (it depends on S), while the
            # sigma(R) view survives and serves a fresh hybrid answer
            # against the live S.
            big_instance["S"] = frozenset(
                Row(B=i % 7, C=i + 1000) for i in range(90)
            )
            got = sess.run(parse_query(self.PARTIAL))
            assert got.source in (HYBRID, COLD)
            assert got.results == evaluate(
                parse_query(self.PARTIAL), big_instance
            )
            assert all(row["C"] >= 1000 for row in got.results)

    def test_rewrite_carries_benefit_and_base_names(self, big_instance):
        cache = SemanticCache(observed(big_instance))
        warm = parse_query(self.WARM)
        cache.register(warm, evaluate(warm, big_instance))
        rewrite = cache.plan_rewrite(
            parse_query(self.PARTIAL),
            base_names=frozenset(big_instance.names()),
        )
        assert rewrite is not None and rewrite.hybrid
        assert rewrite.base_names() == frozenset({"S"})
        assert rewrite.benefit > 0.0
        assert rewrite.cold_cost > rewrite.result.best.cost
        view = rewrite.views[0]
        assert view.benefit == pytest.approx(rewrite.benefit)

    def test_view_only_filter_unchanged_without_base_names(self, big_instance):
        cache = SemanticCache(observed(big_instance))
        warm = parse_query(self.WARM)
        cache.register(warm, evaluate(warm, big_instance))
        assert cache.plan_rewrite(parse_query(self.PARTIAL)) is None
        assert cache.stats.hybrid_hits == 0


class TestInvalidation:
    def test_mutation_drops_dependent_views(self, session, rs_instance_large):
        q = parse_query(JOIN)
        session.run(q)
        assert len(session.cache) == 1
        rs_instance_large["R"] = frozenset(Row(A=99, B=0) for _ in range(1))
        assert session.stats.invalidations == 1  # the read sweeps
        assert len(session.cache) == 0
        fresh = session.run(q)
        assert fresh.source == COLD
        assert fresh.results == evaluate(q, rs_instance_large)

    def test_unrelated_mutation_keeps_views(self, session, rs_instance_large):
        session.run(parse_query("select struct(C = s.C) from S s"))
        rs_instance_large["R"] = frozenset()
        assert len(session.cache) == 1
        assert session.stats.invalidations == 0

    def test_class_dict_mutation_invalidates_deref_views(self):
        """Queries that dereference oids depend on the class dictionary
        even though it never appears syntactically (review regression)."""

        from repro.workloads.projdept import build_projdept

        wl = build_projdept(n_depts=2, projs_per_dept=2, seed=1)
        q = parse_query("select struct(DN = d.DName) from depts d")
        with CachedSession(wl.instance) as sess:
            first = sess.run(q)
            assert first.source == COLD
            view = sess.cache.views()[0]
            assert "Dept" in view.dependencies
            assert "Dept" not in view.sources  # relevance stays syntactic
            # mutate the class dictionary the query reads through oids
            from repro.model.values import DictValue, Oid, Row as VRow

            wl.instance["Dept"] = DictValue(
                {
                    oid: VRow(
                        DName="RENAMED",
                        DProjs=row["DProjs"],
                        MgrName=row["MgrName"],
                    )
                    for oid, row in wl.instance["Dept"].items()
                }
            )
            assert sess.stats.invalidations == 1  # the read sweeps
            assert len(sess.cache) == 0
            fresh = sess.run(q)
            assert fresh.source == COLD
            assert fresh.results == evaluate(q, wl.instance)
            assert all(row["DN"] == "RENAMED" for row in fresh.results)


class TestEviction:
    def test_max_views_bound_enforced(self, rs_instance_large):
        sess = CachedSession(
            rs_instance_large,
            cache=SemanticCache(
                observed(rs_instance_large),
                CostBenefitPolicy(max_views=2, max_total_tuples=10_000),
            ),
        )
        for const in (0, 1, 2, 3):
            sess.run(parse_query(f"select struct(A = r.A) from R r where r.B = {const}"))
        assert len(sess.cache) <= 2
        assert sess.stats.evictions >= 2
        sess.close()

    def test_hot_views_survive(self, rs_instance_large):
        sess = CachedSession(
            rs_instance_large,
            cache=SemanticCache(
                observed(rs_instance_large),
                CostBenefitPolicy(max_views=2, max_total_tuples=10_000),
            ),
        )
        hot = parse_query(JOIN)
        sess.run(hot)
        for _ in range(5):
            sess.run(hot)  # exact hits make it sticky
        sess.run(parse_query("select struct(C = s.C) from S s where s.B = 1"))
        sess.run(parse_query("select struct(C = s.C) from S s where s.B = 2"))
        surviving = {v.query.canonical_key() for v in sess.cache.views()}
        assert hot.canonical_key() in surviving
        sess.close()

    def test_tuple_budget_keeps_newest(self):
        instance = Instance({"R": frozenset(Row(A=i, B=0) for i in range(50))})
        sess = CachedSession(
            instance,
            cache=SemanticCache(
                observed(instance),
                CostBenefitPolicy(max_views=10, max_total_tuples=60),
            ),
        )
        sess.run(parse_query("select struct(A = r.A) from R r"))          # 50 tuples
        sess.run(parse_query("select struct(A = r.A, B = r.B) from R r"))  # 50 more
        assert sess.cache.total_tuples() <= 60
        assert len(sess.cache) == 1
        sess.close()


class TestPolicyEdgeCases:
    """Direct coverage of CostBenefitPolicy: deterministic tie-breaks and
    degenerate (zero/negative) budgets, previously only reached through
    the property harnesses."""

    def _view(self, name, text, n_tuples, registered_at, hits=0, benefit=0.0):
        view = make_cached_view(
            name,
            parse_query(text),
            frozenset(Row(A=i) for i in range(n_tuples)),
            registered_at=registered_at,
        )
        view.hits = hits
        view.benefit = benefit
        return view

    def _stats(self):
        return Statistics().set_card("R", 500).set_card("S", 500)

    def test_equal_scores_evict_oldest_first(self):
        policy = CostBenefitPolicy(max_views=1, max_total_tuples=10_000)
        old = self._view("_SC1", "select struct(A = r.A) from R r where r.B = 1", 5, 1)
        new = self._view("_SC2", "select struct(A = r.A) from R r where r.B = 2", 5, 2)
        views = {"_SC2": new, "_SC1": old}  # insertion order must not matter
        stats, model = self._stats(), CostModel()
        assert policy.score(old, stats, model) == policy.score(new, stats, model)
        assert policy.victims(views, stats, model) == ["_SC1"]

    def test_hits_break_otherwise_equal_scores(self):
        policy = CostBenefitPolicy(max_views=1, max_total_tuples=10_000)
        hot_old = self._view(
            "_SC1", "select struct(A = r.A) from R r where r.B = 1", 5, 1, hits=3
        )
        cold_new = self._view(
            "_SC2", "select struct(A = r.A) from R r where r.B = 2", 5, 2
        )
        victims = policy.victims(
            {"_SC1": hot_old, "_SC2": cold_new}, self._stats(), CostModel()
        )
        assert victims == ["_SC2"]  # demand outweighs age

    def test_observed_benefit_makes_views_sticky(self):
        policy = CostBenefitPolicy(max_views=1, max_total_tuples=10_000)
        earner_old = self._view(
            "_SC1", "select struct(A = r.A) from R r where r.B = 1", 5, 1,
            benefit=250.0,
        )
        idle_new = self._view(
            "_SC2", "select struct(A = r.A) from R r where r.B = 2", 5, 2
        )
        victims = policy.victims(
            {"_SC1": earner_old, "_SC2": idle_new}, self._stats(), CostModel()
        )
        assert victims == ["_SC2"]  # accrued hybrid benefit outweighs age

    def test_plan_only_evicted_before_live_data(self):
        policy = CostBenefitPolicy(max_views=2, max_total_tuples=10_000)
        plan_only = make_cached_view(
            "_SC1", parse_query("select struct(A = r.A) from R r where r.B = 1"),
            None, registered_at=1,
        )
        live = self._view("_SC2", "select struct(A = r.A) from R r where r.B = 2", 5, 2)
        newer = self._view("_SC3", "select struct(A = r.A) from R r where r.B = 3", 5, 3)
        assert policy.score(plan_only, self._stats(), CostModel()) == 0.0
        victims = policy.victims(
            {"_SC1": plan_only, "_SC2": live, "_SC3": newer},
            self._stats(), CostModel(),
        )
        assert victims == ["_SC1"]  # the zero-scorer goes first

    def test_zero_view_budget_keeps_exactly_the_newest(self):
        policy = CostBenefitPolicy(max_views=0, max_total_tuples=10_000)
        views = {
            f"_SC{i}": self._view(
                f"_SC{i}", f"select struct(A = r.A) from R r where r.B = {i}", 4, i
            )
            for i in (1, 2, 3)
        }
        victims = policy.victims(views, self._stats(), CostModel())
        # never empties the pool: one survivor even at budget zero
        assert len(victims) == 2
        assert set(victims) == {"_SC1", "_SC2"}

    def test_zero_tuple_budget_keeps_single_oversized_view(self):
        policy = CostBenefitPolicy(max_views=10, max_total_tuples=0)
        big = self._view("_SC1", "select struct(A = r.A) from R r", 50, 1)
        assert policy.victims({"_SC1": big}, self._stats(), CostModel()) == []

    def test_zero_budget_cache_end_to_end(self, rs_instance_large):
        """A session under a zero-view budget still answers correctly and
        holds at most one view."""

        sess = CachedSession(
            rs_instance_large,
            cache=SemanticCache(
                observed(rs_instance_large),
                CostBenefitPolicy(max_views=0, max_total_tuples=0),
            ),
        )
        for const in (0, 1, 2):
            q = parse_query(
                f"select struct(A = r.A) from R r where r.B = {const}"
            )
            assert sess.run(q).results == evaluate(q, rs_instance_large)
        assert len(sess.cache) <= 1
        assert sess.stats.evictions >= 2
        sess.close()


class TestTierWalk:
    """exact → rewrite → miss is written once (``SemanticCache.lookup``);
    ``record=False`` makes it a peek.  The expected counters were recorded
    from the parent commit (42e568b), where the session, ``Database.explain``
    and the CLI each walked the tiers themselves."""

    WARM = "select struct(A = r.A, B = r.B) from R r where r.A = 1"
    PARTIAL = (
        "select struct(A = r.A, C = s.C) from R r, S s "
        "where r.B = s.B and r.A = 1"
    )
    NARROW = "select struct(B = r.B) from R r where r.A = 1 and r.B = 1"
    OTHER = "select struct(C = s.C) from S s where s.B = 2"

    #: (request, source served, the non-zero CacheStats fields after it)
    SCRIPT = [
        (WARM, COLD, dict(lookups=1, misses=1, registrations=1)),
        (WARM, EXACT, dict(lookups=2, exact_hits=1, misses=1, registrations=1)),
        (PARTIAL, HYBRID, dict(
            lookups=3, exact_hits=1, hybrid_hits=1, misses=1,
            rewrite_attempts=1, registrations=2, benefit_accrued=343.0)),
        (NARROW, REWRITE, dict(
            lookups=4, exact_hits=1, rewrite_hits=1, hybrid_hits=1, misses=1,
            rewrite_attempts=2, registrations=3, benefit_accrued=686.0)),
        (OTHER, COLD, dict(
            lookups=5, exact_hits=1, rewrite_hits=1, hybrid_hits=1, misses=2,
            rewrite_attempts=2, registrations=4, benefit_accrued=686.0)),
        (PARTIAL, EXACT, dict(
            lookups=6, exact_hits=2, rewrite_hits=1, hybrid_hits=1, misses=2,
            rewrite_attempts=2, registrations=4, benefit_accrued=686.0)),
        ("mutate S", None, dict(
            lookups=6, exact_hits=2, rewrite_hits=1, hybrid_hits=1, misses=2,
            rewrite_attempts=2, registrations=4, invalidations=2,
            benefit_accrued=686.0)),
        (PARTIAL, HYBRID, dict(
            lookups=7, exact_hits=2, rewrite_hits=1, hybrid_hits=2, misses=2,
            rewrite_attempts=3, registrations=5, invalidations=2,
            benefit_accrued=1029.0)),
        (NARROW, EXACT, dict(
            lookups=8, exact_hits=3, rewrite_hits=1, hybrid_hits=2, misses=2,
            rewrite_attempts=3, registrations=5, invalidations=2,
            benefit_accrued=1029.0)),
    ]

    @staticmethod
    def _instance() -> Instance:
        r = frozenset(Row(A=i % 50, B=i % 7) for i in range(400))
        s = frozenset(Row(B=i % 7, C=i) for i in range(90))
        return Instance({"R": r, "S": s})

    @staticmethod
    def _state(cache):
        return cache.stats.as_dict(), [
            (v.name, v.hits, v.benefit, v.last_used_at) for v in cache.views()
        ]

    def test_run_moves_what_it_moved_and_explain_moves_nothing(self):
        db = Database(instance=self._instance())
        sess = db.session()
        for request, source, moved in self.SCRIPT:
            if source is None:
                db.instance["S"] = frozenset(
                    Row(B=i % 7, C=i + 1000) for i in range(90)
                )
            else:
                query = parse_query(request)
                before = self._state(sess.cache)
                predicted = db.explain(query, session=sess)
                assert self._state(sess.cache) == before
                served = sess.run(query)
                assert served.source == source
                assert served.plan_text == predicted
            stats = sess.stats.as_dict()
            assert {k: v for k, v in stats.items() if v} == moved
        assert [
            (v.name, v.hits, v.benefit, v.last_used_at)
            for v in sess.cache.views()
        ] == [("_SC1", 3, 1029.0, 9), ("_SC6", 0, 0.0, 11), ("_SC10", 0, 0.0, 10)]
        sess.close()
        db.close()

    def test_plan_level_peek_moves_nothing(self):
        """The CLI's ``optimize --cache`` configuration: entries without
        results, the query's own names as the base side."""

        cache = SemanticCache()
        warm, narrow = parse_query(self.WARM), parse_query(self.NARROW)
        assert cache.lookup(warm, record=False) == (None, None)
        assert cache.stats == type(cache.stats)()
        cache.register(warm)
        before = self._state(cache)
        for base in (None, narrow.schema_names):
            exact, rewrite = cache.lookup(narrow, base_names=base, record=False)
            assert exact is None  # a plan-only entry holds nothing to serve
            assert rewrite is not None and not rewrite.executable
            assert self._state(cache) == before
        # ... and the same walk, recording
        assert cache.lookup(narrow)[1] is not None
        assert cache.lookup(parse_query(self.OTHER)) == (None, None)
        stats = cache.stats
        assert (stats.lookups, stats.rewrite_hits, stats.misses) == (2, 1, 1)
        assert cache.get("_SC1").hits == 1

    def test_lookup_exact_is_peek_exact_plus_bookkeeping(self):
        instance = self._instance()
        cache = SemanticCache(observed(instance))
        warm = parse_query(self.WARM)
        view = cache.register(warm, evaluate(warm, instance))
        used = view.last_used_at
        assert cache.peek_exact(warm) is view
        assert (cache.stats.lookups, view.last_used_at) == (0, used)
        assert cache.lookup_exact(warm) is view
        assert (cache.stats.lookups, cache.stats.exact_hits) == (1, 1)
        assert view.last_used_at > used


class TestSessionExecMode:
    """Sessions run in the database's ``exec_mode`` (they used to call
    the engine with neither the context nor a mode, so a compiled
    database's sessions ran interpreted)."""

    @pytest.mark.parametrize("mode", ("interpret", "compiled"))
    def test_cold_miss_and_hybrid_rewrite(self, mode):
        instance = TestTierWalk._instance()
        db = Database(
            instance=instance, exec_mode=mode, obs=ObsConfig(tracing=True)
        )
        assert db.execute(TestTierWalk.WARM).mode == mode
        with db.session() as sess:
            for text, source in (
                (TestTierWalk.WARM, COLD),
                (TestTierWalk.PARTIAL, HYBRID),
            ):
                db.obs.tracer.clear()
                query = parse_query(text)
                served = sess.run(query)
                assert served.source == source
                assert served.results == evaluate(query, instance)
                (span,) = [
                    s for s in db.obs.tracer.spans if s.name == "phase.exec"
                ]
                assert span.attrs["mode"] == mode
        db.close()

    #: a join served cold, a selection, and the join it covers (hybrid)
    REQUESTS = (
        (
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and r.A = 2",
            COLD,
        ),
        (TestTierWalk.WARM, COLD),
        (TestTierWalk.PARTIAL, HYBRID),
    )

    @pytest.mark.parametrize("mode", ("interpret", "compiled"))
    def test_a_standalone_session_runs_what_its_context_says(self, mode):
        """``CachedSession(db.instance, context=db.context)`` serves what
        ``db.session()`` serves, hash joins included: the context alone
        says how plans run (a standalone session used to take
        ``use_hash_joins`` from an argument of its own, off by default)."""

        instance = TestTierWalk._instance()
        db = Database(instance=instance, exec_mode=mode, use_hash_joins=True)
        sessions = (db.session(), CachedSession(instance, context=db.context))
        for text, source in self.REQUESTS:
            query = parse_query(text)
            wired, standalone = [sess.run(query) for sess in sessions]
            assert wired.source == standalone.source == source
            assert wired.plan_text == standalone.plan_text
            assert ("hash-join" in wired.plan_text) == ("S s" in text)
            assert wired.results == standalone.results == evaluate(query, instance)
        for sess in sessions:
            sess.close()
        db.close()

    def test_a_standalone_session_stays_interpreted(self, rs_instance_large):
        sess = CachedSession(rs_instance_large)
        assert sess.context.exec_mode == "interpret"  # the engine's default
        sess.close()


class TestSemanticCacheUnit:
    def test_register_rejects_duplicates(self):
        cache = SemanticCache()
        q = parse_query(JOIN)
        assert cache.register(q, frozenset()) is not None
        assert cache.register(q, frozenset()) is None
        assert cache.stats.rejected == 1

    def test_register_rejects_cache_owned_names(self):
        cache = SemanticCache()
        q = parse_query("select struct(A = v.A) from _SC1 v")
        assert cache.register(q, frozenset()) is None

    def test_plan_only_rewrite_not_executable(self):
        cache = SemanticCache()
        cache.register(parse_query(JOIN))  # no results: plan-only
        rewrite = cache.plan_rewrite(parse_query(CONTAINED))
        assert rewrite is not None
        assert not rewrite.executable
        assert rewrite.view_names()

    def test_require_executable_skips_plan_only_without_phantom_hit(
        self, rs_instance_large
    ):
        """A session sharing a cache with plan-only entries serves cold and
        counts exactly one miss — never a rewrite hit it didn't serve
        (review regression)."""

        cache = SemanticCache(observed(rs_instance_large))
        cache.register(parse_query(JOIN))  # plan-only
        assert cache.plan_rewrite(
            parse_query(CONTAINED), require_executable=True
        ) is None
        assert cache.stats.rewrite_hits == 0
        assert cache.get(cache.views()[0].name).hits == 0

        with CachedSession(rs_instance_large, cache=cache) as sess:
            result = sess.run(parse_query(CONTAINED))
            assert result.source == COLD
            assert result.results == evaluate(
                parse_query(CONTAINED), rs_instance_large
            )
        assert cache.stats.rewrite_hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.hits + cache.stats.misses <= cache.stats.lookups

    def test_irrelevant_views_are_not_injected(self):
        cache = SemanticCache()
        cache.register(
            parse_query("select struct(A = t.A) from T t"), frozenset()
        )
        assert cache.candidate_views(parse_query(JOIN)) == []
        assert cache.plan_rewrite(parse_query(JOIN)) is None

    def test_rewrite_statistics_use_extent_cardinality(self):
        cache = SemanticCache(
            OptimizeContext(statistics=Statistics().set_card("R", 500))
        )
        view = cache.register(
            parse_query("select struct(A = r.A) from R r"),
            frozenset(Row(A=i) for i in range(7)),
        )
        stats = cache._rewrite_statistics([view])
        assert stats.card(view.name) == 7.0
        assert stats.card("R") == 500.0
        # the cache's own statistics are untouched
        assert view.name not in cache.context.statistics.cardinality


class TestOptimizerContextOverlay:
    """Per-request overlays are ``OptimizeContext.override`` calls: a new
    optimizer over a new context, the original left untouched."""

    def test_extra_constraints_overlay_does_not_mutate(self):
        opt = Optimizer([], strategy="pruned")
        dep = parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric"
        )
        q = parse_query("select struct(A = r.A) from R r")
        overlaid = Optimizer(
            context=opt.context.override(extra_constraints=(dep,))
        )
        assert overlaid.optimize(q).best is not None
        assert overlaid.constraints == (dep,)
        assert opt.constraints == ()
        assert opt.physical_names is None

    def test_physical_override_is_per_optimizer(self):
        opt = Optimizer([], physical_names=("R",))
        q = parse_query("select struct(A = r.A) from R r")
        filtered = Optimizer(
            context=opt.context.override(physical_names=frozenset({"Z"}))
        ).optimize(q)
        assert not filtered.best.physical_only
        assert opt.optimize(q).best.physical_only

    def test_configuration_is_read_only(self):
        opt = Optimizer([], strategy="full")
        with pytest.raises(AttributeError):
            opt.strategy = "pruned"


class TestContainmentCacheLRU:
    """The LRU ``ChaseEngine.contained_in`` keeps its verdicts in."""

    def test_bound_and_eviction_order(self):
        cache = LRU(max_size=2)
        cache.put(("a", "a"), True)
        cache.put(("b", "b"), False)
        assert cache.get(("a", "a")) is True  # refreshes 'a'
        cache.put(("c", "c"), True)           # evicts 'b' (least recent)
        assert len(cache) == 2
        assert cache.get(("b", "b")) is None
        assert cache.get(("a", "a")) is True
        info = cache.cache_info()
        assert info.evictions == 1
        assert info.size == 2
        assert info.max_size == 2

    def test_unbounded_when_none(self):
        cache = LRU(max_size=None)
        for i in range(100):
            cache.put((str(i), str(i)), True)
        assert len(cache) == 100
        assert cache.cache_info().evictions == 0

    def test_clear_drops_entries_and_keeps_counters(self):
        cache = LRU(max_size=1)
        cache.put(("a", "a"), True)
        cache.put(("b", "b"), True)
        cache.get(("b", "b"))
        cache.clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.size, info.evictions) == (1, 0, 0, 1)
        assert cache.get(("b", "b")) is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LRU(max_size=0)

    def test_engine_keeps_its_verdicts_unbounded(self):
        engine = ChaseEngine([])
        assert engine.containment.max_size is None
        assert engine.containment.cache_info().size == 0
        q1 = parse_query("select struct(A = r.A) from R r")
        assert engine.contained_in(q1, q1) is True
        assert engine.contained_in(q1, q1) is True
        info = engine.containment.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)

    def test_eviction_only_recomputes_never_corrupts(self):
        """A bounded store returns the same verdicts as the unbounded one."""

        deps = [
            parse_constraint(
                "forall (r in R) -> exists (s in S) r.B = s.B", "ric_rs"
            )
        ]
        bounded = ChaseEngine(deps)
        bounded.containment = LRU(max_size=1)
        unbounded = ChaseEngine(deps)
        queries = [
            parse_query("select struct(A = r.A) from R r"),
            parse_query("select struct(A = r.A) from R r, S s where r.B = s.B"),
            parse_query("select struct(B = s.B) from S s"),
        ]
        for q1 in queries:
            for q2 in queries:
                assert bounded.contained_in(q1, q2) == unbounded.contained_in(q1, q2)
        # with bound 1 and 9 distinct pairs, evictions must have happened
        assert bounded.containment.evictions > 0


# -- the repeated mixes: cold vs view-only warm (formerly benchmark E13) ------


@pytest.fixture(scope="module", params=sorted(SERVING_MIXES))
def repeated(request, serving_mixes):
    """``(mix, cold round, warm rounds, warm stats)`` of one serving mix: the
    mix once through a disabled session — every further round would be the
    same executions again — and three times through a view-only one (the
    hybrid tier has its own mixes in ``test_prop_hybrid.py``), on a façade
    without base constraints: rewrites are purely view-driven."""

    mix = serving_mixes[request.param]
    db = Database(
        instance=mix.instance, statistics=Statistics.from_instance(mix.instance)
    )
    with db.session(enabled=False) as cold_session:
        (cold,) = serve_mix(cold_session, mix.queries, 1)
    with db.session(hybrid=False) as warm_session:
        warm = serve_mix(warm_session, mix.queries, 3)
    db.close()
    return mix, cold, warm, warm_session.stats


class TestRepeatedMixes:
    def test_warm_answers_equal_cold_and_the_evaluator(self, repeated):
        mix, cold, warm, _ = repeated
        expected = [evaluate(q, mix.instance) for q in mix.queries]
        assert [r.answer.results for r in cold] == expected
        for warm_round in warm:
            assert [r.answer.results for r in warm_round] == expected

    def test_first_round_rewrites_and_repeats_are_exact(self, repeated):
        mix, _, warm, stats = repeated
        first = [r.answer.source for r in warm[0]]
        # the first query finds an empty pool; contained variants rewrite
        assert first[0] == COLD and REWRITE in first
        assert HYBRID not in first  # view-only: all-or-nothing
        for later in warm[1:]:
            assert [r.answer.source for r in later] == [EXACT] * len(mix.queries)
        assert stats.exact_hits == 2 * len(mix.queries)
        assert stats.rewrite_hits == first.count(REWRITE)
        assert stats.misses == first.count(COLD) < 3 * len(mix.queries)
        # nothing the policy admitted went stale or was squeezed out
        assert stats.invalidations == stats.evictions == 0

    def test_an_exact_hit_runs_no_plan_and_plans_nothing(self, repeated):
        """Why repeats are fast, and why the gain grows with every further
        repetition: an exact hit is a lookup — a repeated round executes
        nothing and enters the optimizer not once, while a disabled session
        executes every request it is sent."""

        _, cold, warm, _ = repeated
        for served in (r for round_ in warm for r in round_):
            if served.answer.source == EXACT:
                assert served.executions == [] and served.optimizations == 0
            else:
                assert len(served.executions) == 1
        assert all(
            len(r.executions) == 1 and r.optimizations == 0 for r in cold
        )

    def test_the_warm_arm_executes_less_than_the_cold_arm(self, repeated):
        """Why the warm arm wins end to end: its three rounds together run
        plans costing no more than *one* cold round's (a single rewrite may
        cost more than its cold plan — view-only serves any plan over the
        views — but the arm does not)."""

        _, cold, warm, _ = repeated
        assert sum(r.executed_cost for round_ in warm for r in round_) <= sum(
            r.executed_cost for r in cold
        )
