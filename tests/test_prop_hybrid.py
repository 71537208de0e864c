"""Differential-testing harness for the hybrid rewrite tier.

The contract: for *any* sequence of queries — including mid-stream base
mutations and pathological eviction budgets — the three serving modes
agree answer-for-answer:

    hybrid mode  ≡  view-only mode  ≡  cold evaluation on the live instance

Hybrid answers additionally may read base relations directly, so the
harness is specifically hunting the failure class the view-only tier
cannot have: a view ⋈ base plan serving a stale base read, a wrong
overlay resolution, or benefit/stat accounting diverging between modes.
``CacheStats`` must stay monotone in every mode throughout.

Together the tests generate >= 210 cases (80 + 70 + 60 sequences, each a
multi-query differential check), satisfying the acceptance criterion of
>= 200 generated cases including mutations under tight eviction budgets.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SERVING_MIXES, pc_queries, serve_mix
from repro import (
    Database,
    Instance,
    OptimizeContext,
    Row,
    Statistics,
    evaluate,
    parse_query,
)
from repro.semcache import (
    COLD,
    EXACT,
    HYBRID,
    CachedSession,
    CostBenefitPolicy,
    SemanticCache,
)

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build_gen_instance(seed: int = 0) -> Instance:
    """A small concrete instance of the generator schema R/S/T (attribute
    values stay in the generator's 0..3 constant range so selections are
    satisfiable often enough to make hits interesting)."""

    r = frozenset(
        Row(A=(i + seed) % 4, B=(i * 2 + seed) % 4, C=i % 4) for i in range(12)
    )
    s = frozenset(Row(B=(i + seed) % 4, C=(i * 3) % 4) for i in range(8))
    t = frozenset(Row(A=i % 4, C=(i + 1 + seed) % 4) for i in range(6))
    return Instance({"R": r, "S": s, "T": t})


def make_sessions(instance: Instance, policy=None):
    """(hybrid, view-only) sessions over the same live instance."""

    context = OptimizeContext(statistics=Statistics.from_instance(instance))
    return tuple(
        CachedSession(
            instance, cache=SemanticCache(context, policy), hybrid=hybrid
        )
        for hybrid in (True, False)
    )


def assert_monotone(previous, current):
    """Every counter non-decreasing; returns the new snapshot."""

    for name, value in current.items():
        assert value >= previous.get(name, 0), name
    return current


def run_differential(instance, queries, sessions, mutate_at=None, mutated=None):
    """Drive all sessions through ``queries``, checking three-way equality
    and per-session stats monotonicity at every step."""

    snapshots = [dict() for _ in sessions]
    for i, query in enumerate(queries):
        if mutate_at is not None and i == mutate_at:
            instance[mutated] = build_gen_instance(seed=1)[mutated]
        expected = evaluate(query, instance)
        for j, session in enumerate(sessions):
            got = session.run(query)
            assert got.results == expected, (
                f"{'hybrid' if session.hybrid else 'view-only'} answer "
                f"({got.source}) diverged for {query}"
            )
            # as_dict includes benefit_accrued, so monotonicity covers it
            snapshots[j] = assert_monotone(snapshots[j], session.stats.as_dict())


@settings(max_examples=80, **RELAXED)
@given(queries=st.lists(pc_queries(), min_size=1, max_size=6))
def test_hybrid_equals_view_only_equals_cold(queries):
    """The headline differential property on mutation-free sequences."""

    instance = build_gen_instance()
    hybrid, view_only = make_sessions(instance)
    try:
        run_differential(instance, queries, (hybrid, view_only))
        # view-only mode never serves partial hits; hybrid never lies
        # about serving them
        assert view_only.stats.hybrid_hits == 0
    finally:
        hybrid.close()
        view_only.close()


@settings(max_examples=70, **RELAXED)
@given(
    queries=st.lists(pc_queries(), min_size=2, max_size=5),
    mutate_after=st.integers(min_value=0, max_value=3),
    mutated=st.sampled_from(["R", "S", "T"]),
)
def test_mutation_mid_sequence_never_stales_any_mode(
    queries, mutate_after, mutated
):
    """Base mutations mid-sequence: hybrid plans re-resolve base reads
    against the live instance and invalidation drops dependents, so no
    mode may ever serve a stale answer."""

    instance = build_gen_instance()
    hybrid, view_only = make_sessions(instance)
    try:
        run_differential(
            instance,
            queries,
            (hybrid, view_only),
            mutate_at=min(mutate_after, len(queries) - 1),
            mutated=mutated,
        )
    finally:
        hybrid.close()
        view_only.close()


@settings(max_examples=60, **RELAXED)
@given(
    queries=st.lists(pc_queries(), min_size=3, max_size=6),
    mutate_after=st.integers(min_value=0, max_value=4),
    mutated=st.sampled_from(["R", "S", "T"]),
)
def test_tight_eviction_budgets_with_mutations(queries, mutate_after, mutated):
    """Pathologically small pools + mid-stream mutations: eviction and
    invalidation may only ever cost recomputation, in either mode."""

    instance = build_gen_instance()
    hybrid, view_only = make_sessions(
        instance, policy=CostBenefitPolicy(max_views=1, max_total_tuples=8)
    )
    try:
        run_differential(
            instance,
            queries,
            (hybrid, view_only),
            mutate_at=min(mutate_after, len(queries) - 1),
            mutated=mutated,
        )
        for session in (hybrid, view_only):
            assert len(session.cache) <= 1
    finally:
        hybrid.close()
        view_only.close()


@settings(max_examples=40, **RELAXED)
@given(query=pc_queries())
def test_repeat_promotes_identically_across_modes(query):
    """Running the same query twice: both modes serve the repeat from the
    cache (exact hit) with an identical answer whenever registration
    succeeded — promotion semantics do not depend on the mode."""

    instance = build_gen_instance()
    hybrid, view_only = make_sessions(instance)
    try:
        for session in (hybrid, view_only):
            first = session.run(query)
            second = session.run(query)
            assert second.results == first.results
            if session.stats.registrations:
                assert second.source == "exact"
    finally:
        hybrid.close()
        view_only.close()


# -- partial-overlap mixes: cold vs view-only vs hybrid (formerly E14) --------
#
# The cache is warmed with *selections* — small results covering only part
# of each later query — and the partial queries join those covered parts
# with base relations the cache has never seen.  The all-or-nothing
# view-only tier can do nothing with them; the hybrid tier answers them with
# view ⋈ base plans.  The warm views cover the attributes the partial
# queries use, so dropping the base loop is provable from the view pair.


def partial_overlap_queries(mix: str, instance: Instance):
    """(warm selections, partial-overlap joins) for one serving mix."""

    if mix == "e5_rs":
        warm = [
            f"select struct(A = r.A, B = r.B) from R r where r.A = {k}"
            for k in (1, 2, 3)
        ]
        partial = [
            f"select struct({out}, C = s.C) from S s, R r "
            f"where r.B = s.B and r.A = {k}"
            for k, out in ((1, "A = r.A"), (2, "A = r.A"), (3, "B = r.B"))
        ]
    else:
        # ProjDept indexes CustName (SI) but not Budg: budget predicates
        # are the selections base structures do not cover.  The values come
        # from the seeded instance, so the results are nonempty.
        budgets = sorted({row["Budg"] for row in instance["Proj"]})[:3]
        warm = [
            "select struct(PN = p.PName, PD = p.PDept) from Proj p "
            f"where p.Budg = {b}"
            for b in budgets
        ]
        partial = [
            "select struct(PN = p.PName, DN = d.DName) from depts d, Proj p "
            f"where p.PDept = d.DName and p.Budg = {b}"
            for b in budgets
        ]
    return [parse_query(t) for t in warm], [parse_query(t) for t in partial]


@pytest.fixture(scope="module", params=sorted(SERVING_MIXES))
def partial_overlap(request, serving_mixes):
    """``(instance, warm queries, partial queries, rounds, stats)`` of one
    serving mix, ``rounds`` and ``stats`` keyed by arm: warm + partial once
    through a disabled session (every further round would be the same
    executions again) and three times through a view-only and a hybrid
    session of one façade (no base constraints: the rewrites are purely
    view-driven)."""

    instance = serving_mixes[request.param].instance
    warm, partial = partial_overlap_queries(request.param, instance)
    db = Database(instance=instance, statistics=Statistics.from_instance(instance))
    rounds, stats = {}, {}
    for arm, repetitions, options in (
        ("cold", 1, dict(enabled=False)),
        ("view_only", 3, dict(hybrid=False)),
        ("hybrid", 3, dict(hybrid=True)),
    ):
        with db.session(**options) as session:
            rounds[arm] = serve_mix(session, warm + partial, repetitions)
            stats[arm] = session.stats
    db.close()
    return instance, warm, partial, rounds, stats


class TestPartialOverlapMixes:
    def test_three_arms_agree_with_the_evaluator(self, partial_overlap):
        instance, warm, partial, rounds, _ = partial_overlap
        covered = [evaluate(q, instance) for q in warm]
        joined = [evaluate(q, instance) for q in partial]
        # rows on both sides of the overlap, or equality proves nothing
        assert all(covered) and any(joined)
        for arm in rounds.values():
            for round_ in arm:
                assert [r.answer.results for r in round_] == covered + joined

    def test_hybrid_rescues_what_view_only_serves_cold(self, partial_overlap):
        _, warm, partial, rounds, stats = partial_overlap
        sources = {
            arm: [r.answer.source for round_ in rounds[arm] for r in round_]
            for arm in ("view_only", "hybrid")
        }
        # view-only never serves a partial hit ...
        assert HYBRID not in sources["view_only"]
        assert stats["view_only"].hybrid_hits == 0
        # ... and of the requests it serves cold, hybrid answers >= 30 %
        # from the cache: every partial-overlap join, here
        served_cold = [
            i for i, source in enumerate(sources["view_only"]) if source == COLD
        ]
        rescued = [i for i in served_cold if sources["hybrid"][i] != COLD]
        assert len(rescued) / len(served_cold) >= 0.30
        first_pass = sources["hybrid"][len(warm) : len(warm) + len(partial)]
        assert first_pass == [HYBRID] * len(partial)
        assert stats["hybrid"].hybrid_hits == len(rescued) > 0
        assert stats["hybrid"].benefit_accrued > 0.0
        assert stats["view_only"].benefit_accrued == 0.0

    def test_a_partial_hit_executes_less_than_the_cold_join(self, partial_overlap):
        """Why hybrid beats cold on the first pass: each view ⋈ base plan
        scans a small cached selection where the cold plan scans the base
        relation."""

        _, warm, _, rounds, _ = partial_overlap
        cold, hybrid = rounds["cold"][0], rounds["hybrid"][0]
        for cold_served, hybrid_served in zip(cold[len(warm):], hybrid[len(warm):]):
            assert hybrid_served.answer.base_names  # it did read base data
            assert hybrid_served.executed_cost < cold_served.executed_cost / 10

    def test_steady_rounds_are_exact_in_both_cached_arms(self, partial_overlap):
        """Why hybrid's steady state ties view-only's and beats cold's, and
        why the gain grows with repetitions: promoted answers make every
        later round pure exact hits in both arms — no plan, no optimizer —
        while a disabled session executes every request it is sent."""

        _, warm, partial, rounds, _ = partial_overlap
        for arm in ("view_only", "hybrid"):
            for round_ in rounds[arm][1:]:
                assert [r.answer.source for r in round_] == [EXACT] * len(
                    warm + partial
                )
                assert all(
                    r.executions == [] and r.optimizations == 0 for r in round_
                )
        assert all(len(r.executions) == 1 for r in rounds["cold"][0])
