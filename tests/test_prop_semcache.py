"""Property-test harness for semantic-cache correctness.

The contract of the cache: for *any* sequence of queries, every answer a
:class:`~repro.semcache.CachedSession` returns — whether served cold, from
an exact entry, or via a backchase rewrite onto cached extents — equals
the cold evaluation of that query on the current instance.  Exercised on
randomly generated PC queries (generators in ``conftest``) over a concrete
instance of the generator schema, including sequences with mid-stream
mutations (invalidation must prevent stale answers) and tight eviction
budgets (eviction must only ever cost recomputation).
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pc_queries
from repro import Instance, OptimizeContext, Row, Statistics, evaluate
from repro.semcache import CachedSession, CostBenefitPolicy, SemanticCache

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build_gen_instance(seed: int = 0) -> Instance:
    """A small concrete instance of the generator schema R/S/T.

    Attribute values stay in the 0..3 range the query generator draws its
    constants from, so selections are satisfiable often enough to make
    hits interesting.
    """

    r = frozenset(
        Row(A=(i + seed) % 4, B=(i * 2 + seed) % 4, C=i % 4) for i in range(12)
    )
    s = frozenset(Row(B=(i + seed) % 4, C=(i * 3) % 4) for i in range(8))
    t = frozenset(Row(A=i % 4, C=(i + 1 + seed) % 4) for i in range(6))
    return Instance({"R": r, "S": s, "T": t})


def make_session(instance: Instance, policy=None) -> CachedSession:
    context = OptimizeContext(statistics=Statistics.from_instance(instance))
    return CachedSession(instance, cache=SemanticCache(context, policy))


@settings(max_examples=60, **RELAXED)
@given(queries=st.lists(pc_queries(), min_size=1, max_size=6))
def test_cached_answers_equal_cold_answers(queries):
    """The headline property: cache on ≡ cache off, on any query sequence."""

    instance = build_gen_instance()
    session = make_session(instance)
    try:
        for query in queries:
            got = session.run(query)
            assert got.results == evaluate(query, instance), (
                f"{got.source} answer diverged for {query}"
            )
    finally:
        session.close()


@settings(max_examples=40, **RELAXED)
@given(
    queries=st.lists(pc_queries(), min_size=2, max_size=5),
    mutate_after=st.integers(min_value=0, max_value=3),
    mutated=st.sampled_from(["R", "S", "T"]),
)
def test_invalidation_prevents_stale_answers(queries, mutate_after, mutated):
    """Mutating a source mid-sequence never yields stale cached answers."""

    instance = build_gen_instance()
    session = make_session(instance)
    try:
        for i, query in enumerate(queries):
            if i == mutate_after:
                instance[mutated] = build_gen_instance(seed=1)[mutated]
            got = session.run(query)
            assert got.results == evaluate(query, instance), (
                f"{got.source} answer diverged after mutating {mutated} "
                f"for {query}"
            )
    finally:
        session.close()


@settings(max_examples=30, **RELAXED)
@given(queries=st.lists(pc_queries(), min_size=3, max_size=7))
def test_eviction_preserves_correctness(queries):
    """A pathologically small pool still answers correctly."""

    instance = build_gen_instance()
    session = make_session(
        instance, policy=CostBenefitPolicy(max_views=1, max_total_tuples=8)
    )
    try:
        for query in queries:
            got = session.run(query)
            assert got.results == evaluate(query, instance)
        assert len(session.cache) <= 1
        assert session.cache.total_tuples() <= 8 or len(session.cache) == 1
    finally:
        session.close()


@settings(max_examples=40, **RELAXED)
@given(query=pc_queries())
def test_repeat_is_exact_hit_with_identical_answer(query):
    """Running the same query twice: second answer is identical and served
    from the cache (exact or rewrite — never a second cold execution when
    registration succeeded)."""

    instance = build_gen_instance()
    session = make_session(instance)
    try:
        first = session.run(query)
        second = session.run(query)
        assert second.results == first.results
        if session.stats.registrations:
            assert second.source == "exact"
    finally:
        session.close()
