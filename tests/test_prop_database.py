"""Property-test harness for the :class:`repro.Database` façade.

The contract: for *any* query, ``db.prepare(q).run()`` ≡ ``db.execute(q)``
≡ the cold ``Optimizer`` + ``execute`` pipeline ≡ the reference evaluator
— and the equivalence survives plan-cache hits (repeat runs skip
chase/backchase entirely) and instance mutations (the mutation drops the
dependent plan-cache entries and the next run transparently re-optimizes
against refreshed statistics).

Queries come from the generators in ``conftest`` over the R/S/T generator
schema; the instance carries *installed* (hence consistent) secondary
indexes on R and S, whose constraints give the backchase real access
paths to discover.  Mutations target T only — the one relation with no
derived structure — so the physical design never goes stale and logical
equivalence must hold across every arm.

The template arm holds the single serve path to the same contract for
``$``-templates: ``execute(t, params=b)`` ≡ ``prepare(t).run(**b)`` ≡
``execute(bound text)`` ≡ the reference evaluator, under both execution
modes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import GEN_SCHEMA, pc_queries
from repro import (
    Database,
    Instance,
    OptimizeContext,
    Optimizer,
    Param,
    Row,
    Statistics,
    evaluate,
    execute,
)
from repro.physical.indexes import SecondaryIndex
from repro.query.ast import Eq
from repro.query.paths import Attr, Var

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build_database(seed: int = 0, **options) -> Database:
    """A Database over the generator schema with consistent indexes.

    Attribute values stay in the 0..3 range the query generator draws its
    constants from, so selections are satisfiable often enough to make the
    index access paths genuinely win sometimes.
    """

    r = frozenset(
        Row(A=(i + seed) % 4, B=(i * 2 + seed) % 4, C=i % 4) for i in range(12)
    )
    s = frozenset(Row(B=(i + seed) % 4, C=(i * 3) % 4) for i in range(8))
    t = frozenset(Row(A=i % 4, C=(i + 1 + seed) % 4) for i in range(6))
    instance = Instance({"R": r, "S": s, "T": t})
    constraints = []
    for index in (
        SecondaryIndex("IXB", "R", "B"),
        SecondaryIndex("IXS", "S", "B"),
    ):
        index.install(instance)
        constraints.extend(index.constraints())
    return Database(
        constraints=constraints,
        physical_names=frozenset(instance.names()),
        instance=instance,
        **options,
    )


def cold_pipeline(db: Database, query):
    """The pre-façade path: a fresh Optimizer + execute, fresh statistics."""

    optimizer = Optimizer(
        OptimizeContext(
            constraints=list(db.constraints),
            physical_names=db.physical_names,
            statistics=Statistics.from_instance(db.instance),
        )
    )
    return execute(optimizer.optimize(query).best.query, db.instance)


def mutate_t(instance: Instance, round_number: int) -> None:
    instance["T"] = frozenset(
        Row(A=(i + round_number) % 4, C=(i + 2 * round_number) % 4)
        for i in range(5 + round_number % 3)
    )


@settings(max_examples=20, **RELAXED)
@given(
    queries=st.lists(pc_queries(), min_size=1, max_size=3),
    mutate_after=st.integers(min_value=0, max_value=2),
)
def test_prepared_equals_execute_equals_cold(queries, mutate_after):
    """The headline property, including a mid-sequence mutation."""

    db = build_database()
    for i, query in enumerate(queries):
        if i == mutate_after:
            mutate_t(db.instance, i + 1)
        reference = evaluate(query, db.instance)
        cold = cold_pipeline(db, query)
        via_execute = db.execute(query)
        prepared = db.prepare(query)
        first = prepared.run()
        assert cold.results == reference, f"cold diverged for {query}"
        assert via_execute.results == reference, f"execute diverged for {query}"
        assert first.results == reference, f"prepared diverged for {query}"

        # A repeat run is a pure plan-cache hit: no new optimization.
        before = db.plan_cache_info()
        second = prepared.run()
        after = db.plan_cache_info()
        assert second.results == reference
        assert after.misses == before.misses
        assert after.hits > before.hits
    db.close()


@settings(max_examples=20, **RELAXED)
@given(query=pc_queries())
def test_mutation_invalidates_and_reoptimizes(query):
    """Prepared before a mutation, correct after it — with the plan-cache
    entry demonstrably dropped when the query depends on the mutated
    relation."""

    db = build_database()
    prepared = db.prepare(query)
    assert prepared.run().results == evaluate(query, db.instance)

    depends_on_t = "T" in query.schema_names()
    before = db.plan_cache_info()
    mutate_t(db.instance, 7)
    after = db.plan_cache_info()
    if depends_on_t:
        assert after.invalidations > before.invalidations
    else:
        assert after.invalidations == before.invalidations

    reference = evaluate(query, db.instance)
    assert prepared.run().results == reference
    assert db.execute(query).results == reference
    assert cold_pipeline(db, query).results == reference
    db.close()


@st.composite
def bound_templates(draw):
    """A generated query with one or two ``path = $p<i>`` selections
    added, plus a binding for them (values from the instance's 0..3 range
    and one value outside it)."""

    query = draw(pc_queries(max_conditions=2))
    paths = [
        Attr(Var(b.var), attr)
        for b in query.bindings
        for attr in GEN_SCHEMA[b.source.name]
    ]
    count = draw(st.integers(min_value=1, max_value=2))
    template = query.with_fresh_conditions(
        Eq(draw(st.sampled_from(paths)), Param(f"p{i}")) for i in range(count)
    )
    binding = {
        name: draw(st.integers(min_value=0, max_value=4))
        for name in template.param_names()
    }
    return template, binding


@pytest.mark.parametrize("exec_mode", ["interpret", "compiled"])
@settings(max_examples=15, **RELAXED)
@given(
    requests=st.lists(bound_templates(), min_size=1, max_size=3),
    mutate_after=st.integers(min_value=0, max_value=2),
)
def test_template_entry_points_agree(exec_mode, requests, mutate_after):
    """Every way of serving a (template, binding) pair answers alike —
    across plan-cache hits and a mid-sequence mutation — and each
    ``execute(t, params=b)`` is exactly one plan-cache probe."""

    db = build_database(exec_mode=exec_mode)
    for i, (template, binding) in enumerate(requests):
        if i == mutate_after:
            mutate_t(db.instance, i + 1)
        bound = template.bind_params(binding)
        reference = evaluate(bound, db.instance)
        prepared = db.prepare(template)
        assert prepared.run(**binding).results == reference, template
        assert db.execute(str(bound)).results == reference, template
        before = db.plan_cache_info()
        one_shot = db.execute(template, params=binding)
        after = db.plan_cache_info()
        assert one_shot.results == reference, template
        assert after.hits + after.misses == before.hits + before.misses + 1
    db.close()
