"""Property-based differential testing of the compiled executor.

For *any* generated PC query over the generator schema, the three
execution paths agree answer-for-answer:

    compiled fused function  ≡  interpreted pipeline  ≡  reference evaluator

on plain runs, under overlay (hybrid semantic-cache) execution, and with
``$param`` markers substituted into an already-compiled artifact at run
time.  This is the
acceptance harness for the compiled tier: any divergence — a wrong
column probe, a missed residual condition, a stale columnar extent — is
a one-line counterexample.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pc_queries
from repro import Instance, Row, evaluate
from repro.exec.compile import compile_plan
from repro.exec.engine import execute
from repro.query.ast import Eq
from repro.query.paths import Const, Param

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build_gen_instance(seed: int = 0) -> Instance:
    """A small concrete instance of the generator schema R/S/T (attribute
    values stay in the generator's 0..3 constant range so selections are
    satisfiable often enough to be interesting)."""

    r = frozenset(
        Row(A=(i + seed) % 4, B=(i * 2 + seed) % 4, C=i % 4) for i in range(12)
    )
    s = frozenset(Row(B=(i + seed) % 4, C=(i * 3) % 4) for i in range(8))
    t = frozenset(Row(A=i % 4, C=(i + 1 + seed) % 4) for i in range(6))
    return Instance({"R": r, "S": s, "T": t})


@settings(max_examples=120, **RELAXED)
@given(query=pc_queries(), seed=st.integers(min_value=0, max_value=3))
def test_compiled_matches_interpreted_and_reference(query, seed):
    instance = build_gen_instance(seed)
    reference = evaluate(query, instance)
    interpreted = execute(query, instance, mode="interpret")
    compiled = execute(query, instance, mode="compiled")
    assert compiled.mode == "compiled"
    assert compiled.results == interpreted.results == reference


@settings(max_examples=60, **RELAXED)
@given(query=pc_queries(), seed=st.integers(min_value=0, max_value=3))
def test_compiled_overlay_matches(query, seed):
    instance = build_gen_instance(seed)
    # shadow one relation the query may read with a different extent
    overlays = {"R": build_gen_instance(seed + 1)["R"]}
    interpreted = execute(query, instance, overlays=overlays)
    compiled = execute(query, instance, overlays=overlays, mode="compiled")
    reference = evaluate(query, instance.overlay(dict(overlays)))
    assert compiled.results == interpreted.results == reference


def _parameterize(query):
    """Replace each path-vs-constant condition with a ``$pN`` marker;
    returns (template, bindings) — None when nothing is parameterizable."""

    conditions = []
    bindings = {}
    for cond in query.conditions:
        if isinstance(cond.right, Const) and not isinstance(cond.left, Const):
            name = f"p{len(bindings)}"
            bindings[name] = cond.right.value
            conditions.append(Eq(cond.left, Param(name)))
        else:
            conditions.append(cond)
    if not bindings:
        return None
    return dataclasses.replace(query, conditions=tuple(conditions)), bindings


@settings(max_examples=60, **RELAXED)
@given(
    query=pc_queries(max_conditions=3),
    seed=st.integers(min_value=0, max_value=3),
    shift=st.integers(min_value=0, max_value=2),
)
def test_params_substitute_into_compiled_artifact(query, seed, shift):
    parameterized = _parameterize(query)
    if parameterized is None:
        return
    template, bindings = parameterized
    instance = build_gen_instance(seed)
    plan = compile_plan(template)
    # rebind: the same artifact must serve shifted constants correctly
    for delta in (0, shift):
        shifted = {name: (value + delta) % 4 for name, value in bindings.items()}
        bound = template.bind_params(
            {name: Const(value) for name, value in shifted.items()}
        )
        reference = evaluate(bound, instance)
        assert plan.run(instance, params=shifted) == reference
        assert (
            execute(template, instance, mode="compiled", params=shifted).results
            == reference
        )
