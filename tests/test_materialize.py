"""Structures are materialized by the compiled executor; the reference
evaluator is the oracle.

Every query-defined structure — materialized views, the ASRs and join
index views built on them, gmaps — runs its definition through
``execute(..., mode="compiled")``.  Each test here checks an installed
extent against ``evaluate(definition, instance)`` (for a gmap, against the
evaluator's grouping of the body's environments): the built-in workloads
at their default sizes and at the sizes ``benchmarks/perf`` builds, a
join index, a refresh after a base write, and a definition the code
generator refuses.  ``tests/test_advisor.py`` covers the views
``apply_design`` installs; ``tests/test_prop_materialize.py`` generated
definitions and instances.
"""

from __future__ import annotations

import pytest

from conftest import evaluator_grouping
from repro.advisor import structure_views
from repro.api import build_workload
from repro.exec import compile as compile_module
from repro.exec import engine as engine_module
from repro.exec.compile import PlanCompilationError
from repro.model.instance import Instance
from repro.model.values import Row
from repro.physical.gmap import GMap
from repro.physical.joinindex import JoinIndex
from repro.physical.views import MaterializedView
from repro.query.ast import StructOutput
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.paths import Attr, Var

#: the workloads at their default sizes and at the sizes the perf
#: harness builds (rs for steady_templates and cold_mix, projdept for
#: steady_templates, oo_asr for cold_mix)
SIZES = [
    ("rs", {}),
    ("rs", dict(n_r=1500, n_s=1500, b_values=200)),
    ("rs", dict(n_r=300, n_s=300, b_values=60)),
    ("rabc", {}),
    ("projdept", {}),
    ("projdept", dict(n_depts=40, projs_per_dept=25, n_customers=50)),
    ("oo_asr", {}),
    ("oo_asr", dict(n_depts=40)),
]

#: the query-defined structures each builder installs
STRUCTURES = {"rs": ["V"], "rabc": [], "projdept": ["JI"], "oo_asr": ["ASR"]}


@pytest.mark.parametrize(
    "name, params",
    SIZES,
    ids=[f"{name}-{'-'.join(map(str, p.values())) or 'default'}" for name, p in SIZES],
)
def test_workload_structures_are_the_evaluators_extents(name, params):
    workload = build_workload(name, **params)
    views = structure_views(workload)
    assert [view.name for view in views] == STRUCTURES[name]
    for view in views:
        want = evaluate(view.definition, workload.instance)
        assert want, view.name
        assert workload.instance[view.name] == want, view.name


def rs_instance(n: int = 60) -> Instance:
    return Instance(
        {
            "R": frozenset(Row(K=i, A=i % 7, B=i % 5) for i in range(n)),
            "S": frozenset(Row(K=100 + i, B=i % 9, C=i % 4) for i in range(n)),
        }
    )


def test_join_index_view_is_the_evaluators_extent():
    instance = rs_instance()
    ji = JoinIndex("J", "R", "K", "B", "S", "K", "B")
    ji.install(instance)
    want = evaluate(ji.view().definition, instance)
    assert want and instance["J"] == want
    # the join condition matters: not every R row meets every S row
    assert len(want) < len(instance["R"]) * len(instance["S"])


def test_refresh_after_a_base_write_is_the_evaluators_extent():
    workload = build_workload("rs")
    instance = workload.instance
    (view,) = workload.views
    joining_b = next(iter(instance["S"]))["B"]
    instance["R"] = instance["R"] | {Row(A=10_000, B=joining_b)}
    assert Row(A=10_000) not in instance["V"]
    refreshed = view.refresh(instance)
    assert Row(A=10_000) in refreshed
    assert instance["V"] == refreshed == evaluate(view.definition, instance)


JOIN_BODY = parse_query("select r.A from R r, S s where r.B = s.B")

GMAPS = {
    "path-key": GMap.from_queries(
        "G", parse_query("select r.B from R r"), Attr(Var("r"), "A")
    ),
    "struct-key": GMap(
        name="G",
        bindings=JOIN_BODY.bindings,
        conditions=JOIN_BODY.conditions,
        key_output=StructOutput(
            (("A", Attr(Var("r"), "A")), ("B", Attr(Var("s"), "B")))
        ),
        value_output=Attr(Var("s"), "C"),
    ),
    "struct-value": GMap(
        name="G",
        bindings=JOIN_BODY.bindings,
        conditions=JOIN_BODY.conditions,
        key_output=Attr(Var("s"), "C"),
        value_output=StructOutput(
            (("A", Attr(Var("r"), "A")), ("K", Attr(Var("s"), "K")))
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(GMAPS))
def test_gmap_is_the_evaluators_grouping(shape):
    instance = rs_instance()
    gmap = GMAPS[shape]
    value = gmap.install(instance)
    assert len(value) > 1
    assert value == evaluator_grouping(gmap, instance)


def test_gmap_over_objects_is_the_evaluators_grouping():
    instance = build_workload("oo_asr").instance
    body = parse_query("select d.DName from depts d, d.Staff e")
    gmap = GMap(
        name="G",
        bindings=body.bindings,
        conditions=body.conditions,
        key_output=Attr(Var("d"), "DName"),
        value_output=StructOutput((("E", Var("e")), ("N", Attr(Var("e"), "EName")))),
    )
    assert gmap.materialize(instance) == evaluator_grouping(gmap, instance)


def test_a_refused_definition_raises(fresh_memo):
    def refuse(query, **flags):
        raise PlanCompilationError("refused for the test")

    fresh_memo.setattr(compile_module, "generate_plan", refuse)
    instance = rs_instance()
    before = {name: instance[name] for name in instance}
    view = MaterializedView(
        "V", parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
    )
    with pytest.raises(PlanCompilationError):
        view.install(instance)
    with pytest.raises(PlanCompilationError):
        GMAPS["struct-key"].materialize(instance)
    # nothing was installed, and the refusal is not memoized
    assert {name: instance[name] for name in instance} == before
    assert engine_module._COMPILED_CACHE.get((view.definition, None, False)) is None
