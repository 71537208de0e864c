"""E10 — section 2's catalogue of physical structures as constraints.

Reproduces: gmaps, access support relations, join indexes and hash tables
round-trip — materialized values satisfy their characterizing EPCDs, and
the chase rewrites queries to use them.
"""

from __future__ import annotations

import pytest

from repro.chase.chase import chase
from repro.constraints.checker import check_all
from repro.model.instance import Instance
from repro.model.values import Row
from repro.physical.asr import AccessSupportRelation, PathStep
from repro.physical.gmap import GMap
from repro.physical.hashtable import HashTable
from repro.physical.joinindex import JoinIndex
from repro.query.parser import parse_path, parse_query


@pytest.fixture(scope="module")
def instance():
    r = frozenset(Row(K=i, A=i % 7, B=i % 5) for i in range(200))
    s = frozenset(Row(K=1000 + i, B=i % 5, C=i) for i in range(200))
    return Instance({"R": r, "S": s})


@pytest.fixture(scope="module")
def small_instance():
    r = frozenset(Row(K=i, A=i % 7, B=i % 5) for i in range(40))
    s = frozenset(Row(K=1000 + i, B=i % 5, C=i) for i in range(40))
    return Instance({"R": r, "S": s})


def test_e10_gmap_roundtrip(benchmark, instance):
    gmap = GMap.from_queries(
        "G",
        parse_query("select r.B from R r"),
        parse_path("r.A", scope={"r"}),
    )

    def build_and_check():
        inst = instance.copy()
        gmap.install(inst)
        return check_all(gmap.constraints(), inst)

    failures = benchmark.pedantic(build_and_check, rounds=1, iterations=1)
    assert failures == []


def test_e10_gmap_enables_rewriting(benchmark, instance):
    gmap = GMap.from_queries(
        "G",
        parse_query("select r.B from R r"),
        parse_path("r.A", scope={"r"}),
    )
    inst = instance.copy()
    gmap.install(inst)
    query = parse_query("select r.A from R r where r.B = 3")
    chased = benchmark(lambda: chase(query, gmap.constraints()))
    assert "G" in chased.query.schema_names()


def test_e10_join_index_roundtrip(benchmark, small_instance):
    ji = JoinIndex("J", "R", "K", "B", "S", "K", "B")

    def build_and_check():
        inst = small_instance.copy()
        ji.install(inst)
        return check_all(ji.constraints(), inst), len(inst["J"])

    failures, size = benchmark.pedantic(build_and_check, rounds=1, iterations=1)
    assert failures == []
    assert size == 40 * 8  # 5 B-values, 8 partners each


def test_e10_asr_roundtrip(benchmark):
    from repro.model.types import STRING, SetType, struct
    from repro.model.values import Oid
    from repro.physical.classes import ClassEncoding

    inst = Instance({"Proj": frozenset(Row(PName=f"P{i}") for i in range(50))})
    enc = ClassEncoding(
        "Dept", "depts", "DeptD", struct(DName=STRING, DProjs=SetType(STRING))
    )
    objects = {
        Oid("Dept", d): Row(
            DName=f"D{d}", DProjs=frozenset(f"P{i}" for i in range(d * 5, d * 5 + 5))
        )
        for d in range(10)
    }
    enc.populate(inst, objects)
    asr = AccessSupportRelation("ASR", "depts", (PathStep("DProjs"),))

    def build_and_check():
        asr.install(inst)
        return check_all(asr.constraints(), inst), len(inst["ASR"])

    failures, size = benchmark.pedantic(build_and_check, rounds=1, iterations=1)
    assert failures == []
    assert size == 50


def test_e10_asr_rewriting_end_to_end(benchmark):
    """Section 2: ASRs rewrite navigation path queries into scans of the
    materialized path relation plus oid dereferences."""

    from repro.api.context import OptimizeContext
    from repro.optimizer.optimizer import Optimizer
    from repro.query.evaluator import evaluate
    from repro.workloads.oo_asr import build_oo_asr

    wl = build_oo_asr(n_depts=4, staff_per_dept=3, seed=17)
    opt = Optimizer(
        OptimizeContext(
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
        )
    )

    result = benchmark.pedantic(opt.optimize, args=(wl.query,), rounds=1, iterations=1)
    assert result.best.query.schema_names() == frozenset({"ASR"})
    assert evaluate(result.best.query, wl.instance) == evaluate(
        wl.query, wl.instance
    )


def test_e10_hash_table_build(benchmark, instance):
    ht = HashTable("H", "S", "B")
    table = benchmark(lambda: ht.build(instance))
    assert len(table) == 5
    assert sum(len(bucket) for bucket in table.values()) == 200
