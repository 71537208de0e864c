"""Tests of the benchmark harness itself (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Outside tier-1's ``testpaths`` on purpose: the tier-1 suite does not grow.
"""

from __future__ import annotations

import sys
import types

import pytest

import harness
import workloads
from tracing import Patcher, Recorder, Span, SpanTotals, self_times


# -- percentiles and sample counts -------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.percentile(samples, 0.5) == 3.0
    assert harness.percentile(samples, 0.9) == 5.0
    assert harness.percentile(samples, 0.2) == 1.0
    assert harness.percentile([7.0], 0.9) == 7.0


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.supported(100, 0.9)
    assert not harness.supported(99, 0.9)
    assert harness.supported(1000, 0.99)
    assert not harness.supported(3, 0.9)


def test_throughput_is_the_median_block():
    arm = harness.Arm()
    arm.timings = [
        harness.BlockTiming(100, 1.0, 1.0),
        harness.BlockTiming(100, 2.0, 1.0),
        harness.BlockTiming(100, 10.0, 1.0),
    ]
    assert arm.throughput() == 50.0
    # A block timed while the machine ran at half speed counts double.
    arm.timings[1] = harness.BlockTiming(100, 2.0, 2.0)
    assert arm.throughput() == 100.0
    assert arm.blocks == 3


# -- self time on a synthetic span tree --------------------------------------


def tree():
    # request 0: api(0..10) > optimize(1..9) > [search(2..6) > chase(3..4),
    #                                           chase(7..8)]
    # set-up (request -1): statistics(20..21)
    return [
        Span(0, -1, "api.request", 0, 0.0, 10.0),
        Span(1, 0, "optimizer.optimize", 0, 1.0, 9.0),
        Span(2, 1, "backchase.search", 0, 2.0, 6.0),
        Span(3, 2, "chase.engine_chase", 0, 3.0, 4.0),
        Span(4, 1, "chase.engine_chase", 0, 7.0, 8.0),
        Span(5, -1, "optimizer.statistics", -1, 20.0, 21.0),
    ]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(tree())
    assert own[0] == pytest.approx(2.0)  # 10 - optimize's 8
    assert own[1] == pytest.approx(3.0)  # 8 - search's 4 - chase's 1
    assert own[2] == pytest.approx(3.0)  # 4 - chase's 1
    assert own[3] == pytest.approx(1.0)
    assert sum(own[i] for i in range(5)) == pytest.approx(10.0)


def test_totals_split_timed_region_from_setup():
    timed = SpanTotals(tree())
    assert timed.calls["chase.engine_chase"] == 2
    assert timed.self_s["chase.engine_chase"] == pytest.approx(2.0)
    assert timed.inclusive_s["backchase.search"] == pytest.approx(4.0)
    assert "optimizer.statistics" not in timed.calls
    whole = SpanTotals(tree(), timed_only=False)
    assert whole.calls["optimizer.statistics"] == 1
    only = SpanTotals(tree(), requests={7})
    assert only.calls == {}


def test_inclusive_time_bills_recursion_once():
    spans = [
        Span(0, -1, "query.canonical", 0, 0.0, 4.0),
        Span(1, 0, "query.canonical", 0, 1.0, 3.0),
    ]
    totals = SpanTotals(spans)
    assert totals.inclusive_s["query.canonical"] == pytest.approx(4.0)
    assert totals.self_s["query.canonical"] == pytest.approx(4.0)
    assert totals.calls["query.canonical"] == 2


# -- patching ------------------------------------------------------------------


@pytest.fixture
def toy_package():
    """``toy.impl`` defines ``f``; ``toy.user`` imported it by name."""

    impl = types.ModuleType("toy.impl")
    exec(
        "def f(x):\n    return x + 1\n"
        "class K:\n"
        "    def m(self, x):\n        return f(x) * 2\n"
        "    @staticmethod\n"
        "    def s(x):\n        return x - 1\n",
        impl.__dict__,
    )
    user = types.ModuleType("toy.user")
    user.f = impl.f
    exec("def call(x):\n    return f(x)\n", user.__dict__)
    package = types.ModuleType("toy")
    package.impl, package.user = impl, user
    names = {"toy": package, "toy.impl": impl, "toy.user": user}
    sys.modules.update(names)
    yield impl, user
    for name in names:
        del sys.modules[name]


def test_functions_are_rebound_wherever_they_were_imported(toy_package):
    impl, user = toy_package
    original = impl.f
    recorder = Recorder()
    targets = (("toy.impl.f", "toy.f"), ("toy.impl.K.m", "toy.m"),
               ("toy.impl.K.s", "toy.s"))
    with Patcher(recorder, targets, package="toy") as patcher:
        assert not patcher.missing
        recorder.request = 0
        assert user.call(1) == 2
        assert impl.K().m(1) == 4
        assert impl.K.s(5) == 4
    spans = recorder.finished()
    assert [s.name for s in spans] == ["toy.f", "toy.m", "toy.f", "toy.s"]
    assert spans[2].parent == spans[1].id  # f ran inside m
    assert all(s.request == 0 for s in spans)
    # restore() put every original back
    assert impl.f is original and user.f is original
    assert isinstance(vars(impl.K)["s"], staticmethod)
    user.call(1)
    assert len(recorder.finished()) == 4


def test_missing_target_is_a_null_metric_never_an_exception(toy_package, capsys):
    recorder = Recorder()
    targets = (
        ("toy.impl.f", "exec.run"),
        ("toy.impl.gone", "exec.run"),
        ("toy.impl.K.gone", "optimizer.optimize"),
        ("toy.nowhere.f", "query.parse"),
    )
    patcher = Patcher(recorder, targets, package="toy").install()
    patcher.restore()
    assert set(patcher.missing) == {"exec.run", "optimizer.optimize", "query.parse"}
    assert "toy.impl.gone not found" in capsys.readouterr().err

    arm = harness.Arm()
    arm.latencies = arm.scaled = [1.0, 1.0]
    arm.classes = ["rs", "rs"]
    arm.timings = [harness.BlockTiming(2, 2.0, 1.0)]
    layer = harness.per_layer(recorder, patcher, arm, arm)
    for metric in ("exec.run_ms", "exec.tuples", "query.parse_ms",
                   "optimizer.optimize_calls", "backchase.candidates_explored"):
        assert layer[metric][0] is None, metric
    assert layer["chase.containment_ms"][0] == 0.0
    assert layer["trace.overhead_ratio"][0] == 1.0


def test_every_shipped_target_resolves():
    recorder = Recorder()
    with Patcher(recorder) as patcher:
        assert patcher.missing == {}


def test_per_layer_names_match_the_benchmark_contract():
    import json

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    arm = harness.Arm()
    arm.latencies = arm.scaled = [1.0]
    arm.classes = ["rs"]
    arm.timings = [harness.BlockTiming(1, 1.0, 1.0)]
    recorder = Recorder()
    layer = harness.per_layer(recorder, Patcher(recorder, ()), arm, arm)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert {name: unit for name, (_, unit) in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


# -- request streams -----------------------------------------------------------


def take(workload, n):
    stream = workload.blocks()
    return [next(stream) for _ in range(n)]


def test_shape_cycles_never_repeat_a_request():
    import random

    shapes = (
        ("a", "db", "select x where x.A = {0}", ("A",)),
        ("b", "db", "select y", ()),
        ("c", "db", "select z where z.A = {0} and z.B = {1}", ("A", "B")),
    )
    domains = {"A": [1, 2, 3], "B": ["u", "v", "w", "x"]}
    blocks = list(workloads.shape_cycles(shapes, domains, random.Random(3)))
    assert [len(b) for b in blocks] == [3, 2, 2]  # ends when A runs out
    texts = [req.text for block in blocks for req in block]
    assert len(set(texts)) == len(texts)
    assert 'z.B = "' in texts[2]
    again = list(workloads.shape_cycles(shapes, domains, random.Random(3)))
    assert again == blocks


@pytest.mark.parametrize("cls", [workloads.ColdMix, workloads.SemcacheMutating])
def test_streams_repeat_for_a_seed_and_differ_across_seeds(cls):
    first, second, other = cls(5), cls(5), cls(6)
    for workload in (first, second, other):
        workload.setup()
    try:
        assert take(first, 2) == take(second, 2)
        assert take(first, 2) != take(other, 2)
    finally:
        for workload in (first, second, other):
            workload.close()


def test_semcache_script_is_the_same_for_every_seed():
    one, two = workloads.SemcacheMutating(1), workloads.SemcacheMutating(2)
    one.setup(), two.setup()
    try:
        (a,), (b,) = take(one, 1), take(two, 1)
    finally:
        one.close(), two.close()
    # Same shapes and writes in the same places; only the constants move.
    assert [(r.cls, r.op, r.epoch) for r in a] == [(r.cls, r.op, r.epoch) for r in b]
    assert [r.text for r in a] != [r.text for r in b]
    assert sum(r.op == "write" for r in a) == 2
    # A write keeps cardinalities and distinct counts, and changes data.
    (r0, s0), (r1, s1), (r2, s2) = one.versions[:3]
    assert s1 != s0 and r1 == r0 and r2 != r1
    for old, new in ((s0, s1), (r1, r2)):
        assert len(new) == len(old)
        assert sorted(row["B"] for row in new) == sorted(row["B"] for row in old)


def test_a_short_arm_checks_out_against_the_oracle():
    workload = workloads.ColdMix(11)
    workload.setup()
    try:
        arm = harness.run_arm(workload, None, blocks=1)
        harness.check_answers(workload, arm)
        workload.validate(arm.delta, arm.classes, arm.rows)
    finally:
        workload.close()
    assert len(arm.latencies) == len(workloads.ColdMix.SHAPES)
    assert arm.checked == len(arm.latencies) and arm.failed == 0
    assert arm.prefix == len(arm.latencies)
    assert arm.delta["plan_cache.hits"] == 0
    assert arm.delta["plan_cache.misses"] == len(arm.latencies)


def test_slowdown_is_a_median_over_a_window_of_enough_samples():
    meter = harness.SpeedMeter()
    assert meter.slowdown(0.0, 1.0) == 1.0  # no samples: times stay as measured
    ref = meter.REFERENCE_S
    meter.at = [float(i) for i in range(40)]
    # Quiet for 20 samples, then 1.5x slower; one sample hit a hiccup.
    meter.cost = [ref] * 20 + [1.5 * ref] * 20
    meter.cost[5] = 50 * ref
    assert meter.slowdown(0.0, 19.0) == pytest.approx(1.0)
    assert meter.slowdown(20.0, 39.0) == pytest.approx(1.5)
    # A window shorter than MIN_SAMPLES widens to its neighbours.
    assert meter.slowdown(30.2, 30.4) == pytest.approx(1.5)
    assert meter.slowdown(2.0, 3.0) == pytest.approx(1.0)
    assert meter.slowdown(100.0, 101.0) == pytest.approx(1.5)


def test_a_closing_write_is_scaled_with_the_last_block():
    # The write that ends a block is recorded under the id of the request
    # after it — one past the end for the last block.
    recorder = Recorder()
    recorder.spans = [
        Span(0, -1, "api.request", 0, 0.0, 2.0),
        Span(1, -1, "model.mutate", 1, 2.0, 3.0),
    ]
    arm = harness.Arm()
    arm.latencies, arm.scaled, arm.classes = [2.0], [1.0], ["cold"]
    arm.timings = [harness.BlockTiming(1, 3.0, 2.0)]
    layer = harness.per_layer(recorder, Patcher(recorder, ()), arm, arm)
    assert layer["model.mutate_ms"][0] == pytest.approx(500.0)  # 1 s at half speed
    assert layer["model.mutations"][0] == 1.0
