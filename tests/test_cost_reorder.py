"""Unit tests for the cost model, statistics and join reordering."""

import math

import pytest

from repro.model.instance import Instance
from repro.model.values import DictValue, Row
from repro.optimizer.cost import CostModel, estimate_cost
from repro.optimizer.reorder import reorder_bindings
from repro.optimizer.statistics import Statistics
from repro.query.parser import parse_query


def q(text):
    return parse_query(text)


def output_rows(query, stats):
    """The plan's output estimate: the cost walk's last level, its
    conditions applied."""

    record = []
    estimate_cost(query, stats, record=record)
    rows, factors = record[-1]
    return math.prod(factors, start=rows)


@pytest.fixture
def stats():
    s = Statistics()
    s.set_card("Proj", 1000).set_card("SI", 50).set_card("Dept", 20).set_card("JI", 1000)
    s.entry_cardinality["SI"] = 20.0
    s.set_ndv("Proj", "CustName", 50).set_ndv("Proj", "PName", 1000)
    s.fanout["Dept.DProjs"] = 50.0
    return s


class TestStatistics:
    def test_from_instance(self):
        inst = Instance(
            {
                "R": frozenset({Row(A=1, B="x"), Row(A=2, B="x")}),
                "M": DictValue({"x": frozenset({Row(A=1, B="x"), Row(A=2, B="x")})}),
            }
        )
        s = Statistics.from_instance(inst)
        assert s.card("R") == 2
        assert s.card("M") == 1
        assert s.entry_card("M") == 2
        assert s.distinct("R", "A") == 2
        assert s.distinct("R", "B") == 1

    def test_defaults(self):
        s = Statistics()
        assert s.card("unknown") == s.default_cardinality
        assert s.distinct("unknown", "A") == s.default_ndv

    def test_fanout_from_class_dict(self):
        from repro.model.values import Oid

        oid = Oid("D", 0)
        inst = Instance(
            {"D": DictValue({oid: Row(DName="a", DProjs=frozenset({"x", "y"}))})}
        )
        inst.register_class("D", "D")
        s = Statistics.from_instance(inst)
        assert s.attr_fanout("D", "DProjs") == 2.0

    def test_copy_is_independent(self):
        s = Statistics()
        s.set_card("R", 10).set_ndv("R", "A", 5)
        clone = s.copy()
        clone.set_card("R", 99).set_ndv("R", "A", 1)
        clone.entry_cardinality["M"] = 3.0
        clone.fanout["R.S"] = 2.0
        assert s.card("R") == 10
        assert s.distinct("R", "A") == 5
        assert "M" not in s.entry_cardinality and "R.S" not in s.fanout

    def test_sampled_scan_caps_work_and_keeps_cardinality_exact(self):
        rows = frozenset(Row(A=i, B=i % 7) for i in range(500))
        inst = Instance({"R": rows})
        s = Statistics.from_instance(inst, sample=50)
        # cardinality needs no scan: stays exact
        assert s.card("R") == 500
        # NDV is a scaled estimate, never above the cardinality
        assert 0 < s.distinct("R", "A") <= 500
        assert 0 < s.distinct("R", "B") <= 500
        # a unique attribute extrapolates to (exactly) the cardinality:
        # 50 distinct values in 50 sampled rows, scaled by 500/50
        assert s.distinct("R", "A") == 500

    def test_sampled_matches_exact_when_sample_covers_extent(self):
        rows = frozenset(Row(A=i, B=i % 3) for i in range(20))
        inst = Instance({"R": rows})
        exact = Statistics.from_instance(inst)
        sampled = Statistics.from_instance(inst, sample=1000)
        assert sampled.cardinality == exact.cardinality
        assert sampled.ndv == exact.ndv
        assert sampled.fanout == exact.fanout

    def test_sampled_mixed_dict_scales_ndv_by_row_population(self):
        # 4 set entries then 4 row entries (dicts preserve insertion
        # order): sampling the first 4 sees 2 of each, so the row
        # population estimate is 8 * 2/4 = 4 — NDVs extrapolate to the
        # true row count, not the whole dict size
        data = {}
        for i in range(2):
            data[f"s{i}"] = frozenset({i})
        for i in range(2):
            data[f"r{i}"] = Row(A=i)
        for i in range(2, 4):
            data[f"s{i}"] = frozenset({i})
        for i in range(2, 4):
            data[f"r{i}"] = Row(A=i)
        inst = Instance({"M": DictValue(data)})
        s = Statistics.from_instance(inst, sample=4)
        assert s.distinct("M", "A") == 4.0  # not inflated to 8

    def test_sampled_dict_entries(self):
        value = DictValue(
            {k: frozenset(range(k + 1)) for k in range(100)}
        )
        inst = Instance({"M": value})
        s = Statistics.from_instance(inst, sample=10)
        assert s.card("M") == 100
        # entry size is a sample mean: positive and bounded by the maximum
        assert 0 < s.entry_card("M") <= 100


class TestCostModel:
    def test_selective_index_beats_scan(self, stats):
        scan = q('select struct(PN = p.PName) from Proj p where p.CustName = "C"')
        index = q('select struct(PN = t.PName) from SI{"C"} t')
        assert estimate_cost(index, stats) < estimate_cost(scan, stats)

    def test_guarded_index_beats_scan(self, stats):
        scan = q('select struct(PN = p.PName) from Proj p where p.CustName = "C"')
        guarded = q(
            'select struct(PN = t.PName) from dom(SI) k, SI[k] t where k = "C"'
        )
        assert estimate_cost(guarded, stats) < estimate_cost(scan, stats)

    def test_selectivity_of_const_predicate(self, stats):
        all_rows = q("select struct(PN = p.PName) from Proj p")
        filtered = q('select struct(PN = p.PName) from Proj p where p.CustName = "C"')
        assert output_rows(filtered, stats) == output_rows(all_rows, stats) / 50

    def test_probe_cost_charged(self, stats):
        no_probe = q("select struct(PN = j.PN) from JI j")
        with_probe = q("select struct(PB = I[j.PN].Budg) from JI j")
        assert estimate_cost(with_probe, stats) > estimate_cost(no_probe, stats)

    def test_contradictory_constants_cost_zero_output(self, stats):
        query = q('select struct(PN = p.PName) from Proj p where "a" = "b"')
        assert output_rows(query, stats) == 0.0

    def test_cost_model_tunable(self, stats):
        query = q("select struct(PB = I[j.PN].Budg) from JI j")
        cheap_probes = CostModel(probe_cost=0.0)
        pricey_probes = CostModel(probe_cost=100.0)
        assert estimate_cost(query, stats, cheap_probes) < estimate_cost(
            query, stats, pricey_probes
        )


class TestReorder:
    def test_selective_binding_moved_first(self, stats):
        # scanning SI's dom (50) before Proj (1000) is better
        query = q(
            "select struct(PN = p.PName) from Proj p, dom(SI) k "
            'where k = "C" and k = p.CustName'
        )
        reordered = reorder_bindings(query, stats)
        assert reordered.binding_vars()[0] == "k"

    def test_dependencies_respected(self, stats):
        query = q(
            "select struct(PN = s) from depts d, d.DProjs s, Proj p where s = p.PName"
        )
        reordered = reorder_bindings(query, stats)
        order = reordered.binding_vars()
        assert order.index("d") < order.index("s")

    def test_never_worse(self, stats):
        query = q(
            'select struct(PN = p.PName) from Proj p, JI j where j.PN = p.PName'
        )
        reordered = reorder_bindings(query, stats)
        assert estimate_cost(reordered, stats) <= estimate_cost(query, stats)

    def test_equivalent_results(self, stats):
        inst = Instance(
            {
                "R": frozenset({Row(A=1, B=2)}),
                "S": frozenset({Row(B=2, C=3), Row(B=9, C=4)}),
            }
        )
        from repro.query.evaluator import evaluate

        query = q("select struct(A = r.A, C = s.C) from S s, R r where r.B = s.B")
        reordered = reorder_bindings(query, Statistics.from_instance(inst))
        assert evaluate(query, inst) == evaluate(reordered, inst)
