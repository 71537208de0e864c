"""Integration tests for Algorithm 1 on the relational scenarios."""

import pytest

from repro.api.context import OptimizeContext
from repro.exec.engine import execute
from repro.optimizer.optimizer import Optimizer
from repro.query.evaluator import evaluate
from repro.query.paths import Dom, Lookup, NFLookup


@pytest.fixture(scope="module")
def rabc_result(request):
    rabc = request.getfixturevalue("rabc")
    # Full enumeration: these tests assert on the complete plan set
    # (Theorem 2), which the pruned strategy deliberately does not produce.
    opt = Optimizer(
        OptimizeContext(
            constraints=rabc.constraints,
            physical_names=rabc.physical_names,
            statistics=rabc.statistics,
            strategy="full",
        )
    )
    return rabc, opt.optimize(rabc.query)


@pytest.fixture(scope="module")
def rs_result(request):
    rs = request.getfixturevalue("rs_workload")
    # Full enumeration: several tests assert non-winning plans are present.
    opt = Optimizer(
        OptimizeContext(
            constraints=rs.constraints,
            physical_names=rs.physical_names,
            statistics=rs.statistics,
            strategy="full",
        )
    )
    return rs, opt.optimize(rs.query)


class TestRabcOptimization:
    def test_universal_plan_contains_both_indexes(self, rabc_result):
        _, result = rabc_result
        names = result.universal_plan.schema_names()
        assert {"R", "SA", "SB"} <= names

    def test_index_only_plans_found(self, rabc_result):
        """Section 4 example 1: index-only access paths (no scan of R).

        Under the full SA/SB constraint set the paper's two-index
        intersection plan is reducible (the B-link survives as an explicit
        condition), so the minimal index-only plans probe one index and
        filter — one per index.  See the E4 note in benchmarks/README.md.
        """

        _, result = rabc_result
        no_scan = [p for p in result.plans if "R" not in p.query.schema_names()]
        assert any("SA" in p.query.schema_names() for p in no_scan)
        assert any("SB" in p.query.schema_names() for p in no_scan)

    def test_paper_intersection_plan_equivalent(self, rabc_result):
        """The literal §4 plan (dom SA scan + SB probes) is equivalent to Q
        under the constraints, even though it is not minimal."""

        from repro.chase.containment import is_equivalent
        from repro.query.parser import parse_query

        rabc, result = rabc_result
        paper_plan = parse_query(
            "select r1.C from dom(SA) x, SA[x] r1, SB{9} r2 "
            "where x = 5 and r1 = r2"
        )
        assert evaluate(paper_plan, rabc.instance) == evaluate(
            rabc.query, rabc.instance
        )

    def test_original_query_among_plans(self, rabc_result):
        rabc, result = rabc_result
        keys = {p.query.canonical_key() for p in result.plans}
        assert rabc.query.canonical_key() in keys

    def test_all_plans_agree_on_instance(self, rabc_result):
        rabc, result = rabc_result
        reference = evaluate(rabc.query, rabc.instance)
        for plan in result.plans:
            assert evaluate(plan.query, rabc.instance) == reference, str(plan)

    def test_best_plan_is_physical(self, rabc_result):
        _, result = rabc_result
        assert result.best.physical_only


class TestRsOptimization:
    def test_navigation_join_plan_found(self, rs_result):
        """Section 4 example 2: from V v, IR[v.A] r', IS{...}/dom-guard s'."""

        _, result = rs_result
        nav = [
            p
            for p in result.plans
            if "V" in p.query.schema_names()
            and any(
                isinstance(b.source, (Lookup, NFLookup)) for b in p.query.bindings
            )
        ]
        assert nav, [str(p) for p in result.plans]

    def test_nonfailing_refinement_applied(self, rs_result):
        _, result = rs_result
        refined = [p for p in result.plans if p.refined]
        assert refined
        assert any(
            isinstance(b.source, NFLookup)
            for p in refined
            for b in p.query.bindings
        )

    def test_all_plans_agree(self, rs_result):
        rs, result = rs_result
        reference = evaluate(rs.query, rs.instance)
        for plan in result.plans:
            assert evaluate(plan.query, rs.instance) == reference, str(plan)

    def test_executor_agrees_on_best(self, rs_result):
        rs, result = rs_result
        reference = evaluate(rs.query, rs.instance)
        assert execute(result.best.query, rs.instance).results == reference

    def test_plans_sorted_by_cost(self, rs_result):
        _, result = rs_result
        costs = [p.cost for p in result.plans]
        assert costs == sorted(costs)

    def test_report_renders(self, rs_result):
        _, result = rs_result
        text = result.report()
        assert "universal plan" in text
        assert "->" in text


class TestHashJoinRewriting:
    """Section 2: 'we can rewrite join queries into queries that
    correspond to hash-join plans, provided that the hash table exists, in
    the same way we rewrite queries into plans that use indexes.'"""

    def test_hash_table_plan_discovered(self):
        from repro.model.instance import Instance
        from repro.model.values import Row
        from repro.optimizer.statistics import Statistics
        from repro.physical.hashtable import HashTable
        from repro.query.parser import parse_query
        from repro.query.evaluator import evaluate

        instance = Instance(
            {
                "R": frozenset(Row(A=i, B=i % 4) for i in range(20)),
                "S": frozenset(Row(B=i % 4, C=i) for i in range(20)),
            }
        )
        table = HashTable("H", "S", "B")
        table.install_transient(instance)
        query = parse_query(
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"
        )
        opt = Optimizer(
            OptimizeContext(
                constraints=table.constraints(),
                physical_names={"R", "S", "H"},
                statistics=Statistics.from_instance(instance),
            )
        )
        result = opt.optimize(query)
        hash_plans = [
            p for p in result.plans if "H" in p.query.schema_names()
        ]
        assert hash_plans, [str(p) for p in result.plans]
        reference = evaluate(query, instance)
        for plan in hash_plans:
            assert evaluate(plan.query, instance) == reference


class TestOptimizerConfiguration:
    def test_physical_filter(self, rs_result):
        rs, result = rs_result
        for plan in result.physical_plans():
            assert plan.query.schema_names() <= rs.physical_names

    def test_no_physical_names_means_all_physical(self, rabc_result):
        rabc, _ = rabc_result
        opt = Optimizer(
            OptimizeContext(
                constraints=rabc.constraints,
                statistics=rabc.statistics,
            )
        )
        result = opt.optimize(rabc.query)
        assert all(p.physical_only for p in result.plans)

    def test_reorder_disabled(self, rabc_result):
        rabc, _ = rabc_result
        opt = Optimizer(
            OptimizeContext(
                constraints=rabc.constraints,
                physical_names=rabc.physical_names,
                statistics=rabc.statistics,
                reorder=False,
            )
        )
        result = opt.optimize(rabc.query)
        assert result.best is not None
