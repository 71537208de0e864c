"""Section 3's rule formulation (``backchase_oracle``): the chase and
backchase rules, chase precedence, agreement with Algorithm 1, and the
search strategies of :func:`minimal_subqueries` on the same design."""

import pytest

from backchase_oracle import BackchaseRule, ChaseRule, rule_normal_forms, saturate
from repro.backchase.backchase import BackchaseStats, minimal_subqueries
from repro.chase.chase import chase
from repro.errors import BackchaseError
from repro.optimizer.cost import estimate_cost
from repro.optimizer.statistics import Statistics
from repro.query.parser import parse_constraint, parse_query


def q(text):
    return parse_query(text)


@pytest.fixture
def view_deps():
    return [
        parse_constraint(
            "forall (r in R, s in S) where r.B = s.B -> exists (v in V) "
            "v.A = r.A and v.C = s.C",
            "cV",
        ),
        parse_constraint(
            "forall (v in V) -> exists (r in R, s in S) r.B = s.B and "
            "v.A = r.A and v.C = s.C",
            "cV'",
        ),
    ]


class TestRules:
    def test_chase_rule_steps_once(self, view_deps):
        rule = ChaseRule(view_deps)
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        results = list(rule.apply(query))
        assert len(results) == 1
        assert "V" in results[0].schema_names()

    def test_chase_rule_empty_at_fixpoint(self, view_deps):
        rule = ChaseRule(view_deps)
        query = q(
            "select struct(A = v.A, C = v.C) from R r, S s, V v "
            "where r.B = s.B and v.A = r.A and v.C = s.C"
        )
        assert list(rule.apply(query)) == []

    def test_backchase_rule_yields_candidates(self, view_deps):
        rule = BackchaseRule(view_deps)
        saturated = saturate(
            q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"),
            view_deps,
        )
        candidates = list(rule.apply(saturated))
        assert candidates
        sizes = {len(c.bindings) for c in candidates}
        assert all(s == len(saturated.bindings) - 1 for s in sizes)


class TestStrategies:
    def test_exhaustive_matches_algorithm1(self, view_deps):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        forms = rule_normal_forms(query, view_deps)
        keys = {plan.canonical_key() for plan in forms}
        # both the base join and the view-only plan are normal forms
        assert query.canonical_key() in keys
        assert any("V" in plan.schema_names() and len(plan.bindings) == 1
                   for plan in forms)

    def test_beam_prunes(self, view_deps):
        # the cost-bounded search expands no more than the full one
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        universal = chase(query, view_deps).query
        stats = Statistics()
        stats.set_card("R", 1000).set_card("S", 1000).set_card("V", 10)
        stats_full = BackchaseStats()
        minimal_subqueries(universal, view_deps, stats=stats_full)
        stats_pruned = BackchaseStats()
        minimal_subqueries(
            universal, view_deps, stats=stats_pruned,
            strategy="pruned", statistics=stats,
        )
        assert stats_pruned.nodes_visited <= stats_full.nodes_visited
        assert stats_pruned.normal_forms <= stats_full.normal_forms

    def test_greedy_finds_cheap_view_plan(self, view_deps):
        stats = Statistics()
        stats.set_card("R", 1000).set_card("S", 1000).set_card("V", 10)
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        universal = chase(query, view_deps).query
        plans = minimal_subqueries(
            universal, view_deps, strategy="pruned", statistics=stats
        )
        best = min(plans, key=lambda plan: estimate_cost(plan, stats))
        assert best.schema_names() == frozenset({"V"})

    def test_chase_precedence(self, view_deps):
        # saturate must run before any backchase: the search on a
        # chase-unsaturated query still reaches the view plan.
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        forms = rule_normal_forms(query, view_deps)
        assert any("V" in plan.schema_names() for plan in forms)

    def test_unknown_strategy_rejected(self, view_deps):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        with pytest.raises(BackchaseError):
            minimal_subqueries(query, view_deps, strategy="bogus")

    def test_node_budget(self, view_deps):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        universal = chase(query, view_deps).query
        with pytest.raises(BackchaseError):
            minimal_subqueries(universal, view_deps, max_nodes=0)


class TestAgainstAlgorithm1:
    def test_same_minimal_set_as_backchase(self, view_deps):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        universal = chase(query, view_deps).query
        direct = {f.canonical_key() for f in minimal_subqueries(universal, view_deps)}
        rule_based = {
            plan.canonical_key() for plan in rule_normal_forms(query, view_deps)
        }
        assert direct == rule_based
