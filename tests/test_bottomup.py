"""Tests for the bottom-up subset enumeration (section 5's other bound)."""

import pytest

from backchase_oracle import (
    bottom_up_minimal_plans,
    enumerate_equivalent_subqueries,
    restrict_to_bindings,
)
from repro.backchase.backchase import minimal_subqueries
from repro.chase.chase import chase
from repro.chase.containment import is_equivalent
from repro.query.parser import parse_constraint, parse_query


def q(text):
    return parse_query(text)


@pytest.fixture
def view_scenario():
    deps = [
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
    query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
    universal = chase(query, deps).query
    return query, universal, deps


class TestRestrictToBindings:
    def test_full_set_is_identity_modulo_simplification(self, view_scenario):
        _, universal, deps = view_scenario
        keep = frozenset(universal.binding_vars())
        result = restrict_to_bindings(universal, keep, deps)
        assert result is not None
        assert set(result.binding_vars()) == keep

    def test_view_only_subset(self, view_scenario):
        query, universal, deps = view_scenario
        view_var = next(
            b.var for b in universal.bindings if str(b.source) == "V"
        )
        result = restrict_to_bindings(universal, frozenset({view_var}), deps)
        assert result is not None
        assert result.schema_names() == frozenset({"V"})
        assert is_equivalent(result, query, deps)

    def test_inequivalent_subset_rejected(self, view_scenario):
        _, universal, deps = view_scenario
        r_var = next(b.var for b in universal.bindings if str(b.source) == "R")
        assert restrict_to_bindings(universal, frozenset({r_var}), deps) is None

    def test_unknown_vars_rejected(self, view_scenario):
        _, universal, deps = view_scenario
        assert restrict_to_bindings(universal, frozenset({"ghost"}), deps) is None


class TestCrossValidation:
    def test_matches_backchase_on_views(self, view_scenario):
        _, universal, deps = view_scenario
        top_down = {f.canonical_key() for f in minimal_subqueries(universal, deps)}
        bottom_up = {
            f.canonical_key() for f in bottom_up_minimal_plans(universal, deps)
        }
        assert top_down == bottom_up

    def test_matches_backchase_on_rs_workload(self, rs_workload):
        universal = chase(rs_workload.query, rs_workload.constraints).query
        top_down = {
            f.canonical_key()
            for f in minimal_subqueries(universal, rs_workload.constraints)
        }
        bottom_up = {
            f.canonical_key()
            for f in bottom_up_minimal_plans(universal, rs_workload.constraints)
        }
        assert top_down == bottom_up

    def test_matches_backchase_on_tableau_minimization(self):
        query = q(
            "select struct(A = p.A, B = r.B) from R p, R q, R r "
            "where p.B = q.A and q.B = r.B"
        )
        top_down = {f.canonical_key() for f in minimal_subqueries(query, [])}
        bottom_up = {f.canonical_key() for f in bottom_up_minimal_plans(query, [])}
        assert top_down == bottom_up

    @pytest.mark.xfail(
        strict=True,
        reason="the reference builds one spelling per binding subset: its "
        "bulk ban keeps I[_x4.PName] = _x4 in {_x3,_x4} (P3, the SI plan), "
        "which holds both ways but plan_lookups_safe rejects; and where the "
        "search keeps {_x1,d} the reference keeps {d,s}, the same plan up "
        "to renaming (one binding set per canonical key)",
    )
    def test_matches_backchase_on_projdept(self, optimized_workloads):
        wl = optimized_workloads.workload("projdept")
        universal = optimized_workloads.result("projdept", "full").universal_plan
        top_down = {
            frozenset(f.binding_vars())
            for f in minimal_subqueries(universal, wl.constraints)
        }
        bottom_up = {
            frozenset(f.binding_vars())
            for f in bottom_up_minimal_plans(universal, wl.constraints)
        }
        assert top_down == bottom_up

    def test_equivalent_subqueries_all_equivalent(self, view_scenario):
        query, universal, deps = view_scenario
        for keep, candidate in enumerate_equivalent_subqueries(
            universal, deps
        ).items():
            assert is_equivalent(candidate, query, deps), (keep, str(candidate))

    def test_minimality_by_subset_inclusion(self, view_scenario):
        _, universal, deps = view_scenario
        equivalent = enumerate_equivalent_subqueries(universal, deps)
        minimal_sets = [
            keep
            for keep in equivalent
            if not any(other < keep for other in equivalent)
        ]
        assert len(minimal_sets) == len(bottom_up_minimal_plans(universal, deps))
