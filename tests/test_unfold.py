"""Tests for view unfolding."""

import pytest

from repro.chase.containment import is_equivalent
from repro.errors import QueryValidationError
from repro.model.instance import Instance
from repro.model.values import Row
from repro.physical.views import MaterializedView
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from unfold_oracle import is_equivalent_by_unfolding, unfold_all, unfold_view


def q(text):
    return parse_query(text)


@pytest.fixture
def view():
    return MaterializedView(
        "V",
        q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"),
    )


class TestUnfoldView:
    def test_simple_unfold(self, view):
        plan = q("select struct(X = v.A, Y = v.C) from V v")
        unfolded = unfold_view(plan, view)
        assert "V" not in unfolded.schema_names()
        assert unfolded.schema_names() == frozenset({"R", "S"})
        # semantically the base join
        base = q("select struct(X = r.A, Y = s.C) from R r, S s where r.B = s.B")
        assert is_equivalent(unfolded, base)

    def test_unfold_with_selection(self, view):
        plan = q("select struct(X = v.A) from V v where v.C = 3")
        unfolded = unfold_view(plan, view)
        base = q("select struct(X = r.A) from R r, S s where r.B = s.B and s.C = 3")
        assert is_equivalent(unfolded, base)

    def test_unfold_multiple_scans(self, view):
        plan = q(
            "select struct(X = v.A, Y = w.A) from V v, V w where v.C = w.C"
        )
        unfolded = unfold_view(plan, view)
        assert "V" not in unfolded.schema_names()
        assert len(unfolded.bindings) == 4

    def test_view_var_as_whole_value_rejected(self, view):
        plan = q("select struct(X = u.A) from V u, V w where u = w")
        with pytest.raises(QueryValidationError):
            unfold_view(plan, view)

    def test_unknown_field_rejected(self, view):
        plan = q("select struct(X = v.Nope) from V v")
        with pytest.raises(QueryValidationError):
            unfold_view(plan, view)

    def test_no_view_scan_is_identity(self, view):
        plan = q("select struct(X = r.A) from R r")
        assert unfold_view(plan, view) is plan


class TestUnfoldAll:
    def test_views_over_views(self, view):
        top = MaterializedView("W", q("select struct(A = v.A) from V v"))
        plan = q("select struct(X = w.A) from W w")
        unfolded = unfold_all(plan, [view, top])
        assert unfolded.schema_names() == frozenset({"R", "S"})

    def test_semantics_preserved_on_instance(self, view):
        instance = Instance(
            {
                "R": frozenset({Row(A=1, B=5), Row(A=2, B=6)}),
                "S": frozenset({Row(B=5, C=10), Row(B=6, C=20)}),
            }
        )
        view.install(instance)
        plan = q("select struct(X = v.A, Y = v.C) from V v where v.C = 10")
        unfolded = unfold_all(plan, [view])
        assert evaluate(plan, instance) == evaluate(unfolded, instance)


class TestEquivalenceByUnfolding:
    def test_matches_chase_based_equivalence(self, view):
        plan = q("select struct(A = v.A, C = v.C) from V v")
        base = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        assert is_equivalent_by_unfolding(plan, base, [view])
        assert is_equivalent(plan, base, view.constraints())

    def test_detects_inequivalence(self, view):
        plan = q("select struct(A = v.A, C = v.C) from V v where v.C = 1")
        base = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        assert not is_equivalent_by_unfolding(plan, base, [view])

    def test_cross_check_on_optimizer_output(self, rs_workload):
        """Every unrefined view-plan the optimizer emits is equivalent to
        the query by independent unfolding."""

        from repro.api.context import OptimizeContext
        from repro.optimizer.optimizer import Optimizer
        from repro.query.paths import Lookup, NFLookup

        wl = rs_workload
        # full enumeration: the scan below wants the whole plan space
        opt = Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                strategy="full",
            )
        )
        result = opt.optimize(wl.query)
        checked = 0
        for plan in result.plans:
            names = plan.query.schema_names()
            uses_index = any(
                isinstance(t, (Lookup, NFLookup))
                for path in plan.query.all_paths()
                for t in __import__("repro.query.paths", fromlist=["subterms"]).subterms(path)
            )
            if uses_index or not names <= {"R", "S", "V"}:
                continue  # unfolding covers pure view plans only
            assert is_equivalent_by_unfolding(plan.query, wl.query, wl.views)
            checked += 1
        assert checked >= 1
