"""Unit tests for the backchase."""

import pytest

from backchase_oracle import is_minimal, try_remove_binding
from repro.backchase.backchase import (
    BackchaseStats,
    minimal_subqueries,
    quick_simplify_conditions,
    simplify_conditions,
    toposort_bindings,
)
from repro.chase.chase import ChaseEngine, chase
from repro.chase.containment import is_contained_in, is_equivalent
from repro.errors import BackchaseError
from repro.query.parser import parse_constraint, parse_query


def q(text):
    return parse_query(text)


class TestToposort:
    def test_reorders_dependencies(self):
        query = q("select struct(X = s) from depts d, d.DProjs s")
        # manually scramble binding order
        from repro.query.ast import PCQuery

        scrambled = PCQuery(query.output, tuple(reversed(query.bindings)), ())
        ordered = toposort_bindings(scrambled)
        assert ordered.binding_vars() == ("d", "s")

    def test_cycle_detected(self):
        from repro.query.ast import Binding, PCQuery, PathOutput
        from repro.query.paths import Attr, Var

        cyclic = PCQuery(
            PathOutput(Var("a")),
            (
                Binding("a", Attr(Var("b"), "X")),
                Binding("b", Attr(Var("a"), "Y")),
            ),
        )
        with pytest.raises(BackchaseError):
            toposort_bindings(cyclic)

    def test_cycle_reported_deterministically(self):
        """The offending cycle is listed in sorted variable order, whatever
        the clause order the search got stuck in."""

        from repro.query.ast import Binding, PCQuery, PathOutput
        from repro.query.paths import Attr, Var

        forward = (
            Binding("a", Attr(Var("b"), "X")),
            Binding("b", Attr(Var("a"), "Y")),
        )
        messages = []
        for bindings in (forward, tuple(reversed(forward))):
            cyclic = PCQuery(PathOutput(Var("a")), bindings)
            with pytest.raises(BackchaseError) as excinfo:
                toposort_bindings(cyclic)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0] == (
            "cyclic binding dependencies: a in b.X, b in a.Y"
        )

    def test_cycle_report_skips_resolvable_bindings(self):
        """Bindings that toposort *can* place never appear in the report."""

        from repro.query.ast import Binding, PCQuery, PathOutput
        from repro.query.paths import Attr, SName, Var

        cyclic = PCQuery(
            PathOutput(Var("ok")),
            (
                Binding("z", Attr(Var("y"), "X")),
                Binding("y", Attr(Var("z"), "Y")),
                Binding("ok", SName("R")),
            ),
        )
        with pytest.raises(BackchaseError, match="y in z.Y, z in y.X") as excinfo:
            toposort_bindings(cyclic)
        assert "ok" not in str(excinfo.value)


class TestSimplify:
    def test_drops_congruence_implied(self):
        query = q(
            "select struct(A = r.A) from R r, S s "
            "where r.B = s.B and M[r.B] = M[s.B] and dom(M) = dom(M)"
        )
        simplified = simplify_conditions(query)
        assert len(simplified.conditions) == 1

    def test_order_independent(self):
        a = q("select struct(A = r.A) from R r, S s where M[r.B] = M[s.B] and r.B = s.B")
        b = q("select struct(A = r.A) from R r, S s where r.B = s.B and M[r.B] = M[s.B]")
        assert (
            simplify_conditions(a).canonical_key()
            == simplify_conditions(b).canonical_key()
        )

    def test_quick_simplify_catches_residues(self):
        query = q(
            "select struct(A = r.A) from R r, S s "
            "where M[r.B] = M[s.B] and r.B = s.B"
        )
        assert len(quick_simplify_conditions(query).conditions) == 1

    def test_keeps_independent_conditions(self):
        query = q("select struct(A = r.A) from R r, S s where r.B = s.B and r.A = 5")
        assert len(simplify_conditions(query).conditions) == 2


class TestTryRemove:
    def test_tableau_redundant_binding(self):
        """The section 3 minimization example: remove the third R binding."""

        query = q(
            "select struct(A = p.A, B = r.B) from R p, R q, R r "
            "where p.B = q.A and q.B = r.B"
        )
        candidate = try_remove_binding(query, "r", [])
        assert candidate is not None
        assert candidate.binding_vars() == ("p", "q")
        assert "B = q.B" in str(candidate.output)
        assert is_equivalent(candidate, query)

    def test_non_redundant_binding_refused(self):
        query = q(
            "select struct(A = p.A, B = q.B) from R p, R q where p.B = q.A"
        )
        assert try_remove_binding(query, "q", []) is None
        assert try_remove_binding(query, "p", []) is None

    def test_removal_requires_constraint(self):
        query = q(
            "select struct(N = p.PName) from Proj p, depts d where p.PDept = d.DName"
        )
        ric = parse_constraint(
            "forall (p in Proj) -> exists (d in depts) p.PDept = d.DName", "RIC"
        )
        assert try_remove_binding(query, "d", []) is None
        candidate = try_remove_binding(query, "d", [ric])
        assert candidate is not None
        assert candidate.binding_vars() == ("p",)

    def test_output_dependency_blocks_removal(self):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        assert try_remove_binding(query, "s", []) is None

    def test_dependent_binding_resourced(self):
        # removing d requires re-sourcing s ∈ d.DProjs; with no equivalent
        # source available the step must fail
        query = q("select struct(X = s) from depts d, d.DProjs s")
        assert try_remove_binding(query, "d", []) is None

    def test_removing_missing_var_returns_none(self):
        query = q("select struct(A = r.A) from R r")
        assert try_remove_binding(query, "zzz", []) is None

    def test_empty_relation_guard(self):
        # an unused binding cannot be dropped without a nonemptiness proof
        query = q("select struct(A = r.A) from R r, S s")
        assert try_remove_binding(query, "s", []) is None
        nonempty_via = parse_constraint(
            "forall (r in R) -> exists (s in S) true", "ne"
        )
        candidate = try_remove_binding(query, "s", [nonempty_via])
        assert candidate is not None

    def test_parent_is_contained_in_the_candidate_by_construction(self):
        # the direction accept_candidate does not chase for (the workload
        # searches: tests/test_backchase_differential.py)
        query = q(
            "select struct(A = p.A, B = r.B) from R p, R q, R r "
            "where p.B = q.A and q.B = r.B"
        )
        candidate = try_remove_binding(query, "r", [])
        assert candidate is not None
        assert is_contained_in(query, candidate, [])


class TestMinimalSubqueries:
    def test_tableau_minimization_normal_form(self):
        query = q(
            "select struct(A = p.A, B = r.B) from R p, R q, R r "
            "where p.B = q.A and q.B = r.B"
        )
        forms = minimal_subqueries(query, [])
        assert len(forms) == 1
        assert len(forms[0].bindings) == 2

    def test_already_minimal(self):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        forms = minimal_subqueries(query, [])
        assert len(forms) == 1
        assert forms[0].canonical_key() == query.canonical_key()

    def test_stats_collected(self):
        query = q(
            "select struct(A = p.A) from R p, R q where p.A = q.A"
        )
        stats = BackchaseStats()
        minimal_subqueries(query, [], stats=stats)
        assert stats.nodes_visited >= 1
        assert stats.normal_forms >= 1

    def test_node_budget_enforced(self):
        query = q(
            "select struct(A = a.A) from R a, R b, R c, R d "
            "where a.A = b.A and b.A = c.A and c.A = d.A"
        )
        with pytest.raises(BackchaseError):
            minimal_subqueries(query, [], max_nodes=1)

    def test_multiple_minimal_forms_under_constraints(self, rs_workload):
        """Section 4 example 2: several genuinely different minimal plans."""

        U = chase(rs_workload.query, rs_workload.constraints).query
        forms = minimal_subqueries(U, rs_workload.constraints)
        keys = {f.canonical_key() for f in forms}
        assert len(keys) == len(forms) >= 4
        # Q itself is among the minimal plans (direct mapping)
        assert rs_workload.query.canonical_key() in keys

    def test_is_minimal(self):
        assert is_minimal(q("select struct(A = r.A) from R r"), [])
        assert not is_minimal(
            q("select struct(A = p.A) from R p, R q where p.A = q.A"), []
        )
