"""Differential harness for the backchase's shortcuts: the search with
them against the search without.

``minimal_subqueries`` decides condition (3) by *subsumption* where it can
— a candidate that still contains, binding for binding, a subquery the
search already accepted is contained in it by the identity mapping, no
chase needed — and by its dual, *refutation*: a candidate that maps by the
identity into one the search already rejected is rejected too.  It builds
one closure per search node, handing every removal a copy.  None of it may
change *what* the search computes:

* whenever subsumption answers, the chase-only ``is_contained_in`` (the
  oracle here: same function, no accepted subqueries) answers *True* too;
  whenever a refutation is inherited, it answers *False*;
* the accepted subqueries it is given are exactly the antichain of
  minimal accepted binding-variable sets, in order of first acceptance;
* a candidate built on a copy of the node's closure is the candidate
  built on a closure of its own;
* the closure the search keeps on each candidate (built once, read by
  subsumption, refutation, the cost floor and the node's removals) stays
  as built, and no query the search returns or a plan cache holds keeps
  one;
* every accepted candidate contains its parent — the direction
  ``accept_candidate`` takes from the construction instead of chasing
  (the oracle here: a chase-only engine deciding parent ⊑ candidate);
* with subsumption switched off, and with refutation switched off, the
  search returns the same normal forms and the same ``BackchaseStats`` —
  on the workloads and on generated queries × constraint sets — and on the
  workloads both agree with the bottom-up subset enumeration (which never
  sees an antichain).

Runs under three hash seeds in ``make determinism``.
"""

from __future__ import annotations

import gc
import inspect
from typing import Dict, FrozenSet, List

import pytest

from repro.api.workloads import WORKLOAD_NAMES, build_workload
from repro.backchase import backchase
from repro.backchase.backchase import (
    BackchaseStats,
    minimal_subqueries,
    try_remove_binding,
)
from repro.backchase.bottomup import bottom_up_minimal_plans, restrict_to_bindings
from repro.chase import containment
from repro.chase.chase import ChaseEngine, chase
from repro.chase.congruence import build_congruence
from repro.errors import BackchaseError, ChaseNonTermination
from repro.optimizer.optimizer import Optimizer
from repro.query.ast import PCQuery
from repro.query.parser import parse_constraint, parse_query

STRATEGIES = ("pruned", "full")


def names_of(query) -> FrozenSet[str]:
    return frozenset(query.binding_vars())


def kept_closure(query):
    return query.__dict__.get("_congruence")


def holding_a_closure() -> List[str]:
    """Every live query that still keeps a search's closure."""

    return [
        str(obj) for obj in gc.get_objects()
        if type(obj) is PCQuery and kept_closure(obj) is not None
    ]


def closure_state(cc):
    return (
        set(cc.all_terms()),
        {frozenset(members) for members in cc.classes()},
        cc.inconsistent,
    )


def minimal_in_order(sets: List[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """The minimal elements of ``sets`` (by inclusion), first occurrences,
    in order — by definition, not by maintenance."""

    distinct = list(dict.fromkeys(sets))
    return [s for s in distinct if not any(other < s for other in distinct)]


class Observed:
    def __init__(self) -> None:
        self.subsumed = 0
        self.refuted = 0
        self.chased = 0
        self.unsound: List[str] = []  # subsumption said True, the chase did not
        self.unsound_refutations: List[str] = []  # said False, the chase did not
        self.antichain_diffs: List[tuple] = []
        self.closure_leaks: List[str] = []
        self.kept_reads: Dict[str, int] = {"subsumption": 0, "floor": 0, "removal": 0}
        self.kept_changed: List[str] = []  # a kept closure no longer as built
        self.left_holding: List[str] = []  # queries keeping one after the search
        self.built = 0
        self.accepted = 0
        self.parent_not_contained: List[str] = []  # parent ⋢ accepted candidate


def observe(wl, strategy) -> Observed:
    """One optimize of the workload query with three observers installed."""

    seen = Observed()
    oracle = ChaseEngine(wl.constraints)  # chases what subsumption skipped
    shape_verdicts: Dict[str, bool] = {}
    candidates: List = []  # every candidate of the search loop, in order
    real_build = backchase.build_candidate
    real_accept = backchase.accept_candidate
    real_decide = containment.is_contained_in
    real_subsumed = containment.subsumed
    real_floor = backchase.plan_cost_floor

    def as_built(query, reader):
        kept = kept_closure(query)
        if kept is not None:
            seen.kept_reads[reader] += 1
            if closure_state(kept) != closure_state(build_congruence(query)):
                seen.kept_changed.append(f"after {reader}: {query}")

    def subsumed(query, others):
        # refutation asks it too, of each refuted query in turn
        verdict = real_subsumed(query, others)
        as_built(query, "subsumption")
        return verdict

    def floor(query, *args, **kwargs):
        bound = real_floor(query, *args, **kwargs)
        as_built(query, "floor")
        return bound

    def build(query, banned, cc=None):
        candidate = real_build(query, banned, cc)
        if cc is not None:  # the search loop, on a copy of the node's closure
            seen.built += 1
            alone = real_build(query, banned)
            if candidate != alone or cc is kept_closure(query):
                seen.closure_leaks.append(f"{query} minus {sorted(banned)}")
            as_built(query, "removal")
            if candidate is not None:
                candidates.append(candidate)
        return candidate

    def accept(*args, **kwargs):
        # bound by name, whatever the search passes positionally
        bound = inspect.signature(real_accept).bind(*args, **kwargs)
        bound.apply_defaults()
        candidate, parent = bound.arguments["candidate"], bound.arguments["parent"]
        accepted = list(bound.arguments["accepted"])
        bound.arguments["accepted"] = accepted
        given = [names_of(sub) for sub in accepted]
        earlier = [
            names_of(c) for c in candidates[:-1] if shape_verdicts[c.canonical_key()]
        ]
        if given != minimal_in_order(earlier):
            seen.antichain_diffs.append((given, minimal_in_order(earlier)))
        verdict = real_accept(*bound.args, **bound.kwargs)
        shape_verdicts[candidate.canonical_key()] = verdict
        if verdict:
            seen.accepted += 1
            if not real_decide(parent, candidate, wl.constraints, oracle):
                seen.parent_not_contained.append(f"{parent} vs {candidate}")
        return verdict

    def decide(q1, q2, deps=(), engine=None, accepted=(), refuted=()):
        accepted, refuted = list(accepted), list(refuted)
        if containment.subsumed(q1, accepted):
            seen.subsumed += 1
            if not real_decide(q1, q2, deps, oracle):
                seen.unsound.append(str(q1))
        elif containment.refuted_by_identity(q1, refuted):
            seen.refuted += 1
            if real_decide(q1, q2, deps, oracle):
                seen.unsound_refutations.append(str(q1))
        else:
            seen.chased += 1
        return real_decide(q1, q2, deps, engine, accepted, refuted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backchase, "build_candidate", build)
        patch.setattr(backchase, "accept_candidate", accept)
        patch.setattr(containment, "is_contained_in", decide)
        patch.setattr(containment, "subsumed", subsumed)
        patch.setattr(backchase, "plan_cost_floor", floor)
        result = Optimizer(
            wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
            strategy=strategy,
        ).optimize(wl.query)
    seen.left_holding = holding_a_closure()
    assert result.plans  # alive through the scan above
    return seen


@pytest.fixture(scope="module")
def searches():
    # Private runs, not conftest's shared optimizations: the search itself
    # is what is observed, with the module's recorders patched into it.
    return {
        (name, strategy): observe(build_workload(name), strategy)
        for name in WORKLOAD_NAMES
        for strategy in STRATEGIES
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestTheWorkloadSearches:
    def test_subsumption_says_true_only_where_the_chase_does(
        self, searches, name, strategy
    ):
        seen = searches[name, strategy]
        assert seen.unsound == []
        assert seen.subsumed, "subsumption never answered"
        if name == "projdept":
            assert seen.subsumed > seen.chased

    def test_a_refutation_says_false_only_where_the_chase_does(
        self, searches, name, strategy
    ):
        seen = searches[name, strategy]
        assert seen.unsound_refutations == []
        if name in ("rs", "projdept"):
            assert seen.refuted, "no refutation was ever inherited"

    def test_the_antichain_is_the_minimal_accepted_variable_sets(
        self, searches, name, strategy
    ):
        assert searches[name, strategy].antichain_diffs == []

    def test_a_removal_on_a_copy_builds_what_a_closure_of_its_own_builds(
        self, searches, name, strategy
    ):
        seen = searches[name, strategy]
        assert seen.built > 20
        assert seen.closure_leaks == []

    def test_the_kept_closure_stays_as_built(self, searches, name, strategy):
        seen = searches[name, strategy]
        assert seen.kept_changed == []
        assert seen.kept_reads["subsumption"] and seen.kept_reads["removal"]
        if strategy == "pruned":
            assert seen.kept_reads["floor"]

    def test_no_query_keeps_a_closure_after_the_search(
        self, searches, name, strategy
    ):
        assert searches[name, strategy].left_holding == []

    def test_every_accepted_candidate_contains_its_parent(
        self, searches, name, strategy
    ):
        seen = searches[name, strategy]
        assert seen.accepted
        assert seen.parent_not_contained == []


def test_no_plan_cached_query_keeps_a_closure(optimized_workloads):
    """The session's shared optimizations, one per workload and strategy,
    each held in its database's plan cache."""

    for name in WORKLOAD_NAMES:
        for strategy in STRATEGIES:
            assert optimized_workloads.result(name, strategy).plans
    assert holding_a_closure() == []


class TestSubsumed:
    """Inside one search every covered candidate passes (candidates carry
    the maximal implied equalities), so the refusals are pinned here."""

    SUB = "select struct(A = r.A) from R r, S s where r.B = s.B"

    @pytest.mark.parametrize(
        "query, verdict",
        [
            (SUB, True),
            ("select struct(A = r.A) from R r, S s, T t "
             "where s.B = r.B and t.C = s.C", True),
            ("select struct(A = r.A) from R r, S s2 where r.B = s2.B", False),  # name
            ("select struct(A = r.A) from R r, T s where r.B = s.B", False),  # source
            ("select struct(A = r.A) from R r, S s where r.C = s.C", False),  # condition
            ("select struct(A = r.C) from R r, S s where r.B = s.B", False),  # output
            ("select struct(A = r.C) from R r, S s "
             "where r.B = s.B and r.C = r.A", True),  # ... up to congruence
        ],
    )
    def test_identity_mapping(self, query, verdict):
        assert containment.subsumed(parse_query(query), [parse_query(self.SUB)]) is verdict

    def test_a_refusal_falls_through_to_the_chase(self):
        narrow = parse_query("select struct(A = r.A) from R r where r.B = 1")
        wide = parse_query("select struct(A = r.A) from R r")
        assert not containment.is_contained_in(wide, narrow, accepted=[narrow])
        assert containment.is_contained_in(narrow, wide, accepted=[narrow])
        assert not containment.subsumed(wide, [])


class TestRefutedByIdentity:
    """The dual: a query inherits a refutation from one it maps into by the
    identity.  Pinned both ways, since inside one search a refused mapping
    just falls through to the chase."""

    REFUTED = "select struct(A = r.A) from R r, S s where r.B = s.B and s.C = 1"

    @pytest.mark.parametrize(
        "query, verdict",
        [
            ("select struct(A = r.A) from R r, S s where r.B = s.B", True),
            ("select struct(A = r.A) from R r", True),
            (REFUTED, True),
            ("select struct(A = r.A) from R r, S s2 where r.B = s2.B", False),  # name
            ("select struct(A = r.A) from R r, T s where r.B = s.B", False),  # source
            ("select struct(A = r.A) from R r, S s where r.C = s.C", False),  # condition
            ("select struct(A = r.C) from R r", False),  # output
            ("select struct(A = r.A) from R r, S s, T t where r.B = s.B", False),
        ],
    )
    def test_identity_mapping(self, query, verdict):
        refuted = [parse_query(self.REFUTED)]
        assert containment.refuted_by_identity(parse_query(query), refuted) is verdict

    def test_a_refused_mapping_is_decided_by_the_chase(self):
        """``C.A = 2`` holds in ``C`` but not in the refuted query, so ``C``
        is chased — and found contained, as the refuted one was not."""

        root = parse_query("select struct(A = r.A) from R r where r.A = 2")
        refuted = parse_query("select struct(A = r.A) from R r")
        candidate = parse_query("select struct(A = r.A) from R r where r.A = 2")
        engine = ChaseEngine([])
        assert not containment.is_contained_in(refuted, root, engine=engine)
        assert not containment.refuted_by_identity(candidate, [refuted])
        assert containment.is_contained_in(
            candidate, root, engine=engine, refuted=[refuted]
        )
        assert engine.containment_decisions["refuted"] == 0

    def test_an_inherited_refutation_is_not_chased(self):
        root = parse_query("select struct(A = r.A) from R r where r.A = 2")
        refuted = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B")
        candidate = parse_query("select struct(A = r.A) from R r")
        engine = ChaseEngine([])
        assert containment.is_contained_in(candidate, root, engine=engine) is False
        fresh = ChaseEngine([])
        assert not containment.is_contained_in(
            candidate, root, engine=fresh, refuted=[refuted]
        )
        assert fresh.containment_decisions["refuted"] == 1 and not fresh.states


class TestOutsideTheSearch:
    """``try_remove_binding`` and the bottom-up reference keep no
    antichain and no refutations: their verdicts are the chase's, as
    before."""

    def test_no_accepted_subquery_is_ever_passed(self):
        wl = build_workload("rs")
        universal = chase(wl.query, wl.constraints).query
        passed = []

        def watching(real):
            def watched(query, others):
                passed.append(list(others))
                return real(query, others)

            return watched

        with pytest.MonkeyPatch.context() as patch:
            for shortcut in ("subsumed", "refuted_by_identity"):
                patch.setattr(
                    containment, shortcut, watching(getattr(containment, shortcut))
                )
            engine = ChaseEngine(wl.constraints)
            for var in universal.binding_vars():
                try_remove_binding(universal, var, wl.constraints, engine)
            for var in universal.binding_vars():
                restrict_to_bindings(
                    universal, names_of(universal) - {var}, wl.constraints, engine
                )
        assert passed and not any(passed)

    def test_a_subsumed_candidate_is_accepted_without_reaching_the_bound(self):
        """The behavioural edge (see ``accept_candidate``), on the cyclic
        set of ``tests/test_chase.py``: the chase of any query over ``R``
        hits the step bound.  A *True* something supplies before the bound
        is decided — the containment mapping ``t ↦ s`` is there before the
        first step, and a candidate that contains an accepted subquery
        never chases — while a verdict that needs the fixpoint still
        raises at the bound."""

        loop = parse_constraint(
            "forall (x in R) -> exists (y in R) y.Parent = x", "loop"
        )
        parent = parse_query(
            "select struct(A = r.A) from R r, R s, R t where r = s and s = t"
        )
        elsewhere = parse_query(
            "select struct(A = r.A) from R r, R s where s.B = 1"
        )
        candidate = backchase.build_candidate(parent, frozenset("t"))
        accepted = backchase.build_candidate(parent, frozenset("st"))
        assert names_of(accepted) < names_of(candidate)
        engine = ChaseEngine([loop], max_steps=7)
        assert backchase.accept_candidate(candidate, parent, engine)
        assert engine.containment_decisions["early"] == 1
        (state,) = engine.states.values()
        assert state.steps == 0 and not state.done
        with pytest.raises(ChaseNonTermination) as raised:
            backchase.accept_candidate(candidate, elsewhere, engine)
        assert raised.value.steps == 7
        with pytest.raises(ChaseNonTermination):
            containment.is_contained_in(candidate, elsewhere, [loop], engine)
        # the state sits at the bound now; a question it answers still stops
        assert containment.is_contained_in(candidate, parent, [loop], engine)
        assert engine.containment.misses == 2  # both were computed verdicts
        fresh = ChaseEngine([loop], max_steps=7)
        assert backchase.accept_candidate(
            candidate, parent, fresh, accepted=[accepted]
        )
        assert fresh.containment_decisions["subsumed"] == 1 and not fresh.states


def search_outcome(universal, deps, strategy):
    stats = BackchaseStats()
    forms = minimal_subqueries(universal, deps, strategy=strategy, stats=stats)
    return [str(f) for f in forms], stats.as_dict()


def assert_search_unchanged_without(shortcut, universal, deps):
    """Normal forms and counters with ``shortcut`` (an identity-mapping
    test of ``repro.chase.containment``) == without it, under both
    strategies."""

    for strategy in STRATEGIES:
        with_it = search_outcome(universal, deps, strategy)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(containment, shortcut, lambda query, others: False)
            without_it = search_outcome(universal, deps, strategy)
        assert with_it == without_it, (shortcut, strategy)


@pytest.mark.parametrize("name", ("rs", "rabc", "oo_asr"))
def test_workload_searches_are_unchanged_by_subsumption(name):
    """... and the unbounded run still finds what the bottom-up subset
    enumeration (no antichain anywhere) finds."""

    wl = build_workload(name)
    universal = chase(wl.query, wl.constraints).query
    assert_search_unchanged_without("subsumed", universal, wl.constraints)
    forms = minimal_subqueries(universal, wl.constraints, strategy="full")
    reference = bottom_up_minimal_plans(universal, wl.constraints)
    assert {f.canonical_key() for f in reference} == {
        f.canonical_key() for f in forms
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_searches_are_unchanged_by_refutation(name):
    wl = build_workload(name)
    universal = chase(wl.query, wl.constraints).query
    assert_search_unchanged_without("refuted_by_identity", universal, wl.constraints)


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402

from conftest import constraint_sets, pc_queries  # noqa: E402


GENERATED = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def assert_generated_search_unchanged_without(shortcut, query, deps):
    try:
        universal = chase(query, deps, max_steps=80).query
        assume(len(universal.bindings) <= 8)  # the unbounded run is exponential
        assert_search_unchanged_without(shortcut, universal, deps)
    except (ChaseNonTermination, BackchaseError):
        assume(False)


@settings(**GENERATED)
@given(query=pc_queries(), deps=constraint_sets(min_groups=1, max_groups=4))
def test_generated_searches_are_unchanged_by_subsumption(query, deps):
    assert_generated_search_unchanged_without("subsumed", query, deps)


@settings(**GENERATED)
@given(query=pc_queries(), deps=constraint_sets(min_groups=1, max_groups=4))
def test_generated_searches_are_unchanged_by_refutation(query, deps):
    assert_generated_search_unchanged_without("refuted_by_identity", query, deps)
