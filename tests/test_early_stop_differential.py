"""Differential harness for goal-directed chasing: a chase stopped at its
question against the chase run to the fixpoint.

``ChaseEngine.chase(query, goal)`` advances the query's live state only
until the goal holds, and a decision answers *True* from the stopped
state; a *False* still needs the fixpoint.  That is exact only if the goals
are sound and asking them leaves the chase alone.  On every workload search
(both strategies) and on generated queries × constraint sets:

* every *True* reached before the fixpoint — a containment verdict or a
  lookup-safety verdict — is re-decided *True* by an engine that ignores
  goals and always chases to the fixpoint;
* every state left short of its fixpoint is a step prefix of the naive
  oracle's chase of the same query (``tests/chase_oracle.py``);
* a chase stopped, resumed and finished is the chase run straight
  through: same query, same steps, same closure classes.

Runs under three hash seeds in ``make determinism``.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
from typing import Dict, List

import pytest

from chase_oracle import naive_prefix
from repro.api.context import OptimizeContext
from repro.api.workloads import WORKLOAD_NAMES, build_workload
from repro.backchase import backchase
from repro.backchase.backchase import minimal_subqueries
from repro.chase import containment
from repro.chase.chase import ChaseEngine, ChaseState, chase
from repro.chase.homomorphism import output_matches
from repro.errors import BackchaseError, ChaseNonTermination
from repro.optimizer.optimizer import Optimizer
from repro.query import paths as P
from repro.query.ast import PCQuery
from repro.query.parser import parse_constraint, parse_query
from repro.query.paths import Var

STRATEGIES = ("pruned", "full")


class FixpointOnly(ChaseEngine):
    """The oracle engine: every chase runs to the fixpoint, goal or not."""

    def chase(self, query, goal=None):
        return super().chase(query)


class Observed:
    def __init__(self) -> None:
        self.early = {"containment": 0, "lookup": 0}
        self.unsound: List[str] = []  # stopped at True, the fixpoint says False
        #: canonical text -> canonical query, of every state chased
        self.queries: Dict[str, PCQuery] = {}
        self.engines: List[ChaseEngine] = []


@contextlib.contextmanager
def observed_decisions(deps, seen: Observed):
    """While the block runs, every early verdict of an engine is decided
    again on a :class:`FixpointOnly`, and the engines are kept in ``seen``."""

    oracle = FixpointOnly(deps)
    real_chase = ChaseEngine.chase
    real_contained = containment.is_contained_in
    real_lookup = backchase._decide_lookup_safe
    stopped: List[bool] = []  # per observed chase call: did a goal stop it?

    def observed_chase(self, query, goal=None):
        state = real_chase(self, query, goal)
        if type(self) is ChaseEngine:
            if self not in seen.engines:
                seen.engines.append(self)
            seen.queries.setdefault(query.canonical_key(), query.canonical())
            stopped.append(not state.done)
        return state

    def decide_containment(q1, q2, deps=(), engine=None, *rest):
        calls = len(stopped)
        verdict = real_contained(q1, q2, deps, engine, *rest)
        if len(stopped) > calls and stopped[-1]:
            seen.early["containment"] += 1
            if not real_contained(q1, q2, deps, oracle):
                seen.unsound.append(f"{q1} ⊑ {q2}")
        return verdict

    def decide_lookup(lookup, prefix, conditions, engine):
        calls = len(stopped)
        facts = real_lookup(lookup, prefix, conditions, engine)
        if len(stopped) > calls and stopped[-1]:
            seen.early["lookup"] += 1
            if facts != (True, True) or not all(
                real_lookup(lookup, prefix, conditions, oracle)
            ):
                seen.unsound.append(f"{lookup} under {prefix} {conditions}")
        return facts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChaseEngine, "chase", observed_chase)
        patch.setattr(containment, "is_contained_in", decide_containment)
        patch.setattr(backchase, "_decide_lookup_safe", decide_lookup)
        yield


def observe(wl, strategy) -> Observed:
    seen = Observed()
    with observed_decisions(wl.constraints, seen):
        Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                strategy=strategy,
            )
        ).optimize(wl.query)
    return seen


@pytest.fixture(scope="module")
def searches():
    # Private runs: the observers have to be inside the search.
    return {
        (name, strategy): observe(build_workload(name), strategy)
        for name in WORKLOAD_NAMES
        for strategy in STRATEGIES
    }


def stopped_states(seen: Observed):
    """``(canonical query, deps, state)`` for every state a goal left short
    of its fixpoint, once each."""

    return [
        (seen.queries[key], engine.deps, state)
        for engine in seen.engines
        for key, state in engine.states.items()
        if not state.done
    ]


def copied(state: ChaseState) -> ChaseState:
    """An independent state at the same point (the search's own stays as
    the search left it for the next test)."""

    twin = copy.copy(state)
    twin.cc = state.cc.copy()
    twin.satisfied = [set(images) for images in state.satisfied]
    twin.clean = list(state.clean)
    return twin


def partition(cc, terms) -> set:
    """The closure's classes, each cut down to ``terms``."""

    return {
        cut
        for members in cc.classes()
        for cut in [frozenset(m for m in members if m in terms)]
        if cut
    }


def resumed_is_straight(query, deps, state, max_steps: int = 200) -> List[str]:
    """Finish ``state`` and compare it with ``query`` chased straight
    through: what differed (empty when nothing did)."""

    before = state.steps
    try:
        straight = chase(query, deps, max_steps)
    except ChaseNonTermination:
        with pytest.raises(ChaseNonTermination):
            state.run(max_steps)
        return []
    rest = state.run(max_steps)
    diffs = []
    if str(state.query) != str(straight.query):
        diffs.append(f"query: {state.query} != {straight.query}")
    if state.steps != len(straight.steps) or rest != straight.steps[before:]:
        diffs.append(f"steps of {query}")
    common = set(state.cc.all_terms()) & set(straight.congruence.all_terms())
    if (
        partition(state.cc, common) != partition(straight.congruence, common)
        or state.cc.inconsistent != straight.congruence.inconsistent
    ):
        diffs.append(f"closure of {query}")
    return diffs


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestTheWorkloadSearches:
    def test_every_early_true_is_the_fixpoint_true(self, searches, name, strategy):
        seen = searches[name, strategy]
        assert seen.unsound == []
        assert seen.early["containment"] + seen.early["lookup"], "nothing stopped early"
        if name == "projdept":
            # 82 / 90 lookup chases stopped early before each was reduced to
            # the part of its scope linked to the key: fewer are chased now
            assert seen.early["containment"] > 20
            assert seen.early["lookup"] == {"pruned": 28, "full": 35}[strategy]

    def test_every_stopped_state_is_a_prefix_of_the_oracle(
        self, searches, name, strategy
    ):
        states = stopped_states(searches[name, strategy])
        assert states
        for query, deps, state in states:
            prefix = naive_prefix(query, deps, state.steps)
            assert prefix is not None and str(prefix[0]) == str(state.query), str(query)

    def test_a_stopped_state_resumes_into_the_straight_chase(
        self, searches, name, strategy
    ):
        for query, deps, state in stopped_states(searches[name, strategy]):
            assert resumed_is_straight(query, deps, copied(state)) == []

    def test_the_stops_saved_steps(self, searches, name, strategy):
        """What ``chase.steps`` leaves out: finishing every stopped state
        takes steps the search never paid for."""

        saved = 0
        for _, _, state in stopped_states(searches[name, strategy]):
            twin = copied(state)
            twin.run(200)
            saved += twin.steps - state.steps
        # ProjDept: 354 / 459 before lookup safety chased only the part of
        # each scope linked to the key (fewer states, fewer left short)
        if name == "projdept":
            assert saved == {"pruned": 175, "full": 292}[strategy]
        assert saved > 0


def stop_after(n: int):
    """A goal that holds once the chase has taken ``n`` steps."""

    seen = []

    def goal(query, cc):
        seen.append(None)
        return len(seen) > n

    return goal


def assert_interrupted_is_uninterrupted(query, deps, max_steps=40):
    """Stop after every possible step count, resume, and compare with the
    straight run — steps before the stop included."""

    try:
        straight = chase(query, deps, max_steps)
    except ChaseNonTermination:
        return
    for n in range(len(straight.steps) + 1):
        state = ChaseState(query, list(deps))
        first = state.run(max_steps, stop_after(n))
        assert state.steps == n and not state.done
        assert resumed_is_straight(query, deps, state, max_steps) == []
        assert first + straight.steps[n:] == straight.steps


class TestResumption:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_queries(self, name):
        wl = build_workload(name)
        assert_interrupted_is_uninterrupted(wl.query, wl.constraints)

    def test_the_step_bound_counts_every_call(self):
        """Stopping and resuming spends one budget: the bound raises at the
        same total step count as the straight run."""

        query = parse_query("select struct(A = r.A) from R r")
        loop = parse_constraint(
            "forall (x in R) -> exists (y in R) y.Parent = x", "loop"
        )
        state = ChaseState(query, [loop])
        assert len(state.run(7, stop_after(4))) == 4
        with pytest.raises(ChaseNonTermination) as raised:
            state.run(7)
        assert raised.value.steps == 7 and state.steps == 7

    def test_a_goal_free_chase_of_a_stopped_state_is_the_fixpoint(self):
        wl = build_workload("rs")
        engine = ChaseEngine(wl.constraints)
        state = engine.chase(wl.query, stop_after(1))
        stopped = state.query
        assert not state.done and state.steps == 1
        straight = chase(wl.query.canonical(), wl.constraints)
        assert engine.chase(wl.query) is state and engine.cache_misses == 1
        assert state.done and str(state.query) == str(straight.query)
        assert len(stopped.bindings) < len(state.query.bindings)


class TestTheContainmentGoal:
    """The goal fixes the shared variables; the match must not move them."""

    def test_a_shared_variable_is_not_remapped(self):
        """Only sending ``q2``'s ``r`` to ``r2`` lets ``y`` match, and
        ``r.A = 1`` holds for ``r`` alone: a match free to move the shared
        ``r`` after checking ``r.A = 1`` against the identity answers
        *True*; the chase answers *False*."""

        q1 = parse_query(
            "select struct(C = s.C) from R r, R r2, S s where r.A = 1 and r2.B = s.B"
        )
        q2 = parse_query(
            "select struct(C = y.C) from R r, S y where r.A = 1 and r.B = y.B"
        )
        engine = ChaseEngine([])
        assert not containment.is_contained_in(q1, q2, engine=engine)
        assert engine.containment_decisions["fixpoint"] == 1
        assert not containment.is_contained_in(q1, q2, engine=FixpointOnly([]))

    def test_shared_variables_decide_before_any_step(self):
        narrow = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B and s.C = 1"
        )
        wide = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B")
        ric = parse_constraint("forall (r in R) -> exists (s in S) r.B = s.B", "ric")
        engine = ChaseEngine([ric])
        assert containment.is_contained_in(narrow, wide, engine=engine)
        assert engine.containment_decisions["early"] == 1
        state = engine.states[narrow.canonical_key()]
        assert state.steps == 0 and not state.done


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402

from conftest import constraint_sets, pc_queries  # noqa: E402

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@settings(max_examples=40, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets(min_groups=1, max_groups=4))
def test_generated_searches_stop_only_at_the_fixpoint_answer(query, deps):
    try:
        universal = chase(query, deps, max_steps=80).query
        assume(len(universal.bindings) <= 8)  # the unbounded run is exponential
        for strategy in STRATEGIES:
            seen = Observed()
            with observed_decisions(deps, seen):
                minimal_subqueries(universal, deps, strategy=strategy)
            assert seen.unsound == []
            for chased, chased_deps, state in stopped_states(seen):
                prefix = naive_prefix(chased, chased_deps, state.steps)
                assert prefix is not None and str(prefix[0]) == str(state.query)
                assert resumed_is_straight(chased, chased_deps, state) == []
    except (ChaseNonTermination, BackchaseError):
        assume(False)


@settings(max_examples=300, **RELAXED)
@given(
    q1=pc_queries(),
    q2=pc_queries(),
    deps=constraint_sets(min_groups=0, max_groups=4),
)
def test_generated_containment_is_the_fixpoint_verdict(q1, q2, deps):
    """Generated queries name their variables ``v0, v1, …``, so a pair
    shares some: the goal fixes them and must still answer what the
    fixpoint answers."""

    try:
        expected = containment.is_contained_in(q1, q2, engine=FixpointOnly(deps, 40))
    except ChaseNonTermination:
        assume(False)
    assert containment.is_contained_in(q1, q2, engine=ChaseEngine(deps, 40)) is expected


def fixed_mapping_exists(q1, q2, chased, cc) -> bool:
    """The containment goal by its definition, by brute force: an
    inconsistent closure, or some map of ``q2``'s variables onto binding
    variables of ``chased`` — each variable ``q1`` also binds sent to its
    canonical name — under which every binding source, every condition and
    the output hold."""

    if cc.inconsistent:
        return True
    position = {b.var: i for i, b in enumerate(q1.bindings)}
    free = [b.var for b in q2.bindings if b.var not in position]
    source = {b.var: b.source for b in chased.bindings}
    for images in itertools.product(source, repeat=len(free)):
        hom = {var: Var(f"_v{i}") for var, i in position.items()}
        hom.update((var, Var(image)) for var, image in zip(free, images))
        if (
            all(
                cc.equal(P.substitute(b.source, hom), source[hom[b.var].name])
                for b in q2.bindings
            )
            and all(
                cc.equal(P.substitute(c.left, hom), P.substitute(c.right, hom))
                for c in q2.conditions
            )
            and output_matches(q2.output, chased.output, hom, cc)
        ):
            return True
    return False


@settings(max_examples=300, **RELAXED)
@given(
    q1=pc_queries(),
    q2=pc_queries(),
    deps=constraint_sets(min_groups=0, max_groups=4),
)
def test_generated_goals_are_their_definition(q1, q2, deps):
    """Asked before every step of ``q1``'s chase, the containment goal
    answers what :func:`fixed_mapping_exists` answers."""

    goal = containment._shared_fixed(q1, q2)
    assume(goal is not None)
    differ = []

    def both(query, cc):
        if goal(query, cc) != fixed_mapping_exists(q1, q2, query, cc):
            differ.append(str(query))
        return False

    try:
        ChaseState(q1.canonical(), deps).run(12, both)
    except ChaseNonTermination:
        pass
    assert differ == []


@settings(max_examples=100, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets(min_groups=2, max_groups=5))
def test_generated_chases_resume_into_the_straight_chase(query, deps):
    assert_interrupted_is_uninterrupted(query, deps, max_steps=12)
