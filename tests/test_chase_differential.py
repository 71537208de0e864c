"""Differential harness for the chase: ``src/`` against the naive oracle.

``repro.chase.chase`` runs one chase as one live state — the closure is
extended, satisfied triggers are remembered, dependencies a step cannot
have affected are not rescanned, premises are matched through a class
index, lookup-safety verdicts are memoized and inferred from the scopes
already chased.  None of that may change *what* is computed: on every
query this suite can reach, the chased query text, the step sequence and
the ``ChaseNonTermination`` bound must equal those of
:func:`chase_oracle.naive_chase`, which does none of it (for a state a goal
stopped short of its fixpoint, those of its prefix), and every
lookup-safety verdict served must be the one decided from scratch.
The suite is also what the ``make determinism`` target runs under three
hash seeds, and the harness the next chase refactoring is held to.
"""

from __future__ import annotations

import pytest

from chase_oracle import (
    linear_match_bindings,
    naive_chase,
    naive_prefix,
    naive_satisfied,
)
from repro.api.context import OptimizeContext
from repro.api.workloads import WORKLOAD_NAMES, build_workload
from repro.backchase import backchase
from repro.chase.chase import DEFAULT_MAX_STEPS, ChaseEngine, ChaseState, chase
from repro.chase.congruence import build_congruence
from repro.chase.homomorphism import match_bindings
from repro.errors import ChaseNonTermination
from repro.optimizer.optimizer import Optimizer
from repro.physical.indexes import SecondaryIndex
from repro.query.parser import parse_constraint, parse_query
from repro.query.paths import Attr, Lookup, SName, Var


def chase_mismatch(query, deps, max_steps=DEFAULT_MAX_STEPS):
    """``None`` when ``chase`` and the oracle agree, else what differed."""

    try:
        want_query, want_steps = naive_chase(query, deps, max_steps)
    except ChaseNonTermination as want:
        try:
            chase(query, deps, max_steps)
        except ChaseNonTermination as got:
            return None if got.steps == want.steps else (want.steps, got.steps)
        return "oracle did not terminate, chase() did"
    try:
        got = chase(query, deps, max_steps)
    except ChaseNonTermination:
        return "chase() did not terminate, the oracle did"
    if str(got.query) != str(want_query):
        return (str(want_query), str(got.query))
    if got.steps != want_steps:
        return (want_steps, got.steps)
    return None


def served_and_how(ask, lookup, prefix, conditions, engine, *scope):
    """``ask``'s verdict, and which of memo / guard / inferred / chased the
    engine counted it under."""

    before = dict(engine.lookup_decisions)
    served = ask(lookup, prefix, conditions, engine, *scope)
    (how,) = (k for k, n in engine.lookup_decisions.items() if n != before[k])
    return served, how


@pytest.fixture(scope="module")
def workloads():
    return {name: build_workload(name) for name in WORKLOAD_NAMES}


def run_mismatch(start, deps, state, steps, max_steps):
    """``None`` when ``state``, begun at ``start``, applied exactly the
    oracle's first ``len(steps)`` steps (``steps``) and stands where the
    oracle's chase stands after them — at its fixpoint if ``state`` is —
    else what differed."""

    if state.done:
        want = naive_chase(start, deps, max_steps)
    else:
        want = naive_prefix(start, deps, len(steps))
        if want is None:
            return "stopped past the oracle's fixpoint"
    want_query, want_steps = want
    if str(want_query) != str(state.query):
        return (str(want_query), str(state.query))
    if want_steps != steps or state.steps != len(steps):
        return (want_steps, steps)
    return None


@pytest.fixture(scope="module")
def searches(workloads):
    """One pruned optimize per workload with two observers installed: every
    chase state run — to its fixpoint, or stopped where a goal held — is
    held, query text and every step it applied, to the oracle's chase of
    the query it began at, and every lookup-safety verdict served — by the
    memo, the guard, inference or a chase — is decided again from scratch.
    Private runs, not conftest's shared optimizations: the observers have
    to be inside the search while it runs."""

    observed = {}
    for name, wl in workloads.items():
        chased, chase_diffs, verdicts, verdict_diffs = set(), [], [], []
        real_run = ChaseState.run
        real_safe = backchase._failing_lookup_safe
        runs = {}  # state -> (the query it began at, every step it applied)

        def checked_run(state, max_steps, goal=None):
            if state not in runs and state.steps:
                chase_diffs.append((str(state.query), "stepped outside run"))
            start, steps = runs.setdefault(state, (state.query, []))
            try:
                taken = real_run(state, max_steps, goal)
            except ChaseNonTermination:
                if chase_mismatch(start, state.deps, max_steps):
                    chase_diffs.append((str(start), "non-termination"))
                raise
            steps += taken
            point = (str(start), len(steps), state.done)
            if point not in chased:
                chased.add(point)
                diff = run_mismatch(start, state.deps, state, steps, max_steps)
                if diff is not None:
                    chase_diffs.append((str(start), diff))
            return taken

        def checked_safe(lookup, prefix, conditions, engine, *scope):
            served, how = served_and_how(
                real_safe, lookup, prefix, conditions, engine, *scope
            )
            decided = all(
                backchase._decide_lookup_safe(lookup, prefix, conditions, engine)
            )
            verdicts.append((how, served))
            if served != decided:
                verdict_diffs.append((how, str(lookup), prefix, conditions))
            return served

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChaseState, "run", checked_run)
            patch.setattr(backchase, "_failing_lookup_safe", checked_safe)
            Optimizer(
                OptimizeContext(
                    constraints=wl.constraints,
                    physical_names=wl.physical_names,
                    statistics=wl.statistics,
                )
            ).optimize(wl.query)
        observed[name] = (chased, chase_diffs, verdicts, verdict_diffs)
    return observed


class TestAgainstTheNaiveChase:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_queries(self, workloads, name):
        wl = workloads[name]
        assert chase_mismatch(wl.query, wl.constraints) is None

    @pytest.mark.parametrize("name", ("projdept", "rs"))
    def test_every_chase_of_a_search(self, searches, name):
        """The universal plan, prefix premises of the lookup-safety check
        and the candidates of condition (3): the chases a search actually
        pays for, stopped at their goal or finished, each point a state
        reached — its text and its whole step sequence the oracle's."""

        chased, diffs, _, _ = searches[name]
        assert len(chased) > 50, "the search chased almost nothing"
        assert any(not done for _, _, done in chased), "no chase stopped early"
        assert diffs == []

    def test_nontermination_at_the_same_bound(self):
        query = parse_query("select struct(A = r.A) from R r")
        loop = parse_constraint(
            "forall (x in R) -> exists (y in R) y.Parent = x", "loop"
        )
        for bound in (0, 1, 7):
            assert chase_mismatch(query, [loop], bound) is None
            with pytest.raises(ChaseNonTermination) as raised:
                chase(query, [loop], max_steps=bound)
            assert raised.value.steps == bound


def satisfied_triggers_stay_satisfied(query, deps, max_steps=40):
    """Drive one chase; after every step re-prove, on a closure built from
    scratch, every trigger the state has recorded as satisfied."""

    state = ChaseState(query, list(deps))
    for _ in range(max_steps):
        if state.step() is None:
            break
        fresh = build_congruence(state.query)
        for dep, images in zip(state.deps, state.satisfied):
            for image in images:
                hom = dict(zip((b.var for b in dep.premise_bindings), image))
                assert naive_satisfied(dep, hom, state.query, fresh), (dep.name, hom)
    return state


def assert_index_is_the_linear_scan(bindings, conditions, target, cc):
    assert list(match_bindings(bindings, conditions, target, cc)) == list(
        linear_match_bindings(bindings, conditions, target, cc)
    )


class TestThePieces:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_satisfied_triggers_stay_satisfied(self, workloads, name):
        wl = workloads[name]
        state = satisfied_triggers_stay_satisfied(wl.query, wl.constraints)
        assert any(state.satisfied), "no trigger was ever remembered"

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_class_index_is_the_linear_scan(self, workloads, name):
        """Same homomorphisms, same order — premises into the universal
        plan, and the query's own body into it (the containment shape)."""

        wl = workloads[name]
        result = chase(wl.query, wl.constraints)
        universal = result.query
        for dep in wl.constraints:
            assert_index_is_the_linear_scan(
                dep.premise_bindings, dep.premise_conditions, universal,
                result.congruence,
            )
        assert_index_is_the_linear_scan(
            wl.query.bindings, wl.query.conditions, universal,
            build_congruence(universal),
        )

    def test_class_index_survives_a_union(self):
        """A merge that moves an indexed class under another root must
        refresh the index before the next match."""

        target = parse_query(
            "select struct(A = r.A) from R r, M[r.A] s, M[r.B] t"
        )
        premise = parse_query("select struct(A = x.A) from R x, M[x.B] y")
        cc = build_congruence(target)
        before = list(match_bindings(premise.bindings, (), target, cc))
        assert [str(h["y"]) for h in before] == ["t"]
        cc.merge(Attr(Var("r"), "A"), Attr(Var("r"), "B"))  # so M[r.A] = M[r.B]
        after = list(match_bindings(premise.bindings, (), target, cc))
        assert [str(h["y"]) for h in after] == ["s", "t"]
        assert_index_is_the_linear_scan(premise.bindings, (), target, cc)

    def test_lookup_safety_is_decided_on_occurring_terms(self):
        """Pinned semantics: the key must occur in the chased prefix.  The
        chase's closure knows ``r2.B`` (premise matching asked about it)
        and knows it equal to the dom-bound key — an auxiliary term must
        not turn the verdict."""

        engine = ChaseEngine(SecondaryIndex("IXB", "R", "B").constraints())
        prefix = parse_query("select struct(A = r.A) from R r, R r2 where r = r2")
        verdicts = {
            var: backchase._failing_lookup_safe(
                Lookup(SName("IXB"), Attr(Var(var), "B")),
                prefix.bindings, prefix.conditions, engine,
            )
            for var in ("r", "r2")
        }
        assert verdicts == {"r": True, "r2": False}
        chased, cc = engine.chase_with_cc(
            parse_query("select r2 from R r, R r2 where r = r2")
        )
        assert engine.cache_hits and Attr(Var("_v1"), "B") in cc
        assert Attr(Var("_v1"), "B") not in set(chased.all_terms())

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_lookup_safety_serves_the_from_scratch_verdict(self, searches, name):
        """Memo, guard, inference and chase alike: whatever served a
        verdict, ``_decide_lookup_safe`` reaches the same one."""

        _, _, verdicts, diffs = searches[name]
        assert diffs == []
        if name == "projdept":
            # Every unsafe scope is one whose part linked to the key has no
            # binding (``SI["CitiBank"]`` where "CitiBank" is not in scope):
            # the guard decides it.  TestTheKeysPart covers the chased and
            # inferred *False*.
            assert {("memo", True), ("memo", False), ("guard", True),
                    ("guard", False), ("inferred", True),
                    ("chased", True)} <= set(verdicts)


def served_and_decided(engine, lookup, scope_text):
    """One lookup-safety question asked of ``engine`` and, memo-free, of a
    fresh one: ``(served, from scratch, how it was served)``."""

    scope = parse_query(scope_text)
    served, how = served_and_how(
        backchase._failing_lookup_safe, lookup, scope.bindings, scope.conditions,
        engine,
    )
    decided = all(backchase._decide_lookup_safe(
        lookup, scope.bindings, scope.conditions, ChaseEngine(engine.deps)
    ))
    return served, decided, how


class TestLookupSafetyInference:
    """What inference must *not* conclude.  Over the index ``IXB`` on
    ``R.B``, ``IXB[r.B]`` is safe under ``R r``: the ``IXB_si1`` step
    writes ``k = r.B``.  In ``BIG`` the trigger is satisfied through the
    alias ``r2`` instead, the step never fires and ``r.B`` never occurs."""

    LOOKUP = Lookup(SName("IXB"), Attr(Var("r"), "B"))
    SMALL = "select r from R r"
    BIG = (
        "select r from R r, R r2, dom(IXB) k, IXB[k] t "
        "where r = r2 and k = r2.B and t = r2"
    )

    @pytest.fixture
    def engine(self):
        return ChaseEngine(SecondaryIndex("IXB", "R", "B").constraints())

    def test_a_key_only_the_chase_wrote_is_not_inherited(self, engine):
        """``BIG`` contains the support ``R r``; the unrestricted subset
        rule would answer *True*."""

        assert served_and_decided(engine, self.LOOKUP, self.SMALL) == (
            True, True, "chased")
        assert served_and_decided(engine, self.LOOKUP, self.BIG) == (
            False, False, "chased")

    def test_an_occurrence_only_false_is_not_a_refutation(self, engine):
        """``BIG`` is witnessed (``k = r2.B = r.B``) and unsafe only because
        ``r.B`` does not occur: its subsets are not thereby unsafe."""

        assert served_and_decided(engine, self.LOOKUP, self.BIG) == (
            False, False, "chased")
        assert served_and_decided(engine, self.LOOKUP, self.SMALL) == (
            True, True, "chased")

    def test_what_is_proved_is_inferred_in_both_directions(self, engine):
        wider = "select s from R r, S s where r.B = s.B"
        unrelated = "select r from S r, S s2 where r.B = s2.B"
        assert served_and_decided(engine, self.LOOKUP, self.SMALL)[2] == "chased"
        assert served_and_decided(engine, self.LOOKUP, wider) == (
            True, True, "inferred")
        assert served_and_decided(engine, self.LOOKUP, unrelated) == (
            False, False, "chased")
        assert served_and_decided(engine, self.LOOKUP, "select r from S r") == (
            False, False, "inferred")

    def test_a_scope_apart_from_the_key_is_the_guards(self, engine):
        """No binding of ``r`` in scope: the key's part is empty, and the
        guard's *False* is stored under it for the next such scope."""

        assert served_and_decided(engine, self.LOOKUP, "select s from S s, S s2") == (
            False, False, "guard")
        assert served_and_decided(engine, self.LOOKUP, "select s from S s") == (
            False, False, "memo")

    def test_a_dom_term_equated_as_a_whole_switches_inference_off(self, engine):
        """With ``r.S = dom(IXB)`` in force the trigger is satisfied by the
        binding ``r.S k``, which is no ``dom(...)`` binding: the pinned
        verdict is *False* although the scope contains the support."""

        aliased = (
            "select r from R r, r.S k, IXB[k] t "
            "where r.S = dom(IXB) and k = r.B and t = r"
        )
        assert served_and_decided(engine, self.LOOKUP, self.SMALL)[0] is True
        assert served_and_decided(engine, self.LOOKUP, aliased) == (
            False, False, "chased")
        wider = "select s from R r, S s where r.B = s.B"
        assert served_and_decided(engine, self.LOOKUP, wider) == (
            True, True, "inferred")


def stored_scopes(engine, lookup):
    """The scopes ``engine`` remembers a verdict on ``lookup`` under, as
    sorted (bindings, conditions) counts: a question whose scope was
    reduced stores its part too."""

    return sorted(
        (len(p), len(c)) for (key, p, c) in engine.lookup_safety if key is lookup
    )


class TestTheKeysPart:
    """Lookup safety is decided on the part of the scope linked to the
    key's and the dictionary's variables and constants only when the
    dependencies are separable (``ChaseEngine.separable``: each connected,
    none with a constant or a condition side without a variable), and only
    on a scope where every condition side has a variable or constant.  Each
    trap holds a scope whose key part alone decides otherwise than the
    whole scope: the served verdict must be the from-scratch one, and the
    reduction must not have applied.  The traps also hold the chased and
    inferred *False* that ProjDept's search no longer reaches."""

    MXA = Lookup(SName("M"), Attr(Var("x"), "A"))
    DOM_SB = "forall (y in S) -> exists (k in dom(M)) k = y.B"

    @staticmethod
    def engine(*texts):
        return ChaseEngine([parse_constraint(t, f"d{i}") for i, t in enumerate(texts)])

    def test_an_unlinked_binding_is_left_out(self):
        """The control: under a separable set ``S y`` is no part of the
        question, which is decided on ``R x`` and remembered there."""

        engine = self.engine("forall (x in R) -> exists (k in dom(M)) k = x.A")
        assert served_and_decided(engine, self.MXA, "select x from R x, S y") == (
            True, True, "chased")
        assert served_and_decided(
            engine, self.MXA, "select x from R x, S y, S y2") == (True, True, "memo")
        assert engine.separable
        assert stored_scopes(engine, self.MXA) == [(1, 0), (2, 0), (3, 0)]

    def test_a_cartesian_premise_keeps_the_whole_scope(self):
        """(a) The premise matches ``x`` and ``y`` though they share
        nothing: ``R x`` alone is not witnessed, the whole scope is."""

        engine = self.engine("forall (x in R, y in S) -> exists (k in dom(M)) k = x.A")
        assert served_and_decided(engine, self.MXA, "select x from R x, x.T z") == (
            False, False, "chased")
        assert served_and_decided(engine, self.MXA, "select x from R x") == (
            False, False, "inferred")
        assert served_and_decided(engine, self.MXA, "select x from R x, S y") == (
            True, True, "chased")
        assert not engine.separable
        assert stored_scopes(engine, self.MXA) == [(1, 0), (2, 0), (2, 0)]

    def test_a_shared_constant_links(self):
        """(b) ``x`` and ``y`` meet only in the constant 5, and the dom
        witness of ``y.B`` is one of ``x.A`` through it.  With 6 they are
        apart, and ``R x`` with ``x.A = 5`` is decided alone."""

        engine = self.engine(self.DOM_SB)
        linked = "select x from R x, S y where x.A = 5 and y.B = 5"
        apart = "select x from R x, S y where x.A = 5 and y.B = 6"
        assert served_and_decided(engine, self.MXA, linked) == (True, True, "chased")
        assert served_and_decided(engine, self.MXA, apart) == (False, False, "chased")
        assert served_and_decided(engine, self.MXA, "select x from R x") == (
            False, False, "inferred")
        assert engine.separable
        assert stored_scopes(engine, self.MXA) == [(1, 0), (1, 1), (2, 2), (2, 2)]

    def test_a_dependency_constant_keeps_the_whole_scope(self):
        """(c) The EGD writes ``x.A = 5`` mid-chase and so joins ``R x`` to
        ``y``, whose ``y.B = 5`` has a dom witness: ``R x`` alone has none."""

        engine = self.engine(self.DOM_SB, "forall (x in R) -> x.A = 5")
        scope = "select x from R x, S y where y.B = 5"
        assert served_and_decided(engine, self.MXA, scope) == (True, True, "chased")
        assert not engine.separable
        assert stored_scopes(engine, self.MXA) == [(2, 1)]

    def test_a_schema_term_equated_as_a_whole_keeps_the_whole_scope(self):
        """(d) ``p.Q = G`` makes ``G q`` a binding over ``p.Q``, so the
        premise matches ``p`` and ``q`` though they share no variable."""

        engine = self.engine(
            "forall (p in P, q in p.Q) -> exists (k in dom(M)) k = p.A")
        lookup = Lookup(SName("M"), Attr(Var("p"), "A"))
        scope = "select p from P p, G q where p.Q = G"
        assert served_and_decided(engine, lookup, scope) == (True, True, "chased")
        assert engine.separable
        assert stored_scopes(engine, lookup) == [(2, 1)]


class TestTheNameSupply:
    """Fresh names and dropped duplicate conditions, in a live state run
    straight through or stopped and resumed, are the oracle's (which reads
    both off the query every step) and the rule's: the query already uses
    ``_x1`` and ``_x3`` (a supply must skip them, not just count), and
    ``again`` concludes an equality the query states."""

    QUERY = "select struct(A = _x1.A) from R _x1, S _x3 where _x1.B = _x3.B"
    DEPS = [
        parse_constraint(text, name)
        for name, text in (
            ("to_t", "forall (r in R) -> exists (t in T) t.A = r.A"),
            ("again", "forall (r in R, s in S) where r.B = s.B "
                      "-> exists (u in U) u.B = s.B and r.B = s.B"),
            ("to_w", "forall (t in T) -> exists (w in W) w.A = t.A"),
        )
    ]

    def assert_the_oracle_s(self, state, steps):
        want_query, want_steps = naive_chase(parse_query(self.QUERY), self.DEPS)
        assert steps == want_steps
        assert state.query.conditions == want_query.conditions
        assert str(state.query) == str(want_query)
        fresh = [b.var for step in steps for b in step.added_bindings]
        assert fresh == ["_x0", "_x2", "_x4"]
        assert [str(c) for c in state.query.conditions].count("_x1.B = _x3.B") == 1

    def test_straight_through(self):
        state = ChaseState(parse_query(self.QUERY), self.DEPS)
        self.assert_the_oracle_s(state, state.run(DEFAULT_MAX_STEPS))

    @pytest.mark.parametrize("stop", (0, 1, 2))
    def test_stopped_and_resumed(self, stop):
        state = ChaseState(parse_query(self.QUERY), self.DEPS)
        # each step adds one binding to the query's two
        first = state.run(DEFAULT_MAX_STEPS, lambda q, cc: len(q.bindings) == 2 + stop)
        assert len(first) == stop and not state.done
        steps = first + state.run(DEFAULT_MAX_STEPS)
        self.assert_the_oracle_s(state, steps)


def unaffected_means_inapplicable(query, deps, max_steps=40):
    """Drive one chase; after every step rescan, naively and on a closure
    built from scratch, every dependency the state passes over as clean:
    each of its premise homomorphisms must have its conclusion satisfied.
    Returns how many scans the state was spared."""

    state = ChaseState(query, list(deps))
    spared = 0
    for _ in range(max_steps):
        spared += sum(state.clean)
        step = state.step()
        fresh = build_congruence(state.query)
        for dep, clean in zip(state.deps, state.clean):
            if clean:
                for hom in linear_match_bindings(
                    dep.premise_bindings, dep.premise_conditions, state.query, fresh
                ):
                    assert naive_satisfied(dep, hom, state.query, fresh), (
                        dep.name, hom, str(state.query),
                    )
        if step is None:
            break
    return spared


#: dependencies written to defeat a careless affected-set rule: premises
#: that only an equality between *old* terms can enable, conclusions that
#: produce such equalities directly, through a fresh term, or by equating
#: a fresh variable to an old one
TRAPS = {
    name: parse_constraint(text, name)
    for name, text in (
        ("needs_ab", "forall (u in R) where u.A = u.B -> exists (t in T) t.A = u.C"),
        ("needs_bc", "forall (u in R) where u.B = u.C -> exists (s in S) s.B = u.A"),
        ("needs_t5_bc",
         "forall (v in T, u in R) where v.A = 5 and u.B = u.C "
         "-> exists (s in S) s.B = u.A"),
        ("needs_t5_ab",
         "forall (v in T, u in R) where v.A = 5 and u.A = u.B "
         "-> exists (s in S) s.B = u.C"),
        ("egd_ab", "forall (x in R) where x.C = 1 -> x.A = x.B"),
        ("egd_key", "forall (x in R, y in R) where x.A = y.A -> x = y"),
        ("through_fresh", "forall (x in R) -> exists (y in S) y.B = x.B and y.B = x.C"),
        ("fresh_is_old", "forall (r in R) -> exists (t in S) t.A = r.B and t = r"),
        ("copy_r", "forall (s in S) -> exists (r in R) r.B = s.B and r.C = s.C"),
    )
}


class TestAffectedOnlyFiring:
    def test_egd_equating_old_terms_refires_an_earlier_clean_dependency(self):
        query = parse_query("select struct(A = r.A) from R r where r.C = 1")
        deps = [TRAPS["needs_ab"], TRAPS["egd_ab"]]
        state = ChaseState(query, deps)
        assert state.step().constraint == "egd_ab"  # needs_ab scanned clean,
        assert state.clean == [False, False]  # then dirtied by r.A = r.B
        assert state.step().constraint == "needs_ab"
        assert chase_mismatch(query, deps) is None

    def test_old_equality_reached_through_a_fresh_term(self):
        """``y.B = x.B and y.B = x.C``: neither ``r.B`` nor ``r.C`` is in
        the closure when the step arrives (``needs_t5_bc`` fails on
        ``v.A = 5`` before it ever asks), and no condition equates them
        directly — yet ``r.B = r.C`` now holds."""

        query = parse_query("select struct(A = r.A) from T t, R r")
        deps = [TRAPS["needs_t5_bc"], TRAPS["through_fresh"]]
        state = ChaseState(query, deps)
        assert state.step().constraint == "through_fresh"
        assert state.clean == [False, False]
        unaffected_means_inapplicable(query, deps)
        enabled = parse_query("select struct(A = r.A) from T t, R r where t.A = 5")
        assert [s.constraint for s in chase(enabled, deps).steps] == [
            "through_fresh", "needs_t5_bc",
        ]
        assert chase_mismatch(enabled, deps) is None

    def test_fresh_variable_equated_to_an_old_one(self):
        """``t.A = r.B and t = r``: every union has a side without a term
        over the old variables (``r.A`` is not even in the closure), and
        still ``r.A = r.B`` follows."""

        query = parse_query("select struct(C = r.C) from T t, R r")
        deps = [TRAPS["needs_t5_ab"], TRAPS["fresh_is_old"]]
        state = ChaseState(query, deps)
        assert state.step().constraint == "fresh_is_old"
        assert state.clean == [False, False]
        enabled = parse_query("select struct(C = r.C) from T t, R r where t.A = 5")
        assert [s.constraint for s in chase(enabled, deps).steps][:2] == [
            "fresh_is_old", "needs_t5_ab",
        ]
        for q in (query, enabled):
            unaffected_means_inapplicable(q, deps)
            assert chase_mismatch(q, deps) is None

    def test_an_unrelated_step_leaves_a_clean_dependency_clean(self):
        query = parse_query("select struct(A = r.A) from T t, R r")
        deps = [TRAPS["needs_t5_bc"], parse_constraint(
            "forall (r in R) -> exists (k in dom(IX), e in IX[k]) k = r.A and e = r",
            "index",
        )]
        state = ChaseState(query, deps)
        assert state.step().constraint == "index"
        assert state.clean == [True, False]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_chases_skip_only_inapplicable_dependencies(self, workloads, name):
        wl = workloads[name]
        spared = unaffected_means_inapplicable(wl.query, wl.constraints)
        assert spared, "no scan was ever spared"


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from conftest import constraint_sets, pc_queries  # noqa: E402

RELAXED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# Two to five constraint groups: with fewer, most generated chases take no
# step at all.
BUSY = dict(min_groups=2, max_groups=5)


@settings(max_examples=150, **RELAXED)
@given(
    query=pc_queries(),
    deps=constraint_sets(**BUSY),
    max_steps=st.sampled_from((0, 1, 2, 3, 5, 8, 40)),
)
def test_generated_chases_equal_the_oracle(query, deps, max_steps):
    assert chase_mismatch(query, deps, max_steps) is None


@settings(max_examples=60, **RELAXED)
@given(query=pc_queries(), deps=constraint_sets(**BUSY))
def test_generated_satisfied_triggers_stay_satisfied(query, deps):
    satisfied_triggers_stay_satisfied(query, deps)


@settings(max_examples=100, **RELAXED)
@given(target=pc_queries(max_bindings=4), source=pc_queries())
def test_generated_matches_equal_the_linear_scan(target, source):
    cc = build_congruence(target)
    assert_index_is_the_linear_scan(source.bindings, source.conditions, target, cc)
    # once more on the closure as the first match left it (auxiliary terms
    # added, index built)
    assert_index_is_the_linear_scan(source.bindings, source.conditions, target, cc)


@st.composite
def trapped_constraint_sets(draw):
    """Pool groups and traps, shuffled: what a step enables may come
    earlier in the order than the step's own dependency."""

    deps = draw(constraint_sets(min_groups=0, max_groups=3))
    deps += draw(st.lists(st.sampled_from(sorted(TRAPS)), max_size=4, unique=True).map(
        lambda names: [TRAPS[n] for n in names]
    ))
    return draw(st.permutations(deps))


@settings(max_examples=150, **RELAXED)
@given(
    query=pc_queries(),
    deps=trapped_constraint_sets(),
    max_steps=st.sampled_from((3, 8, 40)),
)
def test_generated_trapped_chases_equal_the_oracle(query, deps, max_steps):
    assert chase_mismatch(query, deps, max_steps) is None


@settings(max_examples=150, **RELAXED)
@given(query=pc_queries(), deps=st.one_of(constraint_sets(**BUSY), trapped_constraint_sets()))
def test_generated_unaffected_dependencies_are_inapplicable(query, deps):
    unaffected_means_inapplicable(query, deps, max_steps=12)
