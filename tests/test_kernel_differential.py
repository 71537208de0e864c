"""Differential harness for the kernel every optimizer layer runs on: the
congruence closure and the containment-mapping matcher, against the plain
versions kept in ``tests/congruence_oracle.py``.

``repro.chase.congruence.CongruenceClosure`` and
``repro.chase.homomorphism.Pattern.match`` are written for speed — an
inlined root walk, parent sets made on demand, signatures computed in
place, an explicit stack of per-level iterators instead of a recursive
generator.  None of it may change what a caller sees:

* any sequence of ``add`` / ``merge`` / ``equal`` / ``copy`` /
  ``equivalent_avoiding`` / ``bindings_in_class`` calls gives the same
  answers, the same ``all_terms()`` order, the same root for every term,
  the same member sets (every class, iterated in the same order), the same
  ``inconsistent`` flag and the same ``on_union`` calls in the same order;
* every ``Pattern.match`` call the four workload optimizations make, under
  both strategies, yields the oracle's homomorphisms in the oracle's order;
* so do generated patterns matched into generated closures, and the two
  closures stand in the same state afterwards.

Runs under three hash seeds in ``make determinism``.
"""

from __future__ import annotations

from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

import congruence_oracle as oracle
from repro.api.context import OptimizeContext
from repro.api.workloads import WORKLOAD_NAMES, build_workload
from repro.chase import homomorphism
from repro.chase.congruence import CongruenceClosure
from repro.chase.homomorphism import Pattern
from repro.optimizer.optimizer import Optimizer
from repro.query.ast import Binding, Eq
from repro.query.paths import Attr, Const, Dom, Lookup, SName, Var
from test_prop_congruence import VARS, terms

STRATEGIES = ("pruned", "full")

#: what ``Pattern.match`` reads of its target
Target = namedtuple("Target", "bindings")


def state(cc, unions):
    """Everything a caller can read off a closure, in the closure's own
    orders: its terms, their roots, their sorted classes, every class's
    member set as it iterates, the flag and the ``on_union`` log so far."""

    known = cc.all_terms()
    return (
        known,
        [cc.find(t) for t in known],
        [cc.members(t) for t in known],
        [tuple(ms) for ms in cc.member_sets()],
        cc.inconsistent,
        list(unions),
    )


def logging(cc, unions):
    """``cc``, its ``on_union`` appending both member sets, each as it
    iterates, to ``unions``."""

    cc.on_union = lambda xs, ys: unions.append((tuple(xs), tuple(ys)))
    return cc


def homs(matches):
    """Homomorphisms as item lists: their order and each one's key order."""

    return [list(hom.items()) for hom in matches]


# -- arm 1: call sequences -------------------------------------------------------

calls = st.lists(
    st.one_of(
        st.tuples(st.just("add"), terms()),
        st.tuples(st.just("merge"), terms(), terms()),
        st.tuples(st.just("merge"), *[st.sampled_from(VARS).map(Var)] * 2),
        st.tuples(st.just("equal"), terms(), terms()),
        st.tuples(st.just("copy")),
        st.tuples(st.just("avoiding"), terms(), st.sampled_from(VARS)),
        st.tuples(st.just("in_class"), terms()),
    ),
    max_size=30,
)


def apply(cc, call, bindings):
    """One call on ``cc`` and its answer."""

    name, *args = call
    if name == "add":
        return cc.add(args[0])
    if name == "merge":
        return cc.merge(*args)
    if name == "equal":
        return cc.equal(*args)
    if name == "avoiding":
        return cc.equivalent_avoiding(args[0], frozenset((args[1],)))
    return list(cc.bindings_in_class(args[0], bindings))


@settings(max_examples=150, deadline=None)
@given(st.lists(terms(), min_size=1, max_size=4), calls)
def test_call_sequences_read_the_same(sources, sequence):
    bindings = tuple(Binding(f"x{i}", t) for i, t in enumerate(sources))
    got_log, want_log = [], []
    got = logging(CongruenceClosure(), got_log)
    want = logging(oracle.CongruenceClosure(), want_log)
    for call in sequence:
        if call[0] == "copy":
            got, want = logging(got.copy(), got_log), logging(want.copy(), want_log)
        else:
            assert apply(got, call, bindings) == apply(want, call, bindings), call
        assert state(got, got_log) == state(want, want_log), call


def test_an_index_is_rebuilt_after_a_union_moves_it():
    """The class index ``bindings_in_class`` keeps is rebuilt once a union
    moved an indexed root, on both sides alike."""

    x, y = Var("x"), Var("y")
    bindings = (Binding("b0", Attr(x, "A")), Binding("b1", Attr(y, "A")))
    answers = []
    for cc in (CongruenceClosure(), oracle.CongruenceClosure()):
        before = list(cc.bindings_in_class(Attr(x, "A"), bindings))
        cc.merge(x, y)
        answers.append((before, list(cc.bindings_in_class(Attr(y, "A"), bindings))))
    assert answers[0] == answers[1] == ([bindings[0]], list(bindings))


def test_a_root_without_parents_takes_over_the_absorbed_ones():
    """A leaf root (no parent set yet) that wins a union takes over the
    absorbed class's parents, and hands them on when it is absorbed in
    turn: their congruences still close."""

    a, b, d, e = Var("a"), Var("b"), Var("d"), Var("e")
    logs, states = ([], []), []
    for cc, log in zip((CongruenceClosure(), oracle.CongruenceClosure()), logs):
        logging(cc, log)
        cc.add(Attr(b, "A"))
        cc.add(Attr(d, "A"))
        cc.merge(a, b)  # a wins the tie and takes b.A
        cc.merge(e, d)  # e takes d.A
        cc.merge(e, a)  # a's class, b.A with it, moves under e
        assert cc.equal(Attr(b, "A"), Attr(d, "A"))
        states.append(state(cc, log))
    assert states[0] == states[1]


# -- arm 2: every match the workload optimizations make -------------------------


def replayed_matches(name, strategy):
    """One optimization of workload ``name`` with every ``Pattern.match``
    call intercepted: each distinct call (pattern, closure state, target,
    initial mapping) is enumerated in full by the rewritten matcher and by
    the oracle, each on its own copy of the closure as the call found it.
    Returns (calls replayed, calls with two or more homomorphisms,
    mismatches)."""

    real = Pattern.match
    seen, targets = set(), []
    counts = {"replayed": 0, "several": 0}
    mismatches = []

    def replaying(pattern, target, cc, initial=None):
        # a closure only grows: (terms, classes) names the state it is in
        key = (
            pattern,
            cc,
            len(cc.all_terms()),
            len(cc.member_sets()),
            id(target),
            tuple(initial.items()) if initial else None,
        )
        if key not in seen:
            seen.add(key)
            targets.append(target)  # its id stays its own while keyed
            got = homs(real(pattern, target, cc.copy(), initial))
            want = homs(oracle.recursive_match(pattern, target, cc.copy(), initial))
            counts["replayed"] += 1
            counts["several"] += len(want) > 1
            if got != want:
                mismatches.append((pattern.bindings, got, want))
        return real(pattern, target, cc, initial)

    wl = build_workload(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homomorphism.Pattern, "match", replaying)
        Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                strategy=strategy,
            )
        ).optimize(wl.query)
    return counts["replayed"], counts["several"], mismatches


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_match_is_the_oracles(name, strategy):
    replayed, several, mismatches = replayed_matches(name, strategy)
    assert replayed > 0
    assert several > 0  # the order of what is yielded is exercised too
    assert mismatches == []


# -- arm 3: generated patterns x generated closures ------------------------------


@st.composite
def over(draw, names, depth=2):
    """A path over the variables ``names``: schema names ``R`` / ``M``,
    constants 0–1, attributes, ``dom`` and lookups."""

    atoms = ["name", "const"] + ["var"] * 2 * bool(names)
    kind = draw(st.sampled_from(atoms + ["attr", "dom", "lookup"] * bool(depth)))
    if kind == "var":
        return Var(draw(st.sampled_from(names)))
    if kind == "name":
        return SName(draw(st.sampled_from(["R", "M"])))
    if kind == "const":
        return Const(draw(st.integers(0, 1)))
    if kind == "attr":
        return Attr(draw(over(names, depth - 1)), draw(st.sampled_from(["A", "B"])))
    if kind == "dom":
        return Dom(draw(over(names, depth - 1)))
    return Lookup(draw(over(names, depth - 1)), draw(over(names, depth - 1)))


@st.composite
def bindings_over(draw, prefix, size, known=()):
    """``size`` bindings ``prefix0``, ``prefix1``, …, each source a path
    over ``known`` and the variables bound before it — ``R`` half the time,
    so that a level often has several candidates."""

    out = []
    for i in range(size):
        names = list(known) + [b.var for b in out]
        source = st.one_of(st.just(SName("R")), over(names, depth=1))
        out.append(Binding(f"{prefix}{i}", draw(source)))
    return tuple(out)


@st.composite
def matching_problems(draw):
    """A target (bindings ``t*``), the equalities merged into its closure, a
    pattern (bindings ``p*``, conditions, maybe the known name ``k``) and
    the initial mapping of the known name."""

    targets = draw(bindings_over("t", draw(st.integers(1, 4))))
    t_names = [b.var for b in targets]
    merges = draw(st.lists(st.tuples(over(t_names), over(t_names)), max_size=4))
    known = draw(st.sampled_from([(), ("k",)]))
    bindings = draw(bindings_over("p", draw(st.integers(0, 3)), known))
    p_names = list(known) + [b.var for b in bindings]
    conditions = draw(st.lists(st.builds(Eq, over(p_names), over(p_names)), max_size=3))
    initial = {"k": Var(draw(st.sampled_from(t_names)))} if known else None
    return Target(targets), merges, Pattern(bindings, conditions, known), initial


@settings(max_examples=200, deadline=None)
@given(matching_problems())
def test_generated_matches_are_the_oracles(problem):
    target, merges, pattern, initial = problem
    closures = []
    for cc in (CongruenceClosure(), oracle.CongruenceClosure()):
        for binding in target.bindings:  # as ``build_congruence`` adds a query
            cc.add(Var(binding.var))
            cc.add(binding.source)
        for left, right in merges:
            cc.merge(left, right)
        closures.append(cc)
    got_cc, want_cc = closures
    assert state(got_cc, []) == state(want_cc, [])
    got = homs(pattern.match(target, got_cc, initial))
    want = homs(oracle.recursive_match(pattern, target, want_cc, initial))
    assert got == want
    assert state(got_cc, []) == state(want_cc, [])  # the same terms added
