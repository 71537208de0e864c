"""Property-based tests for the congruence closure."""

from hypothesis import given, settings, strategies as st

from conftest import constraint_sets, pc_queries
from repro.chase.chase import ChaseState
from repro.chase.congruence import CongruenceClosure, build_congruence
from repro.query import paths as P
from repro.query.paths import Attr, Const, Dom, Lookup, SName, Var

VARS = ["a", "b", "c", "d"]
ATTRS = ["A", "B"]


@st.composite
def terms(draw, depth=2):
    kind = draw(st.sampled_from(["var", "const", "name", "attr", "dom", "lookup"]))
    if depth == 0 or kind == "var":
        return Var(draw(st.sampled_from(VARS)))
    if kind == "const":
        return Const(draw(st.integers(0, 2)))
    if kind == "name":
        return SName(draw(st.sampled_from(["R", "M"])))
    if kind == "attr":
        return Attr(draw(terms(depth=depth - 1)), draw(st.sampled_from(ATTRS)))
    if kind == "dom":
        return Dom(draw(terms(depth=depth - 1)))
    return Lookup(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))


@st.composite
def merge_sets(draw):
    pairs = draw(st.lists(st.tuples(terms(), terms()), min_size=0, max_size=6))
    return pairs


@settings(max_examples=60, deadline=None)
@given(merge_sets(), terms(), terms(), terms())
def test_equivalence_relation(pairs, x, y, z):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    # reflexivity
    assert cc.equal(x, x)
    # symmetry
    assert cc.equal(x, y) == cc.equal(y, x)
    # transitivity
    if cc.equal(x, y) and cc.equal(y, z):
        assert cc.equal(x, z)


@settings(max_examples=60, deadline=None)
@given(merge_sets(), terms(), terms(), st.sampled_from(ATTRS))
def test_congruence_attr(pairs, x, y, attr):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    if cc.equal(x, y):
        assert cc.equal(Attr(x, attr), Attr(y, attr))


@settings(max_examples=60, deadline=None)
@given(merge_sets(), terms(), terms(), terms(), terms())
def test_congruence_lookup(pairs, m1, m2, k1, k2):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    if cc.equal(m1, m2) and cc.equal(k1, k2):
        assert cc.equal(Lookup(m1, k1), Lookup(m2, k2))


@settings(max_examples=60, deadline=None)
@given(merge_sets(), terms())
def test_members_share_class(pairs, x):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    cc.add(x)
    for member in cc.members(x):
        assert cc.equal(member, x)


@settings(max_examples=60, deadline=None)
@given(merge_sets(), terms(), st.sampled_from(VARS))
def test_equivalent_avoiding_sound(pairs, x, banned_var):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    cc.add(x)
    banned = frozenset((banned_var,))
    result = cc.equivalent_avoiding(x, banned)
    if result is not None:
        assert not (P.free_vars(result) & banned)
        assert cc.equal(result, x)


@settings(max_examples=40, deadline=None)
@given(merge_sets())
def test_merge_order_irrelevant(pairs):
    cc1 = CongruenceClosure()
    for a, b in pairs:
        cc1.merge(a, b)
    cc2 = CongruenceClosure()
    for a, b in reversed(pairs):
        cc2.merge(b, a)
    all_terms = [t for a, b in pairs for t in (a, b)]
    for i, s in enumerate(all_terms):
        for t in all_terms[i + 1 :]:
            assert cc1.equal(s, t) == cc2.equal(s, t)


@settings(max_examples=40, deadline=None)
@given(merge_sets(), st.integers(0, 2), st.integers(0, 2))
def test_constant_clash_detection(pairs, c1, c2):
    cc = CongruenceClosure()
    for a, b in pairs:
        cc.merge(a, b)
    before = cc.inconsistent
    cc.merge(Const(c1), Const(c2))
    if c1 != c2:
        assert cc.inconsistent
    else:
        assert cc.inconsistent == before


@settings(max_examples=80, deadline=None)
@given(query=pc_queries(), deps=constraint_sets(min_groups=2, max_groups=5))
def test_closure_extended_by_chase_steps_equals_the_rebuilt_one(query, deps):
    """The chase never rebuilds its closure: after every step the extended
    one must answer like ``build_congruence`` of the query so far, over all
    pairs of the query's terms."""

    state = ChaseState(query, deps)
    for _ in range(10):
        if state.step() is None:
            break
        rebuilt = build_congruence(state.query)
        terms = list(dict.fromkeys(state.query.all_terms()))
        for i, s in enumerate(terms):
            for t in terms[i + 1 :]:
                assert state.cc.equal(s, t) == rebuilt.equal(s, t), (s, t)
        assert state.cc.inconsistent == rebuilt.inconsistent


def closure_view(cc, terms, bindings):
    """What a closure answers about ``terms``: representative, members
    and indexed bindings of each one's class."""

    return [
        (cc.find(t), cc.members(t), tuple(cc.bindings_in_class(t, bindings)))
        for t in terms
    ]


@settings(max_examples=80, deadline=None)
@given(merge_sets(), merge_sets(), merge_sets(), st.lists(terms(), max_size=4))
def test_copy_is_independent(shared, only_copy, only_original, added):
    """``copy()`` hands out the same state and nothing else: adding to or
    merging in the copy never changes ``find`` / ``members`` /
    ``bindings_in_class`` of the original, and vice versa."""

    from repro.query.ast import Binding

    original = CongruenceClosure()
    for a, b in shared:
        original.merge(a, b)
    known = list(original.all_terms())
    bindings = tuple(Binding(f"x{i}", t) for i, t in enumerate(known[:4]))
    before = closure_view(original, known, bindings)

    twin = original.copy()
    assert closure_view(twin, known, bindings) == before
    assert twin.inconsistent == original.inconsistent

    for term in added:
        twin.add(term)
    for a, b in only_copy:
        twin.merge(a, b)
    assert closure_view(original, known, bindings) == before
    assert list(original.all_terms()) == known

    reference = CongruenceClosure()  # the copy, had it never been one
    for a, b in shared:
        reference.merge(a, b)
    for term in added:
        reference.add(term)
    for a, b in only_copy:
        reference.merge(a, b)
    twin_terms = list(twin.all_terms())
    assert twin_terms == list(reference.all_terms())
    twin_before = closure_view(twin, twin_terms, bindings)
    assert [m for _, m, _ in twin_before] == [
        m for _, m, _ in closure_view(reference, twin_terms, bindings)
    ]

    for a, b in only_original:
        original.merge(a, b)
    assert closure_view(twin, twin_terms, bindings) == twin_before
