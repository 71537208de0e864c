"""Containment, equivalence and constraint implication under constraints.

For PC queries, ``Q1 ⊑ Q2`` under a set of dependencies ``D`` holds iff
there is a containment mapping from ``Q2`` into ``chase_D(Q1)`` carrying
Q2's output to (a term congruent with) Q1's output.  This is the
generalization of the classical chase-based containment test [AhoSagivUllman]
to the path-conjunctive model, and is the decision procedure behind
backchase validity (condition (3) of section 3) and the minimality notion
of section 5.

Constraint implication ("is this EPCD implied by D?") chases the
constraint's premise viewed as a boolean query and checks the conclusion
in the result — "trying to see whether the constraint is implied by the
existing constraints can actually be done with the chase when constraints
are viewed as boolean-valued queries".
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.chase.chase import ChaseEngine, Goal
from repro.chase.congruence import CongruenceClosure, build_congruence
from repro.chase.homomorphism import Pattern, match_bindings, output_matches
from repro.constraints.epcd import EPCD
from repro.query import paths as P
from repro.query.ast import PCQuery
from repro.query.paths import Var


def is_contained_in(
    q1: PCQuery,
    q2: PCQuery,
    deps: Sequence[EPCD] = (),
    engine: Optional[ChaseEngine] = None,
    accepted: Iterable[PCQuery] = (),
    refuted: Iterable[PCQuery] = (),
) -> bool:
    """Decide ``q1 ⊑ q2`` under ``deps`` (set semantics).

    ``accepted``: queries known to be contained in ``q2`` under ``deps``.
    If ``q1`` is :func:`subsumed` by one, ``q1 ⊑ it ⊑ q2`` needs no chase.
    ``refuted``: queries known *not* to be; :func:`refuted_by_identity`
    answers *False* unchased.  Otherwise ``q1`` is chased until
    :func:`_shared_fixed` holds or the fixpoint, where any mapping is
    searched for.  ``engine.containment_decisions`` counts what decided.
    """

    engine = engine or ChaseEngine(list(deps))
    decided = engine.containment_decisions
    if subsumed(q1, accepted):
        decided["subsumed"] += 1
        return True
    if refuted_by_identity(q1, refuted):
        decided["refuted"] += 1
        return False
    state = engine.chase(q1, _shared_fixed(q1, q2))
    if not state.done:
        decided["early"] += 1
        return True
    decided["fixpoint"] += 1
    chased, cc = state.query, state.cc
    # An unsatisfiable q1 (two distinct constants equated) is in anything.
    # A chase step adds bindings and conditions only, so the chased
    # query's output is still canonical q1's.
    return cc.inconsistent or any(
        output_matches(q2.output, chased.output, hom, cc)
        for hom in match_bindings(q2.bindings, q2.conditions, chased, cc)
    )


def _shared_fixed(q1: PCQuery, q2: PCQuery) -> Optional[Goal]:
    """The early goal of ``q1 ⊑ q2`` when they share variables: an
    inconsistent closure, or a containment mapping of ``q2`` sending each
    shared variable to its canonical name in ``q1``'s chase (the unshared
    bindings matched, the shared ones' sources checked)."""

    position = {b.var: i for i, b in enumerate(q1.bindings)}
    pinned = [(b, position[b.var]) for b in q2.bindings if b.var in position]
    if not pinned:
        return None
    fixed = {b.var: Var(f"_v{i}") for b, i in pinned}
    free = [b for b in q2.bindings if b.var not in position]
    pattern = Pattern(free, q2.conditions, fixed)

    def goal(chased: PCQuery, cc: CongruenceClosure) -> bool:
        return cc.inconsistent or any(
            all(
                cc.equal(P.substitute(b.source, hom), chased.bindings[i].source)
                for b, i in pinned
            )
            and output_matches(q2.output, chased.output, hom, cc)
            for hom in pattern.match(chased, cc, fixed)
        )

    return goal


def subsumed(query: PCQuery, accepted: Iterable[PCQuery]) -> bool:
    """Does one of ``accepted`` map into ``query`` by the identity — each
    binding a same-named binding of ``query`` with a congruent source, its
    conditions and output holding in ``query``'s own closure?  Then
    ``query`` is contained in it on every instance (homomorphism theorem)."""

    sources = {b.var: b.source for b in query.bindings}
    covered = [a for a in accepted if all(b.var in sources for b in a.bindings)]
    if not covered:
        return False
    cc = build_congruence(query)
    return any(
        all(cc.equal(b.source, sources[b.var]) for b in a.bindings)
        and all(cc.equal(c.left, c.right) for c in a.conditions)
        and output_matches(a.output, query.output, {}, cc)
        for a in covered
    )


def refuted_by_identity(query: PCQuery, refuted: Iterable[PCQuery]) -> bool:
    """Does ``query`` map by the identity into one of ``refuted`` (queries
    not contained in some ``q2``)?  Then that one is contained in ``query``
    (:func:`subsumed`), and ``query ⊑ q2`` would put it in ``q2`` too."""

    return any(subsumed(r, (query,)) for r in refuted)


def is_equivalent(
    q1: PCQuery,
    q2: PCQuery,
    deps: Sequence[EPCD] = (),
    engine: Optional[ChaseEngine] = None,
) -> bool:
    """Decide ``q1 ≡ q2`` under ``deps``."""

    engine = engine or ChaseEngine(list(deps))
    return is_contained_in(q1, q2, deps, engine) and is_contained_in(
        q2, q1, deps, engine
    )


def implies(
    dep: EPCD,
    deps: Sequence[EPCD] = (),
    engine: Optional[ChaseEngine] = None,
) -> bool:
    """Is constraint ``dep`` implied by the set ``deps``?

    Chases the premise-as-query with ``deps`` and checks for a witness of
    the conclusion that fixes the premise variables (identity mapping).
    With ``deps = ()`` this decides *triviality* — constraints "that hold
    in all instances", which power tableau minimization.
    """

    engine = engine or ChaseEngine(list(deps))
    premise = dep.premise_query()
    chased, cc = engine.chase_with_cc(premise)
    if cc.inconsistent:
        return True  # unsatisfiable premise: implication holds vacuously
    # The premise was chased in canonical form: fix each universal variable
    # to its canonical name.
    fixed = {b.var: Var(f"_v{i}") for i, b in enumerate(premise.bindings)}
    witnesses = match_bindings(
        dep.conclusion_bindings, dep.conclusion_conditions, chased, cc, fixed
    )
    return next(witnesses, None) is not None


def is_trivial(dep: EPCD) -> bool:
    """Does ``dep`` hold in all instances?  (Implication from ∅.)"""

    return implies(dep, ())
