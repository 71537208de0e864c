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

from typing import Optional, Sequence

from repro.chase.chase import ChaseEngine
from repro.chase.congruence import build_congruence
from repro.chase.homomorphism import find_hom, match_bindings, output_matches
from repro.constraints.epcd import EPCD
from repro.query.ast import PCQuery
from repro.query.paths import Var


def is_contained_in(
    q1: PCQuery,
    q2: PCQuery,
    deps: Sequence[EPCD] = (),
    engine: Optional[ChaseEngine] = None,
) -> bool:
    """Decide ``q1 ⊑ q2`` under ``deps`` (set semantics)."""

    engine = engine or ChaseEngine(list(deps))
    chased, cc = engine.chase_with_cc(q1)
    if cc.inconsistent:
        # q1 is unsatisfiable (two distinct constants equated): empty ⊑ anything.
        return True
    # A chase step adds bindings and conditions only, so the chased
    # query's output is still canonical q1's.
    for hom in match_bindings(q2.bindings, q2.conditions, chased, cc):
        if output_matches(q2.output, chased.output, hom, cc):
            return True
    return False


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
    # Note: the premise query is chased in canonical form; track renaming.
    canonical = premise.canonical()
    renaming = {
        b_old.var: b_new.var
        for b_old, b_new in zip(premise.bindings, canonical.bindings)
    }
    chased, cc = engine.chase_with_cc(premise)
    if cc.inconsistent:
        return True  # unsatisfiable premise: implication holds vacuously
    renamed_dep = _rename_universals(dep, renaming)
    identity = {b.var: Var(b.var) for b in renamed_dep.premise_bindings}
    witness = find_hom(
        renamed_dep.conclusion_bindings,
        renamed_dep.conclusion_conditions,
        chased,
        cc,
        initial=identity,
    )
    return witness is not None


def _rename_universals(dep: EPCD, renaming: dict) -> EPCD:
    from repro.query import paths as P
    from repro.query.ast import Binding, Eq

    mapping = {old: Var(new) for old, new in renaming.items()}

    def sub(path):
        return P.substitute(path, mapping)

    return EPCD(
        name=dep.name,
        premise_bindings=tuple(
            Binding(renaming.get(b.var, b.var), sub(b.source))
            for b in dep.premise_bindings
        ),
        premise_conditions=tuple(
            Eq(sub(c.left), sub(c.right)) for c in dep.premise_conditions
        ),
        conclusion_bindings=tuple(
            Binding(b.var, sub(b.source)) for b in dep.conclusion_bindings
        ),
        conclusion_conditions=tuple(
            Eq(sub(c.left), sub(c.right)) for c in dep.conclusion_conditions
        ),
    )


def is_trivial(dep: EPCD) -> bool:
    """Does ``dep`` hold in all instances?  (Implication from ∅.)"""

    return implies(dep, ())
