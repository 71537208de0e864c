"""Bottom-up plan enumeration — the other Theorem 1 upper bound.

Section 5: "[we generalize] the upper bound result obtained in [LMSS95]
for conjunctive relational queries, thus justifying a procedure which
enumerates equivalent plans bottom-up by building subsets of at most as
many views, relations and classes as the number of bindings in the from
clause of [the] logical query" — whereas the backchase enumerates
*top-down* by step-by-step rewriting.

This module implements the subset procedure over the universal plan:
every subset of chase(Q)'s bindings induces (when the output and
conditions can be rewritten onto it) a candidate subquery, whose
equivalence with Q is decided by the chase.  Its minimal elements must
coincide with the backchase's normal forms (Theorem 2) — the test suite
and bench E7 cross-validate exactly that.

Exponential in the number of bindings; intended for validation and small
scenarios, not as the production search (that is the backchase).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.backchase.backchase import (
    build_candidate,
    plan_lookups_safe,
    quick_simplify_conditions,
)
from repro.chase.chase import ChaseEngine
from repro.chase.containment import is_contained_in
from repro.constraints.epcd import EPCD
from repro.query.ast import PCQuery


def restrict_to_bindings(
    query: PCQuery,
    keep: FrozenSet[str],
    deps: Sequence[EPCD],
    engine: Optional[ChaseEngine] = None,
    check: bool = True,
) -> Optional[PCQuery]:
    """The subquery of ``query`` over exactly the bindings in ``keep``.

    Built by the backchase's own constructor (:func:`build_candidate`,
    banning every dropped variable at once): the output, the kept binding
    sources and the conditions are rewritten with congruent terms avoiding
    the dropped variables (maximal implied equalities).  Returns ``None``
    when no such subquery exists or (with ``check``) when it is not
    equivalent under ``deps`` — decided here, independently of the
    backchase's acceptance test, with both containment directions.
    """

    engine = engine or ChaseEngine(list(deps))
    all_vars = set(query.binding_vars())
    if not keep <= all_vars:
        return None
    banned = frozenset(all_vars - keep)
    if not banned:
        return quick_simplify_conditions(query)

    candidate = build_candidate(query, banned)
    if candidate is None:
        return None
    if check:
        if not is_contained_in(candidate, query, deps, engine):
            return None
        if not is_contained_in(query, candidate, deps, engine):
            return None
        if not plan_lookups_safe(candidate, engine):
            return None
    return candidate


def enumerate_equivalent_subqueries(
    universal: PCQuery,
    deps: Sequence[EPCD],
    engine: Optional[ChaseEngine] = None,
) -> Dict[FrozenSet[str], PCQuery]:
    """All binding subsets of the universal plan that induce equivalent
    subqueries, smallest first."""

    engine = engine or ChaseEngine(list(deps))
    all_vars = list(universal.binding_vars())
    found: Dict[FrozenSet[str], PCQuery] = {}
    for size in range(1, len(all_vars) + 1):
        for combo in combinations(all_vars, size):
            keep = frozenset(combo)
            candidate = restrict_to_bindings(universal, keep, deps, engine)
            if candidate is not None:
                found[keep] = candidate
    return found


def bottom_up_minimal_plans(
    universal: PCQuery,
    deps: Sequence[EPCD],
    engine: Optional[ChaseEngine] = None,
) -> List[PCQuery]:
    """Minimal equivalent subqueries by subset enumeration.

    A subset is minimal when no strict sub-subset also induces an
    equivalent subquery.  By Theorem 2 the result must equal the set of
    backchase normal forms.
    """

    engine = engine or ChaseEngine(list(deps))
    equivalent = enumerate_equivalent_subqueries(universal, deps, engine)
    minimal: List[PCQuery] = []
    for keep, candidate in equivalent.items():
        if any(other < keep for other in equivalent):
            continue
        minimal.append(candidate)
    unique: Dict[str, PCQuery] = {}
    for plan in minimal:
        unique.setdefault(plan.canonical_key(), plan)
    plans = list(unique.values())
    plans.sort(key=lambda q: (len(q.bindings), q.canonical_key()))
    return plans
