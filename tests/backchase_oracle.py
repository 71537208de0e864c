"""Reference formulations the backchase tests compare ``src/`` against.

The paper describes one plan space three ways, and Theorem 2 says they
agree; ``minimal_subqueries`` is the one the system searches with.  The
other two are kept here, outside ``src/``, as oracles:

* Section 3's *rule formulation*: "configuring a rule-based optimizer
  with the two rewrite rules (chase and backchase) and requesting that the
  application of the chase rule always takes precedence over that of the
  backchase rule".  :class:`ChaseRule` and :class:`BackchaseRule` are the
  one-step rewriters; :func:`rule_normal_forms` saturates with the first,
  then applies the second breadth-first, with no cost ranking and no
  budget.
* Section 5's *bottom-up* procedure: "enumerates equivalent plans
  bottom-up by building subsets of at most as many views, relations and
  classes as the number of bindings in the from clause" — every subset of
  the universal plan's bindings induces (when the output and conditions
  can be rewritten onto it) a candidate subquery, decided by the chase in
  both directions (:func:`bottom_up_minimal_plans`).

:func:`try_remove_binding` / :func:`is_minimal` are section 3's single
backchase step and minimality, built from the search's own constructor
and acceptance test.  Everything here is exponential and meant for small
scenarios.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.backchase.backchase import (
    accept_candidate,
    build_candidate,
    plan_lookups_safe,
    quick_simplify_conditions,
)
from repro.chase.chase import ChaseEngine, chase_once
from repro.chase.containment import is_contained_in
from repro.constraints.epcd import EPCD
from repro.query.ast import PCQuery


def try_remove_binding(
    query: PCQuery,
    var: str,
    deps: Sequence[EPCD],
    engine: Optional[ChaseEngine] = None,
) -> Optional[PCQuery]:
    """One backchase step: remove binding ``var`` if conditions (1)-(3)
    hold.  Returns the reduced (simplified, reordered) query, or ``None``
    when the step does not apply."""

    engine = engine or ChaseEngine(list(deps))
    candidate = build_candidate(query, frozenset((var,)))
    if candidate is None or not accept_candidate(candidate, query, engine):
        return None
    return candidate


def is_minimal(
    query: PCQuery, deps: Sequence[EPCD], engine: Optional[ChaseEngine] = None
) -> bool:
    """No strict equivalent subquery exists (section 3's minimality)."""

    engine = engine or ChaseEngine(list(deps))
    return all(
        try_remove_binding(query, var, deps, engine) is None
        for var in query.binding_vars()
    )


class ChaseRule:
    """One chase step with the first applicable constraint."""

    def __init__(self, deps: Sequence[EPCD]) -> None:
        self.deps = list(deps)

    def apply(self, query: PCQuery) -> Iterator[PCQuery]:
        outcome = chase_once(query, self.deps)
        if outcome is not None:
            yield outcome[0]


class BackchaseRule:
    """All single-binding backchase steps."""

    def __init__(self, deps: Sequence[EPCD]) -> None:
        self.deps = list(deps)
        self.engine = ChaseEngine(self.deps)

    def apply(self, query: PCQuery) -> Iterator[PCQuery]:
        for var in query.binding_vars():
            candidate = try_remove_binding(query, var, self.deps, self.engine)
            if candidate is not None:
                yield candidate


def saturate(query: PCQuery, deps: Sequence[EPCD]) -> PCQuery:
    """Apply the chase rule until it no longer applies (it has precedence)."""

    rule = ChaseRule(deps)
    current = query
    while True:
        stepped = next(rule.apply(current), None)
        if stepped is None:
            return current
        current = stepped


def rule_normal_forms(query: PCQuery, deps: Sequence[EPCD]) -> List[PCQuery]:
    """Saturate, then apply the backchase rule breadth-first; the queries
    it no longer applies to, one per canonical key, in discovery order."""

    rule = BackchaseRule(deps)
    universal = saturate(query, deps)
    frontier = [universal]
    visited = {universal.canonical_key()}
    finals: Dict[str, PCQuery] = {}
    while frontier:
        next_frontier: List[PCQuery] = []
        for current in frontier:
            produced_any = False
            for candidate in rule.apply(current):
                produced_any = True
                key = candidate.canonical_key()
                if key not in visited:
                    visited.add(key)
                    next_frontier.append(candidate)
            if not produced_any:
                finals.setdefault(current.canonical_key(), current)
        frontier = next_frontier
    return list(finals.values())


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
