"""Generalized tableau minimization (sections 1 and 3).

Classical tableau minimization [ChandraMerlin, ASU] is "precisely such a
backchase" with *trivial* (always-true) constraints — i.e. backchasing
with an empty dependency set, where condition (3) reduces to ordinary
query equivalence.  This module packages that special case and extends it
with semantic minimization under a constraint set (minimization "for a
larger class of queries and under constraints").
"""

from __future__ import annotations

from typing import List, Sequence

from repro.backchase.backchase import minimal_subqueries
from repro.chase.chase import chase
from repro.constraints.epcd import EPCD
from repro.query.ast import PCQuery


def minimize(query: PCQuery, deps: Sequence[EPCD] = ()) -> PCQuery:
    """A minimal query equivalent to ``query`` under ``deps``.

    With ``deps = ()`` this is generalized tableau minimization; the
    result is unique up to isomorphism for conjunctive queries, and we
    return the deterministic first normal form (fewest bindings, then
    canonical order).

    With constraints, the full chase & backchase runs: chasing first is
    what exposes semantic redundancies (e.g. a KEY dependency must add
    ``x = y`` to the where clause before the duplicate binding becomes
    removable).
    """

    forms = minimize_all(query, deps)
    return forms[0] if forms else query


def minimize_all(query: PCQuery, deps: Sequence[EPCD] = ()) -> List[PCQuery]:
    """All minimal equivalents (may be several under constraints)."""

    dep_list = list(deps)
    chased = chase(query, dep_list).query if dep_list else query
    return minimal_subqueries(chased, dep_list)
