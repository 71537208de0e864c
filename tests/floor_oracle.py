"""The reference cost floor: ``plan_cost_floor`` as one function, before it
was split into a half that reads the closure and a half that reads the
catalog.

``repro.optimizer.cost.floor_terms`` reads a query's congruence closure
into the catalog-free facts the floor needs, and ``floor_value`` prices
them; the backchase records the terms on each node of a shape's removal
graph and prices them again under every later search's catalog.  The code
below reads the closure and the catalog in one pass, as the search used
to on every node, and ``tests/test_prop_pruning.py`` holds the split to
it bit for bit.  One thing differs from the old body: the level-0
discount multiplies its factors in ascending order of the class counts,
the order the split fixes so that two spellings of a shape price alike.
"""

from __future__ import annotations

from typing import Optional

from repro.chase.congruence import query_congruence
from repro.optimizer.cost import (
    _GROUND_COUNT_CAP,
    CostModel,
    _ground_term_counts,
    _min_selectivity,
    _source_cardinality,
    _stat_floor,
)
from repro.optimizer.statistics import Statistics
from repro.query import paths as P
from repro.query.ast import PCQuery
from repro.query.paths import Path, Var


def plan_cost_floor(
    query: PCQuery,
    stats: Statistics,
    model: Optional[CostModel] = None,
) -> float:
    """Lower bound on the estimated cost of ``query`` and of every subquery
    reachable from it by backchase steps."""

    model = model or CostModel()
    if not query.bindings:
        return model.scan_startup
    cc = query_congruence(query)
    if cc.inconsistent:
        return model.scan_startup

    ground_counts = _ground_term_counts(cc)

    def groundable(term: Path) -> bool:
        fv = term._fvs
        if not fv:
            return True
        return all(
            Var(v) in cc and ground_counts.get(cc.find(Var(v)), 0) > 0 for v in fv
        )

    if all(groundable(path) for path in query.output.paths()):
        return model.scan_startup

    floor_stat = _stat_floor(stats)
    n_first = None
    for binding in query.bindings:
        for member in cc.members(binding.source):
            if not groundable(member):
                continue
            estimate = _source_cardinality(member, stats)
            if P.free_vars(member):
                estimate = min(estimate, floor_stat)
            if n_first is None or estimate < n_first:
                n_first = estimate
    if n_first is None:
        return model.scan_startup

    s_min = _min_selectivity(stats)
    m0 = 1.0
    for count in sorted(ground_counts.values()):
        if count >= _GROUND_COUNT_CAP:
            return model.scan_startup
        if count >= 2:
            m0 *= s_min ** (count - 1)

    return model.scan_startup + m0 * n_first * model.tuple_cost
