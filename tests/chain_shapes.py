"""E8's chain shapes: the scaling tests' workload and ``make chain``'s.

A plain module (no fixture, no ``conftest`` import), so that
``benchmarks/chain.py`` — run as a script, with ``benchmarks/`` and its
own ``conftest.py`` first on ``sys.path`` — imports the same shapes the
tier-1 tests search.
"""

from __future__ import annotations

from repro.optimizer.statistics import Statistics
from repro.physical.indexes import SecondaryIndex
from repro.query.parser import parse_query


def scaling_workload(n_bindings: int, n_indexes: int):
    """The E8 scaling shape: a chain R x0 ⋈ ... ⋈ R x(n-1) on B with a
    selective constant, and ``k`` secondary indexes on R.B chased in."""

    r_card, b_ndv = 2000.0, 50.0
    bindings = ", ".join(f"R x{i}" for i in range(n_bindings))
    chain = " and ".join(f"x{i}.B = x{i+1}.B" for i in range(n_bindings - 1))
    conditions = (chain + " and " if chain else "") + "x0.B = 9"
    query = parse_query(f"select struct(A = x0.A) from {bindings} where {conditions}")
    deps = []
    stats = Statistics()
    stats.set_card("R", r_card).set_ndv("R", "B", b_ndv)
    for i in range(n_indexes):
        name = f"IX{i}"
        deps.extend(SecondaryIndex(name, "R", "B").constraints())
        stats.cardinality[name] = b_ndv
        stats.entry_cardinality[name] = r_card / b_ndv
    return query, deps, stats
