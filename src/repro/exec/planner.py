"""Compilation of PC plans into operator pipelines.

The from-clause order is taken as the join order (the optimizer's
reordering pass has already run); each binding becomes a :class:`ScanBind`
— which behaves as a table scan, a dependent (navigation) scan or an
index nested-loop probe depending on its source path.  The plan alone
picks the join algorithm: a hash join is a plan over a hash-table
dictionary (section 2), probed like any other index.  Conditions are
pushed to the earliest level at which their variables are bound
(selection pushing).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.exec.operators import (
    Counters,
    Filter,
    Operator,
    Project,
    ScanBind,
    Singleton,
)
from repro.query import paths as P
from repro.query.ast import PCQuery
from repro.query.paths import Path, SName


def _reads_cached(source: Path, cached_names: FrozenSet[str]) -> bool:
    return any(
        isinstance(term, SName) and term.name in cached_names
        for term in P.subterms(source)
    )


def compile_query(
    query: PCQuery,
    counters: Optional[Counters] = None,
    cached_names: Optional[FrozenSet[str]] = None,
) -> Project:
    """Compile a plan to an operator tree rooted at :class:`Project`.

    ``cached_names`` marks schema names served from a cache overlay rather
    than base data; scans over them are annotated ``[cached]`` in
    ``explain()`` output so hybrid plans show which loops read cached
    extents and which re-resolve against the live instance.
    """

    counters = counters or Counters()
    levels = query.condition_levels()
    op: Operator = Singleton(counters)
    if levels[0]:
        op = Filter(op, levels[0], counters)
    for level, binding in enumerate(query.bindings, start=1):
        op = ScanBind(op, binding.var, binding.source, counters)
        if cached_names and _reads_cached(binding.source, cached_names):
            op.cached = True
        if levels[level]:
            op = Filter(op, levels[level], counters)
    return Project(op, query.output, counters)
