"""Compilation of PC plans into operator pipelines.

The from-clause order is taken as the join order (the optimizer's
reordering pass has already run); each binding becomes a :class:`ScanBind`
— which behaves as a table scan, a dependent (navigation) scan or an
index nested-loop probe depending on its source path — or, when enabled
and profitable, a :class:`HashJoinBind` for value-based equijoins against
an independent relation.  Conditions are pushed to the earliest level at
which their variables are bound (selection pushing).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.exec.operators import (
    Counters,
    Filter,
    HashJoinBind,
    Operator,
    Project,
    ScanBind,
    Singleton,
)
from repro.query import paths as P
from repro.query.ast import Eq, PCQuery
from repro.query.paths import Path, SName


def _hash_join_opportunity(
    binding_var: str,
    source: Path,
    level_conds: List[Eq],
    bound: Set[str],
) -> Optional[Tuple[Eq, Path, Path]]:
    """A condition ``f(binding_var) = g(earlier vars)`` usable as join key."""

    if not isinstance(source, SName):
        return None
    for cond in level_conds:
        for this_side, other_side in ((cond.left, cond.right), (cond.right, cond.left)):
            this_vars = P.free_vars(this_side)
            other_vars = P.free_vars(other_side)
            if this_vars == {binding_var} and other_vars <= bound and other_vars:
                return cond, this_side, other_side
    return None


def _reads_cached(source: Path, cached_names: FrozenSet[str]) -> bool:
    return any(
        isinstance(term, SName) and term.name in cached_names
        for term in P.subterms(source)
    )


def compile_query(
    query: PCQuery,
    counters: Optional[Counters] = None,
    use_hash_joins: bool = False,
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
    bound: Set[str] = set()
    for level, binding in enumerate(query.bindings, start=1):
        level_conds = levels[level]
        opportunity = (
            _hash_join_opportunity(binding.var, binding.source, level_conds, bound)
            if use_hash_joins
            else None
        )
        if opportunity is not None:
            cond, build_key, probe_key = opportunity
            op = HashJoinBind(
                op, binding.var, binding.source, build_key, probe_key, counters
            )
            level_conds.remove(cond)
        else:
            op = ScanBind(op, binding.var, binding.source, counters)
        if cached_names and _reads_cached(binding.source, cached_names):
            op.cached = True
        if level_conds:
            op = Filter(op, level_conds, counters)
        bound.add(binding.var)
    return Project(op, query.output, counters)
