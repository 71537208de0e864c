"""EXPLAIN ANALYZE: the engine's own run, read operator by operator.

:func:`analyze_query` evaluates nothing itself: it calls
:func:`repro.exec.engine.execute` (interpreted) with an ``instrument``
hook and the caller's plain flags — like the engine, it takes no
optimization context — and the engine — same planner, operators and overlay semantics,
because it *is* the production run — hands the hook the operator chain
with every operator on its own :class:`~repro.exec.operators.Counters`.
The hook puts a clock between each parent and child (it shadows the
child's ``rows``); afterwards the actuals are read off the operators:
rows produced and loop iterations (input rows consumed), dictionary
probes, *empty* probes (lookups that found nothing — the runtime
signature of a mis-estimated join), filtered rows, hash builds, and
inclusive / self wall time from the clocks.  The result renders next to
the cost model's per-operator row estimates, making estimation error
visible operator by operator — the classic EXPLAIN ANALYZE contract.

The production hot path pays nothing: the clocks sit on the one freshly
compiled plan the engine built for this call (the overhead-guard test in
``tests/test_obs.py`` pins that plans compiled elsewhere carry nothing).

The per-operator row *estimates* are read off the cost model's own
per-level record (``estimate_cost(..., record=)``), the walk that also
gives the estimated cost, so "est rows" here and ``estimate_cost`` never
disagree about what the model believed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

# The module, not ``execute`` itself: the engine imports the tracer from
# this package, so either of the two may be mid-import when the other
# loads; the attribute is only read at call time.
from repro.exec import engine
from repro.exec.operators import (
    Counters,
    Filter,
    HashJoinBind,
    Operator,
    Project,
    rows_out,
)
from repro.model.instance import Instance
from repro.optimizer.cost import CostModel, estimate_cost
from repro.query.ast import PCQuery

__all__ = ["OpStats", "AnalyzeResult", "analyze_query"]


@dataclass
class OpStats:
    """Measured (and, with statistics, estimated) behavior of one operator."""

    label: str
    est_rows: Optional[float] = None
    rows: int = 0
    loops: int = 0
    probes: int = 0
    empty_probes: int = 0
    filtered: int = 0
    hash_builds: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "est_rows": (
                round(self.est_rows, 3) if self.est_rows is not None else None
            ),
            "rows": self.rows,
            "loops": self.loops,
            "probes": self.probes,
            "empty_probes": self.empty_probes,
            "filtered": self.filtered,
            "hash_builds": self.hash_builds,
            "seconds": round(self.seconds, 6),
            "self_seconds": round(self.self_seconds, 6),
        }


@dataclass
class AnalyzeResult:
    """The outcome of one instrumented run."""

    query: PCQuery
    results: FrozenSet[Any]
    elapsed_seconds: float
    plan_text: str
    op_stats: List[OpStats] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    estimated_cost: Optional[float] = None

    @property
    def rows(self) -> int:
        """Distinct result rows — always ``len(execute(query))``."""

        return len(self.results)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "estimated_cost": (
                round(self.estimated_cost, 3)
                if self.estimated_cost is not None
                else None
            ),
            "operators": [stat.as_dict() for stat in self.op_stats],
        }

    def render(self) -> str:
        """The per-operator table: actuals next to estimates."""

        header = (
            f"EXPLAIN ANALYZE: {self.rows} rows in "
            f"{self.elapsed_seconds * 1000:.2f}ms"
        )
        if self.estimated_cost is not None:
            header += f" (estimated cost {self.estimated_cost:.1f})"
        width = max((len(s.label) for s in self.op_stats), default=8)
        width = max(width, len("operator"))
        lines = [header]
        lines.append(
            f"  {'operator':<{width}}  {'est rows':>9} {'rows':>7} "
            f"{'loops':>7} {'probes':>7} {'empty':>6} {'filtered':>8} "
            f"{'time ms':>9} {'self ms':>9}"
        )
        for stat in self.op_stats:
            est = (
                f"{stat.est_rows:.1f}" if stat.est_rows is not None else "-"
            )
            lines.append(
                f"  {stat.label:<{width}}  {est:>9} {stat.rows:>7} "
                f"{stat.loops:>7} {stat.probes:>7} {stat.empty_probes:>6} "
                f"{stat.filtered:>8} {stat.seconds * 1000:>9.3f} "
                f"{stat.self_seconds * 1000:>9.3f}"
            )
        return "\n".join(lines)


def _timed(rows, stat: OpStats):
    """``rows`` — an operator's bound ``rows`` — with a clock on every
    pull: the operator's inclusive wall time accumulates on ``stat``
    (what it *did* is on its own counters)."""

    def timed_rows(instance: Instance):
        clock = time.perf_counter
        iterator = rows(instance)
        done = object()
        while True:
            t0 = clock()
            env = next(iterator, done)
            stat.seconds += clock() - t0
            if env is done:
                return
            yield env

    return timed_rows


def _op_label(op: Operator) -> str:
    # explain() renders the whole chain up to this operator; the last
    # line is this operator's own label, guaranteed to match the plan
    # text character for character.
    return op.explain().rsplit("\n", 1)[-1].strip()


def _read_estimates(
    ops: List[Operator], query: PCQuery, stats, model=None
) -> Tuple[float, List[float]]:
    """``query``'s estimated cost and each operator's estimated rows, read
    off the record of one ``estimate_cost`` walk: a bind yields its
    level's rows (a hash join times the factor of its folded key), a
    filter applies its conditions' factors."""

    record: List[Tuple[float, List[float]]] = []
    cost = estimate_cost(query, stats, model, record)
    levels = zip(record, query.condition_levels())
    estimates: List[float] = []
    for op in ops:
        if isinstance(op, Filter):
            for cond in op.conditions:
                rows *= factor[cond]
        elif not isinstance(op, Project):
            (rows, factors), conds = next(levels)
            factor = dict(zip(conds, factors))
            if isinstance(op, HashJoinBind):
                key = {op.build_key, op.probe_key}
                rows *= next(f for c, f in factor.items() if {c.left, c.right} == key)
        estimates.append(rows)
    return cost, estimates


def analyze_query(
    query: PCQuery,
    instance: Instance,
    use_hash_joins: bool = False,
    overlays: Optional[Mapping[str, Any]] = None,
    statistics=None,
    cost_model: Optional[CostModel] = None,
) -> AnalyzeResult:
    """Run ``query`` — :func:`repro.exec.engine.execute`'s run, always
    interpreted, untraced — and report an :class:`OpStats` per operator,
    bottom-up in plan-text order.  ``statistics`` enables the
    estimated-rows column and the total estimated cost; without it only
    actuals are reported.  Like the engine, this takes plain arguments:
    ``Database.explain(analyze=True)`` unpacks its context into them.
    """

    ops: List[Operator] = []
    op_stats: List[OpStats] = []

    def interpose(chain: List[Operator]) -> None:
        for op in chain:
            stat = OpStats(label=_op_label(op))
            op_stats.append(stat)
            if op is not chain[-1]:  # the root Project is timed by the engine
                op.rows = _timed(op.rows, stat)
        ops.extend(chain)

    execution = engine.execute(
        query,
        instance,
        use_hash_joins=use_hash_joins,
        overlays=overlays,
        instrument=interpose,
    )
    op_stats[-1].seconds = execution.elapsed_seconds
    estimated_cost, estimates = None, [None] * len(ops)
    if statistics is not None:
        estimated_cost, estimates = _read_estimates(
            ops, query, statistics, cost_model
        )
    loops, child_seconds = 1, 0.0
    for op, stat, rows, est in zip(ops, op_stats, rows_out(ops), estimates):
        stat.rows, stat.loops, stat.est_rows = rows, loops, est
        stat.probes = op.counters.probes
        stat.empty_probes = op.counters.empty_probes
        stat.filtered = op.counters.filtered
        stat.hash_builds = op.counters.hash_builds
        stat.self_seconds = max(stat.seconds - child_seconds, 0.0)
        loops, child_seconds = rows, stat.seconds

    return AnalyzeResult(
        query=query,
        results=execution.results,
        elapsed_seconds=execution.elapsed_seconds,
        plan_text=execution.plan_text,
        op_stats=op_stats,
        counters=execution.counters,
        estimated_cost=estimated_cost,
    )
