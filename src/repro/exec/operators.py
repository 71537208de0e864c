"""Iterator-model physical operators over variable environments.

Plans compile to a pipeline of operators, each producing a stream of
environments (variable → value).  Dictionary lookups in binding sources
make the same pipeline behave as index-nested-loop joins — the one join
algorithm the interpreter has.  A hash join is a *plan* (section 2): a
lookup in a hash-table dictionary the chase and backchase reach like any
other index (``physical/hashtable.py``), never an operator the planner
picks behind the plan's back.

All operators share a :class:`Counters` object so benchmarks can report
tuples scanned and dictionary probes alongside wall-clock times; a run
read operator by operator (EXPLAIN ANALYZE, plan-quality feedback) gives
each its own (:func:`own_counters`) — *where* they count changes, never
how they run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.errors import QueryExecutionError
from repro.model.instance import Instance
from repro.model.values import Row
from repro.query import paths as P
from repro.query.ast import Eq
from repro.query.evaluator import eval_path
from repro.query.paths import Path

Env = Dict[str, Any]


@dataclass
class Counters:
    """Execution instrumentation."""

    tuples: int = 0
    probes: int = 0
    filtered: int = 0
    #: input rows whose binding source came up empty — the runtime
    #: signature of a mis-estimated join (interpreted runs only)
    empty_probes: int = 0

    def reset(self) -> None:
        self.tuples = 0
        self.probes = 0
        self.filtered = 0
        self.empty_probes = 0

    def merge(self, other: "Counters") -> None:
        """Accumulate another run's counts into this object (the engine
        reports per-run counters and *merges* into a caller-reused
        ``Counters``, so accumulation is explicit, never accidental)."""

        self.tuples += other.tuples
        self.probes += other.probes
        self.filtered += other.filtered
        self.empty_probes += other.empty_probes


class Operator:
    """Base class: an iterator of environments."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters

    def rows(self, instance: Instance) -> Iterator[Env]:  # pragma: no cover
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:  # pragma: no cover
        raise NotImplementedError


class Singleton(Operator):
    """The unit stream: one empty environment."""

    def rows(self, instance: Instance) -> Iterator[Env]:
        yield {}

    def explain(self, depth: int = 0) -> str:
        return " " * depth + "unit"


class ScanBind(Operator):
    """Bind ``var`` to each element of ``source`` (dependent scan).

    With a dictionary-lookup source this is an index nested-loop join;
    with a schema-name source it is a full scan per outer row.
    """

    def __init__(
        self, child: Operator, var: str, source: Path, counters: Counters
    ) -> None:
        super().__init__(counters)
        self.child = child
        self.var = var
        self.source = source
        self.cached = False  # set by the planner for cache-overlay scans
        self._source_probes = P.count_probes(source)

    def rows(self, instance: Instance) -> Iterator[Env]:
        for env in self.child.rows(instance):
            self.counters.probes += self._source_probes
            collection = eval_path(self.source, env, instance)
            if not isinstance(collection, frozenset):
                raise QueryExecutionError(
                    f"binding source {self.source} is not a set"
                )
            if not collection:
                self.counters.empty_probes += 1
            for element in collection:
                self.counters.tuples += 1
                child_env = dict(env)
                child_env[self.var] = element
                yield child_env

    def explain(self, depth: int = 0) -> str:
        tag = " [cached]" if self.cached else ""
        return (
            self.child.explain(depth)
            + "\n"
            + " " * (depth + 2)
            + f"scan {self.source} as {self.var}{tag}"
        )


class Filter(Operator):
    """Apply equality conditions."""

    def __init__(
        self, child: Operator, conditions: Sequence[Eq], counters: Counters
    ) -> None:
        super().__init__(counters)
        self.child = child
        self.conditions = list(conditions)
        # Per-condition probe counts: when the condition list short-circuits
        # on a failing Eq, only the conditions actually evaluated may count
        # (EXPLAIN ANALYZE renders these as actuals).
        self._cond_probes = [
            P.count_probes(c.left) + P.count_probes(c.right) for c in self.conditions
        ]

    def rows(self, instance: Instance) -> Iterator[Env]:
        for env in self.child.rows(instance):
            ok = True
            for cond, probes in zip(self.conditions, self._cond_probes):
                self.counters.probes += probes
                if eval_path(cond.left, env, instance) != eval_path(
                    cond.right, env, instance
                ):
                    ok = False
                    break
            if ok:
                yield env
            else:
                self.counters.filtered += 1

    def explain(self, depth: int = 0) -> str:
        conds = " and ".join(str(c) for c in self.conditions)
        return self.child.explain(depth) + "\n" + " " * (depth + 2) + f"filter {conds}"


class Project(Operator):
    """Terminal operator: evaluate the select clause."""

    def __init__(self, child: Operator, output, counters: Counters) -> None:
        super().__init__(counters)
        self.child = child
        self.output = output
        self._out_probes = sum(P.count_probes(p) for p in output.paths())

    def results(self, instance: Instance) -> Iterator[Any]:
        from repro.query.ast import StructOutput

        for env in self.child.rows(instance):
            self.counters.probes += self._out_probes
            if isinstance(self.output, StructOutput):
                yield Row(
                    {
                        name: eval_path(path, env, instance)
                        for name, path in self.output.fields
                    }
                )
            else:
                yield eval_path(self.output.path, env, instance)

    def rows(self, instance: Instance) -> Iterator[Env]:  # pragma: no cover
        raise QueryExecutionError("Project is a terminal operator")

    def explain(self, depth: int = 0) -> str:
        return (
            self.child.explain(depth)
            + "\n"
            + " " * (depth + 2)
            + f"project {self.output}"
        )


# -- chain helpers -------------------------------------------------------------


def chain(plan: Operator) -> List[Operator]:
    """The operators of a (linear) plan bottom-up: unit first, project last."""

    ops: List[Operator] = []
    op = plan
    while op is not None:
        ops.append(op)
        op = getattr(op, "child", None)
    return ops[::-1]


def own_counters(plan: Operator) -> List[Operator]:
    """Give every operator of a freshly compiled plan a :class:`Counters`
    of its own — the run can then be read operator by operator, and the
    caller merges them back into the run total — and return the chain."""

    ops = chain(plan)
    for op in ops:
        op.counters = Counters()
    return ops


def binding_levels(ops: Sequence[Operator]) -> List[Tuple[int, int]]:
    """``(bind, tail)`` chain indexes per binding level.  The tail — the
    :class:`Filter` following the bind if there is one, else the bind —
    is where the level's surviving rows are counted: compiled plans fold
    a level's conditions into its scan loop, so both modes count there."""

    return [
        (idx, idx + 1 if isinstance(ops[idx + 1], Filter) else idx)
        for idx, op in enumerate(ops)
        if isinstance(op, ScanBind)
    ]


def rows_out(ops: Sequence[Operator]) -> List[int]:
    """Rows each operator of a drained chain produced, read off the
    counters :func:`own_counters` installed."""

    produced: List[int] = []
    rows = 0
    for op in ops:
        if isinstance(op, Singleton):
            rows = 1
        elif isinstance(op, ScanBind):
            rows = op.counters.tuples
        elif isinstance(op, Filter):
            rows -= op.counters.filtered
        produced.append(rows)  # Project: one value per input row
    return produced


def level_rows(ops: Sequence[Operator]) -> Tuple[int, ...]:
    """Rows surviving each binding level (its bind and its conditions)."""

    produced = rows_out(ops)
    return tuple(produced[tail] for _, tail in binding_levels(ops))
