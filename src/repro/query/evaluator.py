"""Reference interpreter for PC queries (set semantics).

This is the library's semantic ground truth: the chase, backchase and plan
refinement must all preserve ``evaluate(query, instance)``.  The test
suite checks exactly that, including on hypothesis-generated instances.

It is the oracle only — for the tests and for the benchmark harness's
answer checks.  Nothing on a request or build path evaluates through it:
plans run through :func:`repro.exec.engine.execute`, and so do the
definitions of physical structures (views, ASRs, join-index views,
gmaps) when they are materialized, and the two queries of a constraint
check (:mod:`repro.constraints.checker`).  The interpreted operators
share only its :func:`eval_path`.

Bindings are evaluated left to right as nested loops; equality conditions
fire as soon as all their variables are bound (a tiny bit of selection
pushdown so the reference interpreter is usable at workload scale).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List

from repro.errors import QueryExecutionError
from repro.model.instance import Instance
from repro.model.values import DictValue, Oid, Row
from repro.query.ast import Eq, PCQuery, StructOutput
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
    free_vars,
)

Env = Dict[str, Any]


def eval_path(path: Path, env: Env, instance: Instance) -> Any:
    """Evaluate a path expression under a variable environment."""

    if isinstance(path, Var):
        try:
            return env[path.name]
        except KeyError:
            raise QueryExecutionError(f"unbound variable {path.name!r}") from None
    if isinstance(path, Const):
        return path.value
    if isinstance(path, Param):
        raise QueryExecutionError(
            f"unbound parameter ${path.name}: bind it before execution "
            f"(PCQuery.bind_params or PreparedQuery.run({path.name}=...))"
        )
    if isinstance(path, SName):
        return instance[path.name]
    if isinstance(path, Attr):
        base = eval_path(path.base, env, instance)
        if isinstance(base, Oid):
            base = instance.deref(base)
        if isinstance(base, Row):
            try:
                return base[path.attr]
            except KeyError:
                raise QueryExecutionError(
                    f"row has no attribute {path.attr!r}: {base!r}"
                ) from None
        raise QueryExecutionError(f"attribute access on non-record: {path}")
    if isinstance(path, Dom):
        base = eval_path(path.base, env, instance)
        if not isinstance(base, DictValue):
            raise QueryExecutionError(f"dom of non-dictionary: {path}")
        return base.domain()
    if isinstance(path, Lookup):
        base = eval_path(path.base, env, instance)
        if not isinstance(base, DictValue):
            raise QueryExecutionError(f"lookup into non-dictionary: {path}")
        key = eval_path(path.key, env, instance)
        try:
            return base.lookup(key)
        except KeyError:
            raise QueryExecutionError(
                f"failing lookup: key {key!r} not in dom({path.base})"
            ) from None
    if isinstance(path, NFLookup):
        base = eval_path(path.base, env, instance)
        if not isinstance(base, DictValue):
            raise QueryExecutionError(f"lookup into non-dictionary: {path}")
        key = eval_path(path.key, env, instance)
        return base.nonfailing_lookup(key)
    raise QueryExecutionError(f"unknown path node {path!r}")


def _condition_schedule(query: PCQuery) -> List[List[Eq]]:
    """conditions grouped by the binding index after which they can fire.

    Index 0 holds variable-free conditions (checked before any loop).
    """

    var_level = {b.var: i + 1 for i, b in enumerate(query.bindings)}
    schedule: List[List[Eq]] = [[] for _ in range(len(query.bindings) + 1)]
    for cond in query.conditions:
        needed = free_vars(cond.left) | free_vars(cond.right)
        level = max((var_level.get(v, 0) for v in needed), default=0)
        schedule[level].append(cond)
    return schedule


def _iter_envs(query: PCQuery, instance: Instance) -> Iterator[Env]:
    schedule = _condition_schedule(query)
    for cond in schedule[0]:
        if eval_path(cond.left, {}, instance) != eval_path(cond.right, {}, instance):
            return

    def loop(level: int, env: Env) -> Iterator[Env]:
        if level == len(query.bindings):
            yield env
            return
        binding = query.bindings[level]
        collection = eval_path(binding.source, env, instance)
        if not isinstance(collection, frozenset):
            raise QueryExecutionError(
                f"binding source {binding.source} is not a set "
                f"(got {type(collection).__name__})"
            )
        for element in collection:
            child = dict(env)
            child[binding.var] = element
            ok = True
            for cond in schedule[level + 1]:
                if eval_path(cond.left, child, instance) != eval_path(
                    cond.right, child, instance
                ):
                    ok = False
                    break
            if ok:
                yield from loop(level + 1, child)

    yield from loop(0, {})


def evaluate(query: PCQuery, instance: Instance) -> FrozenSet[Any]:
    """Evaluate a query, returning a frozenset (``select distinct``)."""

    results: List[Any] = []
    for env in _iter_envs(query, instance):
        if isinstance(query.output, StructOutput):
            results.append(
                Row({name: eval_path(path, env, instance) for name, path in query.output.fields})
            )
        else:
            results.append(eval_path(query.output.path, env, instance))
    return frozenset(results)


def count_bindings_visited(query: PCQuery, instance: Instance) -> int:
    """Instrumentation helper: number of environments enumerated."""

    return sum(1 for _ in _iter_envs(query, instance))
