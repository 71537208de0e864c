"""The nested-loop constraint checker ``src/`` replaced, kept as its oracle.

``repro.constraints.checker`` decides I ⊨ ∀x̄(B₁ → ∃ȳ B₂) with two queries
the compiled executor runs.  This is the direct reading of the
definition it is held to (``tests/test_prop_checker.py``): enumerate the
premise environments with the reference evaluator, and for each search
the conclusion's bindings left to right for one witness.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.constraints.epcd import EPCD
from repro.model.instance import Instance
from repro.query.evaluator import Env, _iter_envs, eval_path


def _premise_envs(dep: EPCD, instance: Instance) -> Iterator[Env]:
    return _iter_envs(dep.premise_query(), instance)


def _conclusion_holds(dep: EPCD, env: Env, instance: Instance) -> bool:
    def conditions_hold(e: Env, conditions) -> bool:
        return all(
            eval_path(c.left, e, instance) == eval_path(c.right, e, instance)
            for c in conditions
        )

    if not dep.conclusion_bindings:
        return conditions_hold(env, dep.conclusion_conditions)

    def search(index: int, e: Env) -> bool:
        if index == len(dep.conclusion_bindings):
            return conditions_hold(e, dep.conclusion_conditions)
        binding = dep.conclusion_bindings[index]
        collection = eval_path(binding.source, e, instance)
        for element in collection:
            child = dict(e)
            child[binding.var] = element
            if search(index + 1, child):
                return True
        return False

    return search(0, dict(env))


def oracle_violations(dep: EPCD, instance: Instance) -> List[Env]:
    """Every premise environment with no conclusion witness."""

    return [
        env
        for env in _premise_envs(dep, instance)
        if not _conclusion_holds(dep, env, instance)
    ]


def oracle_holds(dep: EPCD, instance: Instance) -> bool:
    return not oracle_violations(dep, instance)
