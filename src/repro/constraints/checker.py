"""Checking constraints against database instances.

Used by tests and workload generators to validate that materialized
physical structures really satisfy their characterizing EPCDs — i.e. that
the implementation mapping is faithful before the optimizer relies on it.

A constraint is a boolean-valued query (paper, section 3), and so is its
check: ∀x̄(B₁ → ∃ȳ B₂) holds on I iff every row of the premise query
(:meth:`~repro.constraints.epcd.EPCD.premise_query`, one struct of x̄ per
match of B₁) is also a row of the same output over B₁ ∧ B₂.  Both run
through the compiled executor; a violation is a row of the difference.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.constraints.epcd import EPCD
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.model.values import sort_key
from repro.query.ast import PCQuery

Env = Dict[str, Any]


def holds(dep: EPCD, instance: Instance) -> bool:
    """Does the instance satisfy the dependency?"""

    return next(violations(dep, instance, limit=1), None) is None


def violations(
    dep: EPCD, instance: Instance, limit: Optional[int] = None
) -> Iterator[Env]:
    """Premise environments with no conclusion witness (counterexamples),
    ordered by the values of the universal variables."""

    premise = dep.premise_query()
    whole = PCQuery(
        premise.output,
        dep.premise_bindings + dep.conclusion_bindings,
        dep.premise_conditions + dep.conclusion_conditions,
    )
    names = dep.universal_vars()
    missing = (
        execute(premise, instance, mode="compiled").results
        - execute(whole, instance, mode="compiled").results
    )
    ordered = sorted(missing, key=lambda row: [sort_key(row[n]) for n in names])
    for row in ordered[:limit]:
        yield {n: row[n] for n in names}


def check_all(
    deps: Sequence[EPCD], instance: Instance
) -> List[Tuple[str, Env]]:
    """First violation (if any) per failing constraint."""

    return [
        (dep.name, witness)
        for dep in deps
        for witness in violations(dep, instance, limit=1)
    ]
