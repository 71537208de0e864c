"""Homomorphism (containment-mapping) search from constraint/query bodies
into queries.

A homomorphism maps each universally quantified variable of a constraint
premise (or each binding variable of a query, for containment tests) to a
binding variable of the target query such that:

* the image of each binding's source path is congruent (in the target's
  congruence closure) to the target variable's own source, and
* the image of every equality condition holds in the target's congruence.

Binding variables are the only terms known to be *members* of their source
collections, so mapping variables to variables is complete for PC queries
(any member term is congruent to some binding variable or the match fails).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.chase.congruence import CongruenceClosure
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PCQuery
from repro.query.paths import Path, Var

Hom = Dict[str, Path]


def match_bindings(
    bindings: Sequence[Binding],
    conditions: Sequence[Eq],
    target: PCQuery,
    cc: CongruenceClosure,
    initial: Optional[Hom] = None,
) -> Iterator[Hom]:
    """Enumerate homomorphisms extending ``initial``.

    Each yielded mapping sends every binding variable in ``bindings`` to a
    binding variable of ``target`` (as a :class:`Var` path); all
    ``conditions`` hold under the mapping in ``cc``.  Enumeration order is
    deterministic (target binding order), which makes the chase result
    reproducible.
    """

    base: Hom = dict(initial or {})
    bindings = list(bindings)

    # Pre-compute, per candidate step, which conditions become fully
    # instantiated once a prefix of the constraint variables is mapped —
    # checking early prunes the search.
    all_new_vars = [b.var for b in bindings]
    known = set(base)
    conditions_at: List[List[Eq]] = [[] for _ in range(len(bindings) + 1)]
    for cond in conditions:
        needed = (P.free_vars(cond.left) | P.free_vars(cond.right)) - known
        level = 0
        for i, var in enumerate(all_new_vars):
            if var in needed:
                level = i + 1
        conditions_at[level].append(cond)

    def check(cond: Eq, hom: Hom) -> bool:
        left = P.substitute(cond.left, hom)
        right = P.substitute(cond.right, hom)
        return cc.equal(left, right)

    def extend(index: int, hom: Hom) -> Iterator[Hom]:
        if index == len(bindings):
            yield dict(hom)
            return
        binding = bindings[index]
        wanted_source = P.substitute(binding.source, hom)
        for target_binding in cc.bindings_in_class(wanted_source, target.bindings):
            hom[binding.var] = Var(target_binding.var)
            if all(check(cond, hom) for cond in conditions_at[index + 1]):
                yield from extend(index + 1, hom)
            del hom[binding.var]

    # variable-free conditions must hold outright
    if not all(check(cond, base) for cond in conditions_at[0]):
        return
    yield from extend(0, base)


def find_hom(
    bindings: Sequence[Binding],
    conditions: Sequence[Eq],
    target: PCQuery,
    cc: CongruenceClosure,
    initial: Optional[Hom] = None,
) -> Optional[Hom]:
    """First homomorphism or ``None``."""

    for hom in match_bindings(bindings, conditions, target, cc, initial):
        return hom
    return None


def output_matches(
    source_output,
    target_output,
    hom: Hom,
    cc: CongruenceClosure,
) -> bool:
    """Does ``hom`` map ``source_output`` onto ``target_output`` (mod ≡)?

    Used by containment: a mapping from query ``Q2`` into ``chase(Q1)``
    witnesses ``Q1 ⊑ Q2`` only if it carries Q2's output to a term
    congruent with Q1's output (field-wise for struct outputs).
    """

    from repro.query.ast import PathOutput, StructOutput

    if isinstance(source_output, StructOutput) and isinstance(target_output, StructOutput):
        source_fields = dict(source_output.fields)
        target_fields = dict(target_output.fields)
        if set(source_fields) != set(target_fields):
            return False
        return all(
            cc.equal(P.substitute(source_fields[name], hom), target_fields[name])
            for name in source_fields
        )
    if isinstance(source_output, PathOutput) and isinstance(target_output, PathOutput):
        return cc.equal(P.substitute(source_output.path, hom), target_output.path)
    return False
