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

:meth:`Pattern.match` runs on a stack of per-level iterators; against the
recursive generator in ``tests/congruence_oracle.py`` it asks
``bindings_in_class`` at the same points and yields the same homomorphisms
in the same order, each its own ``dict``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.chase.congruence import CongruenceClosure
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PCQuery
from repro.query.paths import Path, Var

Hom = Dict[str, Path]


class Pattern:
    """Bindings to match, with their conditions grouped by the level at
    which they become checkable (``levels[i]``: once the first ``i``
    bindings are mapped, given the ``known`` names) — checking early prunes
    the search.  Grouped once per dependency side, matched many times."""

    def __init__(
        self,
        bindings: Sequence[Binding],
        conditions: Sequence[Eq],
        known: Iterable[str] = (),
    ) -> None:
        self.bindings = tuple(bindings)
        level_of = {b.var: i + 1 for i, b in enumerate(self.bindings)}
        needed = set(level_of).difference(known)
        self.levels: List[List[Eq]] = [[] for _ in range(len(self.bindings) + 1)]
        for cond in conditions:
            free = (P.free_vars(cond.left) | P.free_vars(cond.right)) & needed
            self.levels[max(map(level_of.get, free), default=0)].append(cond)

    def match(
        self, target: PCQuery, cc: CongruenceClosure, initial: Optional[Hom] = None
    ) -> Iterator[Hom]:
        """Enumerate homomorphisms extending ``initial`` (keyed by the
        ``known`` names): every binding variable goes to a binding variable
        of ``target`` (as a :class:`Var`) and all conditions hold in ``cc``.
        Deterministic order (target binding order), which makes the chase
        result reproducible."""

        bindings, levels, last = self.bindings, self.levels, len(self.bindings)
        equal, substitute, in_class = cc.equal, P.substitute, cc.bindings_in_class
        targets = target.bindings
        hom: Hom = dict(initial or {})
        for c in levels[0]:  # variable-free conditions must hold outright
            if not equal(substitute(c.left, hom), substitute(c.right, hom)):
                return
        if not last:
            yield dict(hom)
            return
        found = in_class(substitute(bindings[0].source, hom), targets)
        # stack[i] walks the target bindings that bindings[i] may map to
        stack = [iter(found)] if found else []
        while stack:
            index = len(stack)
            var, checks = bindings[index - 1].var, levels[index]
            for target_binding in stack[-1]:
                hom[var] = Var(target_binding.var)
                for c in checks:
                    if not equal(substitute(c.left, hom), substitute(c.right, hom)):
                        break
                else:
                    break
            else:  # level exhausted: back to the one before
                stack.pop()
                del hom[var]
                continue
            if index == last:
                yield dict(hom)
                continue
            found = in_class(substitute(bindings[index].source, hom), targets)
            if found:
                stack.append(iter(found))


def match_bindings(
    bindings: Sequence[Binding],
    conditions: Sequence[Eq],
    target: PCQuery,
    cc: CongruenceClosure,
    initial: Optional[Hom] = None,
) -> Iterator[Hom]:
    """Homomorphisms of a one-off :class:`Pattern` extending ``initial``."""

    return Pattern(bindings, conditions, initial or ()).match(target, cc, initial)


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
