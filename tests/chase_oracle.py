"""Reference implementations the chase tests compare ``src/`` against.

:func:`naive_chase` is the chase as it was before a chase became one live
state: restart the scan at dependency 0 after every step, rebuild the
congruence closure from the query every step, re-prove every trigger, and
test every target binding with ``equal`` (:func:`linear_match_bindings`).
Slow and obviously right; kept here, outside ``src/``, as the oracle.
"""

from __future__ import annotations

from repro.chase.chase import DEFAULT_MAX_STEPS, apply_chase_step
from repro.chase.congruence import build_congruence
from repro.errors import ChaseNonTermination
from repro.query import paths as P
from repro.query.paths import Var


def linear_match_bindings(bindings, conditions, target, cc, initial=None):
    """Every homomorphism extending ``initial``, target binding order,
    found by scanning all target bindings per premise binding."""

    def holds(hom):
        return all(
            cc.equal(P.substitute(c.left, hom), P.substitute(c.right, hom))
            for c in conditions
            if P.free_vars(c.left) | P.free_vars(c.right) <= set(hom)
        )

    def extend(index, hom):
        if index == len(bindings):
            yield dict(hom)
            return
        wanted = P.substitute(bindings[index].source, hom)
        for target_binding in target.bindings:
            if cc.equal(target_binding.source, wanted):
                extended = {**hom, bindings[index].var: Var(target_binding.var)}
                if holds(extended):
                    yield from extend(index + 1, extended)

    base = dict(initial or {})
    if holds(base):
        yield from extend(0, base)


def naive_satisfied(dep, hom, query, cc):
    """Does some extension of ``hom`` witness ``dep``'s conclusion?  (An
    EGD has no conclusion bindings: the extension is ``hom`` itself.)"""

    witnesses = linear_match_bindings(
        dep.conclusion_bindings, dep.conclusion_conditions, query, cc, initial=hom
    )
    return next(witnesses, None) is not None


def naive_steps(query, deps):
    """Yield ``(query after the step, ChaseStep)`` for every step of the
    naive chase, until the fixpoint."""

    deps = list(deps)
    while True:
        cc = build_congruence(query)
        for dep in deps:
            hom = next(
                (
                    h
                    for h in linear_match_bindings(
                        dep.premise_bindings, dep.premise_conditions, query, cc
                    )
                    if not naive_satisfied(dep, h, query, cc)
                ),
                None,
            )
            if hom is not None:
                query, step = apply_chase_step(query, dep, hom)
                yield query, step
                break
        else:
            return


def naive_chase(query, deps, max_steps=DEFAULT_MAX_STEPS):
    """``(chased query, [ChaseStep, ...])`` or :class:`ChaseNonTermination`."""

    steps = []
    remaining = naive_steps(query, deps)
    while len(steps) < max_steps:
        taken = next(remaining, None)
        if taken is None:
            return query, steps
        query, step = taken
        steps.append(step)
    raise ChaseNonTermination(
        f"chase did not terminate within {max_steps} steps", max_steps
    )


def naive_prefix(query, deps, n):
    """``(query, [ChaseStep, ...])`` after the naive chase's first ``n``
    steps, or ``None`` when it reaches the fixpoint in fewer."""

    steps = []
    remaining = naive_steps(query, deps)
    while len(steps) < n:
        taken = next(remaining, None)
        if taken is None:
            return None
        query, step = taken
        steps.append(step)
    return query, steps
