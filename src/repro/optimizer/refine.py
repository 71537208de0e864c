"""Plan normalization and refinement.

Three post-passes over backchase normal forms:

* :func:`normalize_plan` — choose canonical (smallest) congruent
  representatives for output fields and binding sources, so plans that
  differ only in the choice of "equals for equals" collapse to one form;
* :func:`prune_conditions` — drop where-clause conditions implied by the
  dependencies given the rest of the plan (decided with the chase); these
  are the residues of chase steps — true but redundant facts such as
  ``I[p.PName] = p`` on a plan that already scans ``Proj``;
* :func:`nonfailing_refinement` — the paper's final §4 transformation:
  replace a dictionary-domain guard ``k in dom(M)`` plus lookups ``M[k]``
  by non-failing lookups ``M{t}`` when the key is known equal to a
  guard-free term ``t``.  Sound unconditionally for set-valued entries:
  when ``t ∉ dom(M)`` both sides produce nothing.

(The complementary refinement — dropping a guard in favour of a *failing*
lookup when safety is provable — is performed by the backchase itself,
since the chase-based equivalence check is exactly the safety proof.)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.backchase.backchase import blind, simplify_conditions, toposort_bindings
from repro.chase.chase import ChaseEngine
from repro.chase.congruence import build_congruence
from repro.constraints.epcd import EPCD
from repro.errors import BackchaseError, ReproError
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.query.paths import Dom, Lookup, NFLookup, Path, Var


def normalize_plan(query: PCQuery) -> PCQuery:
    """Rewrite outputs and binding sources to smallest congruent terms."""

    cc = build_congruence(query)

    def best(path: Path) -> Path:
        if path not in cc:
            return path
        members = [m for m in cc.members(path)]
        return min(members, key=P.path_sort_key) if members else path

    if isinstance(query.output, StructOutput):
        output = StructOutput(
            tuple((name, best(path)) for name, path in query.output.fields)
        )
    else:
        output = PathOutput(best(query.output.path))

    bindings: List[Binding] = []
    for binding in query.bindings:
        source = binding.source
        if source in cc:
            for candidate in sorted(cc.members(source), key=P.path_sort_key):
                if isinstance(candidate, (Var,)):
                    continue  # a bare variable is not a scannable source
                trial = bindings + [Binding(binding.var, candidate)]
                try:
                    toposort_bindings(
                        PCQuery(output, tuple(trial) + query.bindings[len(trial):], ())
                    )
                except BackchaseError:
                    continue
                source = candidate
                break
        bindings.append(Binding(binding.var, source))

    candidate = PCQuery(output, tuple(bindings), query.conditions)
    try:
        candidate = toposort_bindings(candidate)
        candidate.validate()
    except ReproError:
        return simplify_conditions(query)
    return simplify_conditions(candidate)


def prune_conditions(
    query: PCQuery,
    deps: Sequence[EPCD],
    contained_in: Optional[Callable[[PCQuery, PCQuery], bool]] = None,
) -> PCQuery:
    """Drop conditions implied by ``deps`` given the rest of the plan.

    Each candidate drop is validated with the chase: the weakened plan
    must still be contained in the original (the reverse direction is a
    pure weakening).  Larger conditions are attempted first so that
    residues like ``Dept[d].DName = d.DName`` go before their generators;
    among equal sizes the order is blind to the constants
    (``backchase.blind``), so plans that differ only in constants
    try their drops alike and ask the same pairs up to those constants.

    ``contained_in`` is what the drops are asked through, and it must
    decide under ``deps``: the optimizer hands over its search's
    ``backchase.RootVerdicts.contained_in``, the one memo of these
    verdicts, so a pair an earlier search from the same root up to its
    constants decided is not decided again; by default a fresh
    ``ChaseEngine(deps).contained_in``, which decides every pair and
    remembers none.  Either way the pair asked is the real one, in the
    order computed on ``query``.
    """

    if contained_in is None:
        contained_in = ChaseEngine(list(deps)).contained_in
    conditions = sorted(
        query.conditions,
        key=lambda c: (
            -(P.size(c.left) + P.size(c.right)),
            sorted((blind(c.left), blind(c.right))),
            c.key(),
        ),
    )
    changed = True
    while changed:
        changed = False
        reference = PCQuery(query.output, query.bindings, tuple(conditions))
        for i in range(len(conditions)):
            trial = conditions[:i] + conditions[i + 1 :]
            candidate = PCQuery(query.output, query.bindings, tuple(trial))
            if contained_in(candidate, reference):
                conditions = trial
                changed = True
                break
    pruned = PCQuery(query.output, query.bindings, tuple(conditions))
    return simplify_conditions(pruned)


def nonfailing_refinement(query: PCQuery) -> Optional[PCQuery]:
    """Replace dom-guards by non-failing lookups where possible.

    Finds bindings ``k in dom(M)`` whose variable ``k`` is (a) equated to a
    ``k``-free term ``t`` and (b) used otherwise only as the key of
    binding sources ``M[k]``; rewrites those sources to ``M{t}``,
    substitutes ``t`` for ``k`` elsewhere, and drops the guard.  Returns
    ``None`` when no guard qualifies.
    """

    cc = build_congruence(query)
    current = query
    applied = False
    for binding in list(query.bindings):
        if not isinstance(binding.source, Dom):
            continue
        key_var = binding.var
        if not current.has_var(key_var):
            continue  # already eliminated
        replacement = cc.equivalent_avoiding(Var(key_var), frozenset((key_var,)))
        if replacement is None or key_var in P.free_vars(replacement):
            continue
        dict_path = binding.source.base
        rewritten = _apply_nonfailing(current, key_var, dict_path, replacement)
        if rewritten is not None:
            current = rewritten
            applied = True
    if not applied:
        return None
    return simplify_conditions(current)


def _apply_nonfailing(
    query: PCQuery, key_var: str, dict_path: Path, replacement: Path
) -> Optional[PCQuery]:
    """One guard elimination; ``None`` when the occurrence shape is unsafe."""

    lookup_term = Lookup(dict_path, Var(key_var))

    # The key variable must feed at least one binding source M[k] (so that
    # emptiness propagates) and must not appear under M[k] in conditions or
    # output (those would fail at runtime for absent keys).
    dependent_bindings = [
        b for b in query.bindings if b.var != key_var and b.source == lookup_term
    ]
    if not dependent_bindings:
        return None

    def has_lookup_on_key(path: Path) -> bool:
        """Any dictionary lookup whose key involves ``key_var``.

        Such a term would evaluate a (possibly failing) lookup even for
        keys outside the dictionary's domain, so the guard cannot go.
        Only a binding whose *entire* source is ``M[k]`` is rewriteable
        (to the non-failing ``M{t}``).
        """

        return any(
            isinstance(term, (Lookup, NFLookup)) and key_var in P.free_vars(term.key)
            for term in P.subterms(path)
        )

    for cond in query.conditions:
        if has_lookup_on_key(cond.left) or has_lookup_on_key(cond.right):
            return None
    for out_path in query.output.paths():
        if has_lookup_on_key(out_path):
            return None
    for b in query.bindings:
        if b.var == key_var or b.source == lookup_term:
            continue
        if has_lookup_on_key(b.source):
            return None

    substitution = {key_var: replacement}
    new_bindings: List[Binding] = []
    for b in query.bindings:
        if b.var == key_var:
            continue
        if b.source == lookup_term:
            new_bindings.append(
                Binding(b.var, NFLookup(dict_path, replacement))
            )
        else:
            new_bindings.append(
                Binding(b.var, P.substitute(b.source, substitution))
            )
    new_conditions = tuple(
        Eq(P.substitute(c.left, substitution), P.substitute(c.right, substitution))
        for c in query.conditions
    )
    new_output = query.output.substitute(substitution)
    candidate = PCQuery(new_output, tuple(new_bindings), new_conditions)
    try:
        candidate = toposort_bindings(candidate)
        candidate.validate()
    except ReproError:
        return None
    return candidate
