"""The backchase: minimizing the universal plan (section 3, phase 2).

A backchase step removes one binding ``R y`` from a query provided

(1) the remaining conditions ``C'`` are implied by ``C``,
(2) the new output ``O'`` is equal to ``O`` under ``C``, and
(3) the constraint ``forall(remaining) C' -> exists(y in R) C`` is implied
    by the dependency set ``D ∪ D'``.

We realize (1) and (2) by rewriting with the congruence closure of the
where clause ("build a database instance out of the syntax of Q, grouping
terms in congruence classes"): every surviving path is replaced by a
congruent term that avoids ``y``; ``C'`` is the maximal set of implied
equalities over surviving terms (a spanning set per congruence class,
which generates the same congruence).  Condition (3) is decided by the
chase: the candidate must be equivalent to the query under ``D ∪ D'``
(checked with containment mappings in both directions).

Bindings whose sources mention ``y`` are re-sourced to congruent ``y``-free
paths when possible (the footnote's general rule); otherwise this removal
fails and the enumeration tries removing the dependent binding first.

The definition is implemented once: :func:`build_candidate` constructs the
candidate of a removal (conditions (1)-(2)), :func:`accept_candidate`
decides condition (3) together with failing-lookup safety, and
:func:`minimal_subqueries` is the one search over backchase sequences —
memoized, depth-first, with an optional cost bound.  Unbounded
(``strategy="full"``) its normal forms are exactly the minimal equivalent
subqueries (Theorem 2).  Algorithm 1 only needs the *cheapest* plan, so
``strategy="pruned"`` threads the cost model through the same search and
cuts every branch that provably cannot beat the best complete plan found
so far:

* each node carries a **lower bound** (:func:`plan_cost_floor`) on the
  cost of every subquery reachable from it, its own normalized and refined
  variants included; a branch whose bound exceeds the best complete plan is
  never expanded;
* the **bound** is tightened only by complete plans (normal forms) that the
  caller deems eligible (``plan_cost`` returns ``None`` for ineligible
  ones, e.g. plans outside the physical schema), so the plan the
  :class:`Optimizer` would pick from the full enumeration is never pruned.

The bounded search is exact with respect to cost: the returned subset of
normal forms always contains one of minimal eligible ``plan_cost`` (the
property-test harness exercises this against the unbounded run on randomly
generated queries and constraint sets).  It is *not* complete in the
Theorem 2 sense — dominated normal forms may be absent — which is why the
unbounded run is what the completeness tests use.

Either way acceptance is decided **once per distinct candidate shape**:
every node of a search is equivalent to its root (each accepted step
preserves equivalence), so ``candidate ≡ current`` holds iff
``candidate ⊑ root`` — a verdict that depends on the candidate alone and
memoizes perfectly, however many removal orders re-derive the shape.

And the chase runs only when nothing cheaper decides.  Candidates keep the
root's variable names; the search keeps the **antichain of minimal accepted
binding-variable sets**, each with its subquery ``A``.  A candidate ``C``
covering ``A`` is first tested for the identity containment mapping
``A → C`` in ``C``'s own closure.  If it holds, ``C ⊑ A`` on every instance
(the homomorphism theorem condition (3) generalizes; no dependency
involved) and ``A ⊑ root`` was decided when ``A`` was accepted: sound by
construction, and the chase's own verdict since the chase is complete.
Otherwise ``C`` is chased as before — subsumption only ever turns a cache
miss into *True*, and ``plan_lookups_safe`` still runs on everything
accepted.  Likewise each candidate's closure is built once per search and
shared by its subsumption test, its floor and its node's removals (on
copies).
The dual keeps what condition (3) rejected: a ``C`` into which a rejected
``R`` maps by the identity is rejected unchased (``R ⊑ C``, so ``C ⊑ root``
would give ``R ⊑ root``).  What is still chased stops once answered.

The same holds for failing-lookup safety: a scope (the bindings and fired
conditions a lookup evaluates under) is chased only when neither the memo,
nor the syntactic ``dom`` guard, nor the scopes already chased for that
lookup decide it.  *Witnessed* — some ``dom``-bound variable of the chased
scope is congruent to the key — is monotone in the scope, so it carries
from a proved scope to every larger one and its absence to every smaller
one; *occurs* — the key is written in the chased scope — is not, so a
larger scope inherits *safe* only when the key occurs in it as given.  The
inferred verdict is the chased one, never an approximation (the comment
block below and ``tests/test_chase_differential.py`` have the traps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List
from typing import Optional, Sequence, Set, Tuple

from repro.chase.chase import ChaseEngine
from repro.chase.congruence import CongruenceClosure, build_congruence, query_congruence
from repro.constraints.epcd import EPCD
from repro.errors import BackchaseError
from repro.optimizer.cost import CostModel, estimate_cost, plan_cost_floor
from repro.optimizer.statistics import Statistics
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.query.paths import Dom, Lookup, Path, SName, Var


# -- failing-lookup safety ---------------------------------------------------
#
# The chase-based equivalence test of condition (3) reasons under *certain
# answer* semantics: a lookup term M[k] denotes "the entry, which exists".
# At runtime a failing lookup with an absent key raises instead of
# producing nothing, so a candidate that rewrote a dom-guard away can be
# provably equivalent yet crash — e.g. rewriting ``r in R where r.A = 1``
# to ``t in IRA[1]`` is equivalent on every instance satisfying the index
# constraints, but errors when no row has A = 1 (1 ∉ dom(IRA)).  Every
# accepted candidate therefore also passes ``plan_lookups_safe``: each
# failing lookup's key must be provably present in its dictionary's domain
# *at the point the lookup evaluates*, using only the bindings already in
# scope (and conditions already checked).  Presence is decided with the
# chase: the prefix query in scope is chased and the key must be congruent
# to a dom-bound variable of the same dictionary.  Unsafe candidates are
# rejected — the guarded form survives as the normal form, and the
# optimizer's non-failing refinement still turns it into ``M{k}``.
#
# The verdict of one chase is two facts.  *Witnessed*: a ``dom``-bound
# variable of the chased scope is congruent to the key, over a dictionary
# congruent to the lookup's.  *Occurs*: dictionary and key occur in the
# chased scope (the pinned syntactic clause).  Safe iff both.  A search asks
# about few lookups under many scopes, and most chases would re-prove a
# known fact, so the engine keeps per lookup the ⊆-minimal scopes found
# witnessed (*supports*) and the ⊆-maximal ones found not (*refutations*),
# a scope being its bindings and conditions as one set, and a new scope is
#
# * unsafe, if a refutation contains it;
# * safe, if it contains a support, the key occurs in it *as given*, and
#   the dictionary does too or is a bare schema name;
# * chased, and its verdict recorded, otherwise.
#
# This is the chased verdict exactly.  Derivability by the chase is monotone
# in what it starts from: the chase of a scope maps into the chase of any
# larger one by a homomorphism that fixes the smaller scope's variables, and
# it carries the witnessing binding to a binding over a congruent source —
# again spelled ``dom(...)`` as long as no ``dom`` term is a whole side of an
# equality in scope or in a dependency's conclusion (where one is, nothing
# is inferred or recorded).  So *witnessed* passes up, its absence down.
# *Occurs* is not monotone: the chase may have written the key itself
# (``R r`` gains ``k = r.B`` from the index constraint), and a larger scope
# can satisfy that trigger through an alias (``R r, R r2 where r = r2`` with
# ``k = r2.B``) and never write ``r.B``.  A key the scope itself mentions is
# in every chase of it; a bare dictionary name that is witnessed occurs
# (in the witnessing ``dom(M)``, or in the equality that aliases it); and a
# verdict that failed on occurrence alone refutes nothing.


class _Scope:
    """The bindings in scope and the conditions fired where lookups evaluate."""

    def __init__(self, prefix: Tuple[Binding, ...], conditions: Tuple[Eq, ...]):
        self.prefix, self.conditions = prefix, conditions

    @cached_property
    def items(self) -> FrozenSet:
        """Both as one set (scope ⊆ scope is ``<=``), built when inference
        first asks: the memo and the guard serve most evaluation points."""

        return frozenset(self.prefix + self.conditions)


def _premise(prefix: Tuple[Binding, ...], conditions: Tuple[Eq, ...]) -> PCQuery:
    """A (non-empty) scope as the query the chase is given."""

    return PCQuery(PathOutput(Var(prefix[-1].var)), prefix, conditions)


def _occurring(query: PCQuery) -> Set[Path]:
    """Every term of ``query``: its variables, its paths, their subterms."""

    terms = {Var(b.var) for b in query.bindings}
    terms.update(query.all_terms())
    return terms


def _failing_lookup_safe(
    lookup: Lookup,
    prefix: Tuple[Binding, ...],
    conditions: Tuple[Eq, ...],
    engine: ChaseEngine,
    scope: Optional[_Scope] = None,
) -> bool:
    """Is ``lookup``'s key provably in ``dom`` of its dictionary, given the
    bindings/conditions in scope when the lookup evaluates?

    A pure function of its arguments and the engine's dependencies, so the
    verdict is remembered on the engine: the candidates of a search share
    most of their prefixes.  A scope the memo has not seen is decided by the
    cheapest of: the syntactic guard, inference from the scopes already
    chased for this lookup, its own chase (``engine.lookup_decisions``
    counts which).  ``scope``: ``prefix`` and ``conditions`` again, from a
    caller that asks about several lookups at one evaluation point.
    """

    memo_key = (lookup, prefix, conditions)
    verdict, how = engine.lookup_safety.get(memo_key), "memo"
    if verdict is None:
        verdict, how = _guard_verdict(lookup, prefix), "guard"
    if verdict is None:
        scope = scope or _Scope(prefix, conditions)
        # Proofs carry over only where a witness is spelled ``dom(...)``:
        # nowhere is a dom term equated as a whole.
        proofs = None
        if not engine.equates_dom and not any(
            isinstance(side, Dom) for c in conditions for side in (c.left, c.right)
        ):
            proofs = engine.lookup_proofs.setdefault(lookup, ([], []))
            verdict, how = _infer_lookup_safe(lookup, scope, proofs), "inferred"
        if verdict is None:
            witnessed, occurs = _decide_lookup_safe(
                lookup, prefix, conditions, engine
            )
            verdict, how = witnessed and occurs, "chased"
            if proofs is not None:
                _remember(proofs, scope.items, witnessed)
    if how != "memo":
        engine.lookup_safety[memo_key] = verdict
    engine.lookup_decisions[how] += 1
    return verdict


def _guard_verdict(lookup: Lookup, prefix: Tuple[Binding, ...]) -> Optional[bool]:
    """What the syntax alone decides: safe in the PC restriction 2 shape
    (the key is a variable bound to the domain of the same dictionary),
    unsafe with nothing in scope."""

    if isinstance(lookup.key, Var):
        for b in prefix:
            if (
                isinstance(b.source, Dom)
                and b.var == lookup.key.name
                and b.source.base is lookup.base
            ):
                return True
    return None if prefix else False


def _infer_lookup_safe(lookup: Lookup, scope: _Scope, proofs) -> Optional[bool]:
    """The verdict a chase of ``scope`` would reach, when the scopes chased
    before decide it (the rule above); ``None`` when they do not."""

    supports, refutations = proofs
    if any(scope.items <= refuted for refuted in refutations):
        return False
    if any(proved <= scope.items for proved in supports):
        given = _occurring(_premise(scope.prefix, scope.conditions))
        if lookup.key in given and (
            lookup.base in given or isinstance(lookup.base, SName)
        ):
            return True
    return None


def _remember(proofs, items: FrozenSet, witnessed: bool) -> None:
    """Keep the ⊆-minimal witnessed scopes and the ⊆-maximal others."""

    supports, refutations = proofs
    if not witnessed:
        refutations[:] = [r for r in refutations if not r <= items] + [items]
    elif not any(proved <= items for proved in supports):
        supports[:] = [p for p in supports if not items <= p] + [items]


def _decide_lookup_safe(
    lookup: Lookup,
    prefix: Tuple[Binding, ...],
    conditions: Tuple[Eq, ...],
    engine: ChaseEngine,
) -> Tuple[bool, bool]:
    """The verdict from scratch, as its two facts ``(witnessed, occurs)`` —
    safe iff both: some ``dom``-bound variable of the chased scope is
    congruent to the key, over a dictionary congruent to the lookup's; and
    dictionary and key occur in the chased scope."""

    guarded = _guard_verdict(lookup, prefix)
    if guarded is not None:
        return guarded, guarded
    premise = _premise(prefix, conditions)
    rename = {b.var: Var(f"_v{i}") for i, b in enumerate(premise.bindings)}
    base_c = P.substitute(lookup.base, rename)
    key_c = P.substitute(lookup.key, rename)

    def witnessed(chased: PCQuery, cc: CongruenceClosure) -> bool:
        return any(
            isinstance(b.source, Dom)
            and cc.equal(b.source.base, base_c)
            and cc.equal(Var(b.var), key_c)
            for b in chased.bindings
        )

    # Deliberately syntactic: dictionary and key must *occur* in the chased
    # prefix (as a variable or a subterm).  A key that is merely derivable
    # as congruent to a dom-bound variable would be safe too, but accepting
    # it changes which candidates survive (the counters pinned in
    # tests/test_pruned_backchase.py), and the closure's auxiliary terms
    # must not decide a verdict.
    def occurs(chased: PCQuery) -> bool:
        return {base_c, key_c} <= _occurring(chased)

    # Both facts only grow with the chase: it stops once both hold.
    state = engine.chase(premise, lambda q, cc: witnessed(q, cc) and occurs(q))
    if not state.done:
        return True, True
    return witnessed(state.query, state.cc), occurs(state.query)


def plan_lookups_safe(query: PCQuery, engine: ChaseEngine) -> bool:
    """True iff every failing lookup in ``query`` is evaluation-safe.

    Checked per occurrence against what is in scope at its evaluation
    point: a binding source sees strictly earlier bindings plus conditions
    that have already fired; a condition side sees the bindings up to its
    firing level; output paths see everything.
    """

    if not any(
        isinstance(term, Lookup) for term in query.all_terms()
    ):
        return True

    def paths_safe(
        paths: Iterable[Path], prefix_len: int, conds: Sequence[Eq]
    ) -> bool:
        lookups = [
            term
            for path in paths
            for term in P.subterms(path)
            if isinstance(term, Lookup)
        ]
        if not lookups:
            return True
        scope = _Scope(query.bindings[:prefix_len], tuple(conds))
        prefix, conditions = scope.prefix, scope.conditions
        return all(
            _failing_lookup_safe(term, prefix, conditions, engine, scope)
            for term in lookups
        )

    levels = query.condition_levels()
    fired: List[Eq] = []
    for i, b in enumerate(query.bindings):
        fired.extend(levels[i])
        if not paths_safe((b.source,), i, fired):
            return False
    # A condition sees only strictly lower levels, not its own level's peers.
    fired = []
    for level, conds in enumerate(levels):
        sides = [side for c in conds for side in (c.left, c.right)]
        if not paths_safe(sides, level, fired):
            return False
        fired.extend(conds)
    return paths_safe(query.output.paths(), len(query.bindings), query.conditions)


def toposort_bindings(query: PCQuery) -> PCQuery:
    """Stable-reorder bindings so every source references earlier vars only.

    Backchase rewriting may re-source a binding to a path over a variable
    bound later in the clause; for PC queries (guarded, total lookups) the
    nested loops commute, so a dependency-respecting order is equivalent.
    """

    remaining = list(query.bindings)
    ordered: List[Binding] = []
    bound: Set[str] = set()
    while remaining:
        for i, binding in enumerate(remaining):
            if P.free_vars(binding.source) <= bound:
                ordered.append(binding)
                bound.add(binding.var)
                del remaining[i]
                break
        else:
            # Deterministic report: the offending bindings in sorted
            # variable order, independent of the clause order we got stuck in.
            cycle = sorted(remaining, key=lambda b: b.var)
            raise BackchaseError(
                "cyclic binding dependencies: "
                + ", ".join(f"{b.var} in {b.source}" for b in cycle)
            )
    return PCQuery(query.output, tuple(ordered), query.conditions)


def simplify_conditions(query: PCQuery) -> PCQuery:
    """Drop every condition implied (by congruence) by the remaining ones.

    Lossless: the retained conditions generate the same congruence, hence
    the same implied equalities for any later reasoning.  Runs to a
    fixpoint so the result does not depend on condition order — conditions
    like ``M[x] = M[y]`` are removed whenever ``x = y`` is retained,
    keeping plans free of redundant (and possibly failing) lookups.
    """

    kept: List[Eq] = [c for c in query.conditions if c.left != c.right]
    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 1, -1, -1):
            cc = CongruenceClosure()
            for j, other in enumerate(kept):
                if j != i:
                    cc.merge(other.left, other.right)
            if cc.equal(kept[i].left, kept[i].right):
                del kept[i]
                changed = True
    # Deterministic, deduplicated order.
    seen = set()
    unique: List[Eq] = []
    for cond in sorted((c.normalized() for c in kept), key=Eq.key):
        if cond.key() not in seen:
            seen.add(cond.key())
            unique.append(cond)
    if tuple(unique) == query.conditions:
        return query
    return PCQuery(query.output, query.bindings, tuple(unique))


def quick_simplify_conditions(query: PCQuery) -> PCQuery:
    """One-pass simplification for the hot enumeration path.

    Sorts conditions smallest-first so residues like ``M[x] = M[y]`` are
    processed after (and eliminated by) their generators ``x = y``; not
    guaranteed minimal, but deterministic and two orders of magnitude
    cheaper than the fixpoint version.
    """

    ordered = sorted(
        (c.normalized() for c in query.conditions if c.left != c.right),
        key=lambda c: (c.left._size + c.right._size, c.key()),
    )
    cc = CongruenceClosure()
    kept: List[Eq] = []
    for cond in ordered:
        if cc.equal(cond.left, cond.right):
            continue
        cc.merge(cond.left, cond.right)
        kept.append(cond)
    if tuple(kept) == query.conditions:
        return query
    return PCQuery(query.output, query.bindings, tuple(kept))


def _rewrite_output(output, cc: CongruenceClosure, banned: FrozenSet[str]):
    if isinstance(output, StructOutput):
        fields = []
        for name, path in output.fields:
            replacement = cc.equivalent_avoiding(path, banned)
            if replacement is None:
                return None
            fields.append((name, replacement))
        return StructOutput(tuple(fields))
    replacement = cc.equivalent_avoiding(output.path, banned)
    if replacement is None:
        return None
    return PathOutput(replacement)


def _surviving_conditions(
    cc: CongruenceClosure, banned: FrozenSet[str], allowed_vars: Set[str]
) -> List[Eq]:
    """Maximal implied equalities over terms avoiding ``banned`` variables.

    First materializes the banned-free congruent rewrite of every term that
    mentions a banned variable (e.g. with ``r = x2`` in force, ``r.B``
    materializes ``x2.B`` into its class) — without this the implied-
    equality set is not maximal and completeness fails.  Then one spanning
    set per congruence class: equating every surviving member to the
    smallest one regenerates the full restricted congruence.
    """

    for var in banned:
        var_term = Var(var)
        if var_term not in cc:
            continue
        replacements = [m for m in cc.members(var_term) if not (m._fvs & banned)]
        if not replacements:
            continue
        for term in list(cc.all_terms()):
            if var in term._fvs:
                for replacement in replacements:
                    cc.add(P.substitute(term, {var: replacement}))
    for term in list(cc.all_terms()):
        if term._fvs & banned:
            cc.equivalent_avoiding(term, banned)

    # Classes by the text of their smallest member (stably), each's
    # survivors in path order; only a class with two survivors yields any.
    # (``allowed_vars`` holds no banned variable.)
    spanning = []
    for members in cc.member_sets():
        if len(members) < 2:
            continue
        survivors = [m for m in members if m._fvs <= allowed_vars]
        if len(survivors) >= 2:
            survivors.sort(key=P.path_sort_key)
            spanning.append((min(members, key=P.path_sort_key)._str, survivors))
    spanning.sort(key=lambda entry: entry[0])
    return [Eq(first, other) for _, (first, *rest) in spanning for other in rest]


def build_candidate(
    query: PCQuery,
    banned: FrozenSet[str],
    cc: Optional[CongruenceClosure] = None,
) -> Optional[PCQuery]:
    """Construct the candidate of removing the ``banned`` bindings
    (conditions (1)-(2) only).

    A backchase step bans one variable; the bottom-up reference enumerator
    bans a whole subset at once.  Returns the reduced (simplified,
    reordered) query, or ``None`` when the removal fails syntactically —
    a banned variable is not bound, or the output or a dependent binding
    cannot be rewritten away from the banned ones.  Condition (3), the
    chase-decided equivalence test, is *not* run here: that is
    :func:`accept_candidate`.  ``cc``: ``query``'s closure, if the caller
    has one to give away (auxiliary terms are added to it).
    """

    if not banned.issubset(query.binding_vars()):
        return None
    if cc is None:
        cc = build_congruence(query)

    # Rewrite the output to avoid the removed variables (condition (2)).
    new_output = _rewrite_output(query.output, cc, banned)
    if new_output is None:
        return None

    # Re-source dependent bindings; drop the removed ones.
    new_bindings: List[Binding] = []
    for binding in query.bindings:
        if binding.var in banned:
            continue
        source = binding.source
        if source._fvs & banned:
            source = cc.equivalent_avoiding(source, banned)
            if source is None:
                return None
        new_bindings.append(Binding(binding.var, source))

    surviving_vars = {b.var for b in new_bindings}
    new_conditions = _surviving_conditions(cc, banned, surviving_vars)

    candidate = PCQuery(new_output, tuple(new_bindings), tuple(new_conditions))
    try:
        candidate = toposort_bindings(candidate)
    except BackchaseError:
        return None
    candidate = quick_simplify_conditions(candidate)
    candidate.validate()
    return candidate


def accept_candidate(
    candidate: PCQuery,
    parent: PCQuery,
    engine: ChaseEngine,
    key: Optional[Tuple[str, str]] = None,
    accepted: Iterable[PCQuery] = (),
    refuted: Optional[List[PCQuery]] = None,
) -> bool:
    """Is ``candidate`` (built from ``parent``) an acceptable backchase step?

    Condition (3): equivalence under the dependencies, decided by chase +
    containment mappings.  The direction parent ⊑ candidate holds by
    construction — the candidate's bindings, conditions and output are all
    congruent images of the parent's own, so the identity is a containment
    mapping (``tests/test_backchase_differential.py`` re-decides it with the
    chase for every accepted pair of the workload searches).  Only
    candidate ⊑ parent needs the chase; ``key`` names the cache entry that
    verdict is stored under (default: the (candidate, parent) pair).  An
    equivalent candidate must also keep every failing lookup safe.

    ``accepted``: subqueries already accepted as equivalent to ``parent``,
    under the candidate's variable names.  A candidate that still contains
    one binding for binding is contained in it, hence in ``parent``, and is
    not chased (module docstring).  ``refuted``: the candidates condition
    (3) rejected so far (the dual); a rejected candidate is appended.
    Where the chase does not terminate, a *True* supplied before the step
    bound — by ``accepted`` or a mapping the chase reaches — is decided;
    every *False* still raises :class:`~repro.errors.ChaseNonTermination`.
    """

    if not engine.contained_in(
        candidate, parent, key=key, accepted=accepted, refuted=refuted or ()
    ):
        if refuted is not None:
            refuted.append(candidate)
        return False
    return plan_lookups_safe(candidate, engine)


def try_remove_binding(
    query: PCQuery,
    var: str,
    deps: Sequence[EPCD],
    engine: Optional[ChaseEngine] = None,
    check: bool = True,
    stats: Optional["BackchaseStats"] = None,
) -> Optional[PCQuery]:
    """One backchase step: remove binding ``var`` if conditions (1)-(3) hold.

    Returns the reduced (simplified, reordered) query, or ``None`` when the
    step does not apply.  ``check=False`` skips the (expensive) condition
    (3) equivalence test — used by tests that verify the check separately.
    """

    engine = engine or ChaseEngine(list(deps))
    candidate = build_candidate(query, frozenset((var,)))
    if candidate is None:
        return None
    if stats is not None:
        stats.candidates_explored += 1
    if check and not accept_candidate(candidate, query, engine):
        return None
    return candidate


@dataclass
class BackchaseStats:
    """Instrumentation for the enumeration (used by benchmarks).

    Every counter is monotone non-decreasing over the lifetime of the
    object: searches only ever add to them, so a stats instance can be
    threaded through several enumerations to accumulate totals.

    * ``candidates_explored`` — candidate subqueries constructed and
      considered (conditions (1)-(2) succeeded);
    * ``candidates_pruned`` — branches cut by the cost bound before
      expansion (pruned strategy only);
    * ``cache_hits`` / ``cache_misses`` — containment-cache traffic
      observed by this search (condition (3) verdicts reused vs computed).
    """

    nodes_visited: int = 0
    steps_attempted: int = 0
    steps_applied: int = 0
    normal_forms: int = 0
    candidates_explored: int = 0
    candidates_pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "nodes_visited": self.nodes_visited,
            "steps_attempted": self.steps_attempted,
            "steps_applied": self.steps_applied,
            "normal_forms": self.normal_forms,
            "candidates_explored": self.candidates_explored,
            "candidates_pruned": self.candidates_pruned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


PlanCost = Callable[[PCQuery], Optional[float]]
CostFloor = Callable[[PCQuery], float]


def minimal_subqueries(
    query: PCQuery,
    deps: Optional[Sequence[EPCD]] = None,
    engine: Optional[ChaseEngine] = None,
    max_nodes: int = 10_000,
    stats: Optional[BackchaseStats] = None,
    strategy: str = "full",
    context=None,
    statistics: Optional[Statistics] = None,
    cost_model: Optional[CostModel] = None,
    plan_cost: Optional[PlanCost] = None,
    cost_floor: Optional[CostFloor] = None,
) -> List[PCQuery]:
    """Normal forms of backchasing ``query``.

    One memoized depth-first search over backchase sequences.  With
    ``strategy="full"`` (the default here) it runs unbounded and returns
    *all* normal forms — exactly the minimal equivalent subqueries
    (Theorem 2).  With ``strategy="pruned"`` (what the :class:`Optimizer`
    defaults to) the same search is cost-bounded: ``plan_cost`` maps a
    complete plan (normal form) to the cost the caller will rank it by, or
    ``None`` when the plan cannot win (ineligible); ``cost_floor`` maps any
    node to a lower bound on ``plan_cost`` over the node's whole subtree;
    the defaults use :func:`estimate_cost` / :func:`plan_cost_floor` with
    the ``statistics`` / ``cost_model`` catalog.  The bounded run returns a
    subset of the unbounded run's normal forms that always contains one of
    minimal eligible cost.  Those four options are rejected for the full
    strategy.  Deterministic output order either way (by size, then
    canonical text).

    ``context`` (an :class:`~repro.api.context.OptimizeContext`) supplies
    defaults in one value: the constraint set when ``deps`` is omitted,
    and — for the pruned search — ``statistics`` / ``cost_model`` when
    not given explicitly.  (``strategy`` stays an explicit argument: this
    function's default is ``"full"`` for Theorem 2 completeness, which
    deliberately differs from the optimizer's.)
    """

    if deps is None and context is not None:
        deps = list(context.constraints)
    if deps is None:
        raise BackchaseError(
            "minimal_subqueries needs a constraint set: pass deps or context"
        )
    if strategy == "pruned":
        if context is not None:
            statistics = context.statistics if statistics is None else statistics
            cost_model = context.cost_model if cost_model is None else cost_model
        catalog = statistics or Statistics()
        model = cost_model or CostModel()
        if plan_cost is None:
            plan_cost = lambda q: estimate_cost(q, catalog, model)  # noqa: E731
        if cost_floor is None:
            cost_floor = lambda q: plan_cost_floor(q, catalog, model)  # noqa: E731
    elif strategy == "full":
        bound_options = dict(
            statistics=statistics,
            cost_model=cost_model,
            plan_cost=plan_cost,
            cost_floor=cost_floor,
        )
        given = sorted(k for k, v in bound_options.items() if v is not None)
        if given:
            raise BackchaseError(
                f"options {given} apply only to strategy='pruned'"
            )
        # The bound switched off: no complete plan ever sets it, and no
        # floor is computed for nodes nobody will compare.
        plan_cost = lambda q: None  # noqa: E731
        cost_floor = lambda q: 0.0  # noqa: E731
    else:
        raise BackchaseError(
            f"unknown backchase strategy {strategy!r} (expected 'full' or 'pruned')"
        )

    engine = engine or ChaseEngine(list(deps))
    stats = stats if stats is not None else BackchaseStats()
    cache_hits0 = engine.containment.hits
    cache_misses0 = engine.containment.misses

    root = quick_simplify_conditions(query)
    root_key = root.canonical_key()

    # Per-search acceptance memo, in front of the engine's (bounded, LRU)
    # containment cache.  Every node of the search is equivalent to the
    # root, so a candidate's verdict depends on the candidate alone: it is
    # decided against the *parent* (whose binding list is as small as the
    # candidate's — matching the full root every time would cost an order
    # of magnitude more per miss), cached in the engine under the
    # (candidate, root) pair, and remembered here whole — containment and
    # lookup safety — per shape.  The same shape is re-derived along many
    # removal orders and the engine cache may evict mid-search; without
    # this layer an evicted shape would be *recomputed* and its probe
    # counted as a second miss.  Bounded by the node budget.
    verdicts: Dict[str, bool] = {}
    memo_hits = 0

    # antichain of minimal accepted binding-variable sets -> subquery
    accepted: Dict[FrozenSet[str], PCQuery] = {}
    refuted: List[PCQuery] = []  # what condition (3) rejected
    # one canonical key per syntactic shape (most candidates repeat one)
    keys: Dict[Tuple, str] = {}

    # Each shape's closure is built once, kept on its first candidate while
    # a reader may come — its subsumption test, its floor, its node's
    # removals, the refutation of later candidates (``query_congruence``) —
    # and dropped after: only the queued nodes and the refuted keep one.
    holders: Dict[int, PCQuery] = {}

    def keep_congruence(q: PCQuery) -> None:
        object.__setattr__(q, "_congruence", build_congruence(q))
        holders[id(q)] = q

    def drop_congruence(q: PCQuery) -> None:
        del q.__dict__["_congruence"], holders[id(q)]

    try:
        keep_congruence(root)
        best: Optional[float] = None
        # Every shape ever queued, with its bound: a shape is queued (hence
        # visited) at most once.
        floors: Dict[str, float] = {root_key: cost_floor(root)}
        normal_forms: List[PCQuery] = []
        stack: List[Tuple[str, PCQuery]] = [(root_key, root)]

        while stack:
            current_key, current = stack.pop()
            if best is not None and floors[current_key] > best:
                # The bound tightened since this node was queued.
                stats.candidates_pruned += 1
                drop_congruence(current)
                continue
            stats.nodes_visited += 1
            if stats.nodes_visited > max_nodes:
                raise BackchaseError(f"backchase search exceeded {max_nodes} nodes")

            reduced_any = False
            children: List[Tuple[float, str, PCQuery]] = []
            cc = query_congruence(current)  # each removal works on a copy
            for var in current.binding_vars():
                stats.steps_attempted += 1
                candidate = build_candidate(current, frozenset((var,)), cc.copy())
                if candidate is None:
                    continue
                stats.candidates_explored += 1
                shape = (
                    candidate.output,
                    tuple([(b.var, b.source) for b in candidate.bindings]),
                    tuple([(c.left, c.right) for c in candidate.conditions]),
                )
                ckey = keys.get(shape)
                if ckey is None:
                    ckey = keys[shape] = candidate.canonical_key()
                verdict = verdicts.get(ckey)
                if verdict is None:
                    keep_congruence(candidate)
                    verdict = verdicts[ckey] = accept_candidate(
                        candidate, current, engine, (ckey, root_key),
                        accepted.values(), refuted,
                    )
                    if not verdict and not (refuted and refuted[-1] is candidate):
                        drop_congruence(candidate)  # rejected as lookup-unsafe
                else:
                    memo_hits += 1
                if not verdict:
                    continue
                names = frozenset(candidate.binding_vars())
                if not any(kept <= names for kept in accepted):
                    accepted = {k: a for k, a in accepted.items() if not names < k}
                    accepted[names] = candidate
                stats.steps_applied += 1
                reduced_any = True
                if ckey in floors:
                    continue
                floor = cost_floor(candidate)
                floors[ckey] = floor
                if best is not None and floor > best:
                    stats.candidates_pruned += 1
                    drop_congruence(candidate)
                    continue
                children.append((floor, ckey, candidate))
            drop_congruence(current)

            if not reduced_any:
                normal_forms.append(current)
                stats.normal_forms += 1
                cost = plan_cost(current)
                if cost is not None and (best is None or cost < best):
                    best = cost
            else:
                # Most promising child on top of the stack: depth-first toward
                # cheap complete plans tightens the bound early.
                children.sort(key=lambda entry: (-entry[0], entry[1]))
                for _, ckey, child in children:
                    stack.append((ckey, child))
    finally:
        for q in list(holders.values()):
            drop_congruence(q)

    # Verdicts reused = engine-cache hits + memo hits; verdicts computed =
    # engine-cache misses.  With the memo in front, each distinct candidate
    # shape probes the engine cache exactly once per search, so the miss
    # count cannot double-count an evicted-and-re-derived shape.
    stats.cache_hits += engine.containment.hits - cache_hits0 + memo_hits
    stats.cache_misses += engine.containment.misses - cache_misses0
    normal_forms.sort(key=lambda q: (len(q.bindings), q.canonical_key()))
    return normal_forms


def is_minimal(
    query: PCQuery, deps: Sequence[EPCD], engine: Optional[ChaseEngine] = None
) -> bool:
    """No strict equivalent subquery exists (section 3's minimality)."""

    engine = engine or ChaseEngine(list(deps))
    return all(
        try_remove_binding(query, var, deps, engine) is None
        for var in query.binding_vars()
    )
