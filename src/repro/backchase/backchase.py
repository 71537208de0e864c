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

* each node carries a **lower bound** on the cost of every subquery
  reachable from it, its own normalized and refined variants included —
  its floor terms (:func:`~repro.optimizer.cost.floor_terms`) priced under
  the search's catalog (:func:`~repro.optimizer.cost.floor_pricer`); a
  branch whose bound exceeds the best complete plan is never expanded;
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
The pruned search also builds each **accepted binding set once**: a
removal that lands on a set of binding variables some spelling was
already accepted over reuses that node instead of building another
spelling of it.  Only an accepted spelling settles its set — two spellings
of one set may differ in lookup safety — and ``full`` keeps every spelling,
so its normal forms stay all of Theorem 2's.

And the chase runs only when nothing cheaper decides.  Candidates keep the
root's variable names; the search keeps the **antichain of minimal accepted
binding-variable sets**, each with its subquery ``A``.  A candidate ``C``
covering ``A`` is first tested for the identity containment mapping
``A → C`` in ``C``'s own closure.  If it holds, ``C ⊑ A`` on every instance
(the homomorphism theorem condition (3) generalizes; no dependency
involved) and ``A ⊑ root`` was decided when ``A`` was accepted: sound by
construction, and the chase's own verdict since the chase is complete.
Otherwise ``C`` is chased as before — subsumption only ever turns a
chase into *True*, and ``plan_lookups_safe`` still runs on everything
accepted.  Likewise each candidate's closure is built once per search and
shared by its subsumption test, its floor and its node's removals (on
copies).
The dual keeps what condition (3) rejected: a ``C`` into which a rejected
``R`` maps by the identity is rejected unchased (``R ⊑ C``, so ``C ⊑ root``
would give ``R ⊑ root``).  What is still chased stops once answered.

The same holds for failing-lookup safety: a scope (the bindings and fired
conditions a lookup evaluates under) is first cut down to the part linked
to the key — what shares a variable or a constant with it, transitively —
when the dependencies are separable, and that part is chased only when
neither the memo, nor the syntactic ``dom`` guard, nor the parts already
chased for that lookup decide it.  *Witnessed* — some ``dom``-bound
variable of the chased scope is congruent to the key — is monotone in the
scope, so it carries from a proved scope to every larger one and its
absence to every smaller one; *occurs* — the key is written in the chased
scope — is not, so a larger scope inherits *safe* only when the key occurs
in it as given.  The part's verdict and the inferred one are the chased
verdict of the whole scope, never an approximation (the comment block
below and ``tests/test_chase_differential.py`` have the traps).

A removal is a fact of the shape, too.  Conditions (1)-(2) rewrite through
the where clause's closure: they read no statistic, no instance and no
dependency, and they compare constants only for equality, so the candidate
a removal yields is generic in the root's constants just as its verdict
is.  Every search therefore keeps, beside the verdicts, the root's
**removal graph**: per node (its key and its binding variables, so one
canonical shape spelled over other variables is another node) and removed
binding, either "fails syntactically", the rejected child's key, or the
accepted child's node, spelled with the root's constants written as their
markers.  A removal not recorded yet is built, decided and recorded; every
step is then read off its edge, so a later search of the shape replays an
earlier one's removal instead of building it: a rejected child needs its
key alone, an accepted one already queued nothing, and a new one is the
spelling with this root's constants written back.  A verdict store's entry
keeps the graph for later searches; a search without a store records into
a private entry, dropped with it.

A floor is a fact of the shape, too.  Its closure half
(:func:`~repro.optimizer.cost.floor_terms`: ground-term counts per class,
the statistic each groundable source would read) reads no catalog and
compares constants only for equality; only its pricing
(:func:`~repro.optimizer.cost.floor_value`) reads the statistics.  So a
node of the removal graph keeps its terms, recorded the first time its
floor is computed, and a later search prices them under its own catalog
— a refresh of the statistics or a skew variant's adjusted ones share
the store.  Such a search spells a replayed node back with its own
constants, and builds its closure, only when a reader comes: a removal
not recorded yet, a condition-(3) verdict that reads the antichain, or
its costing as a normal form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Mapping
from typing import NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.chase.chase import ChaseEngine, linked_parts, links
from repro.chase.congruence import CongruenceClosure, build_congruence, query_congruence
from repro.constraints.epcd import EPCD
from repro.errors import BackchaseError
from repro.lru import LRU
from repro.optimizer.cost import CostModel, FloorTerms, estimate_cost, floor_pricer
from repro.optimizer.cost import floor_terms
from repro.optimizer.statistics import Statistics
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.query.paths import Const, Dom, Lookup, Param, Path, SName, Var


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
#
# A question the memo and the guard leave open is cut down to the key's
# part of its scope when the engine's dependencies are *separable*
# (``ChaseEngine.separable``).  Two items of a scope are linked when they
# share a variable or a constant (a binding has its variable and its
# source's, a condition both sides'); the part asked about is what the
# variables and constants of the key and the dictionary reach.  Separable
# dependencies mention no constant, have a variable on every condition
# side, and are connected: the premise alone, and the premise with the
# conclusion.  No term of one part is congruent to a term of another (only
# a shared variable or constant, or a schema term equated as a whole, could
# make one so), so a premise match lies inside one part, its conclusion is
# witnessed in that part or nowhere, and what a step writes links to that
# part alone.  So the chase of the scope, restricted to the key's part, is
# the chase of the part — the same steps in the same order — and the
# witness, the occurring key and the goal-stopped verdict are the same in
# both.  A condition side of the scope with neither variable nor constant
# (``r.S = G``) links everything that reads ``G``: such a scope is taken
# whole.  An empty part has no binding, and the guard calls it unsafe:
# nothing can produce the key.  The memo and the guard are asked under the
# scope, then under the part; inference and the chase see the part, and
# the verdict is stored under both keys.


class _Scope:
    """The bindings in scope and the conditions fired where lookups evaluate."""

    def __init__(self, prefix: Tuple[Binding, ...], conditions: Tuple[Eq, ...]):
        self.prefix, self.conditions = prefix, conditions

    @cached_property
    def items(self) -> FrozenSet:
        """Both as one set (scope ⊆ scope is ``<=``), built when inference
        first asks: the memo and the guard serve most evaluation points."""

        return frozenset(self.prefix + self.conditions)

    @cached_property
    def parts(self):
        """:func:`linked_parts` of the scope, split once for all the lookups
        that miss the memo here."""

        return linked_parts(self.prefix, self.conditions)

    def component(self, lookup: Lookup) -> "_Scope":
        """The part of the scope linked to the variables and constants of
        ``lookup``'s dictionary and key (the whole scope if it has no parts:
        a condition side without a link)."""

        if self.parts is None:
            return self
        part_of, parts = self.parts
        wanted = {
            part_of[atom]
            for atom in links(lookup.base) | links(lookup.key)
            if atom in part_of
        }
        if len(wanted) == len(set(parts)):
            return self
        n = len(self.prefix)
        return _Scope(
            tuple(b for b, part in zip(self.prefix, parts) if part in wanted),
            tuple(c for c, part in zip(self.conditions, parts[n:]) if part in wanted),
        )


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
    cheapest of: the syntactic guard, then — on the part of the scope linked
    to the key and the dictionary when the dependencies are separable
    (:func:`_decide_part`, the comment block above) — the memo and the
    guard again, inference from the parts already chased for this lookup,
    the part's own chase (``engine.lookup_decisions`` counts which).  The
    part's chase counts only the part's steps toward ``max_steps``, so the
    reduction can turn a :class:`ChaseNonTermination` into a verdict, never
    the reverse.  ``scope``: ``prefix`` and ``conditions`` again, from a
    caller that asks about several lookups at one evaluation point.
    """

    memo_key = (lookup, prefix, conditions)
    verdict, how = engine.lookup_safety.get(memo_key), "memo"
    if verdict is None:
        verdict, how = _guard_verdict(lookup, prefix), "guard"
        if verdict is None:
            scope = scope or _Scope(prefix, conditions)
            verdict, how = _decide_part(lookup, scope, engine)
        engine.lookup_safety[memo_key] = verdict
    engine.lookup_decisions[how] += 1
    return verdict


def _decide_part(lookup: Lookup, scope: _Scope, engine: ChaseEngine):
    """The verdict on a scope neither the memo nor the guard decides, and
    how it was reached, on the key's part of the scope when the engine's
    dependencies are separable (the whole scope otherwise): the memo
    again, the guard (an empty part is unsafe), inference from the parts
    already chased for this lookup, or the part's own chase.  Remembered
    under the part."""

    part = scope.component(lookup) if engine.separable else scope
    part_key = (lookup, part.prefix, part.conditions)
    verdict, how = engine.lookup_safety.get(part_key), "memo"
    if verdict is None:
        verdict, how = _guard_verdict(lookup, part.prefix), "guard"
    if verdict is None:
        # Proofs carry over only where a witness is spelled ``dom(...)``:
        # nowhere is a dom term equated as a whole.
        proofs = None
        if not engine.equates_dom and not any(
            isinstance(side, Dom) for c in part.conditions for side in (c.left, c.right)
        ):
            proofs = engine.lookup_proofs.setdefault(lookup, ([], []))
            verdict, how = _infer_lookup_safe(lookup, part, proofs), "inferred"
        if verdict is None:
            witnessed, occurs = _decide_lookup_safe(
                lookup, part.prefix, part.conditions, engine
            )
            verdict, how = witnessed and occurs, "chased"
            if proofs is not None:
                _remember(proofs, part.items, witnessed)
    engine.lookup_safety[part_key] = verdict
    return verdict, how


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


def _smallest_first(cond: Eq) -> Tuple[int, Tuple[str, str]]:
    """The order :func:`quick_simplify_conditions` leaves conditions in."""

    return cond.left._size + cond.right._size, cond.key()


def quick_simplify_conditions(query: PCQuery) -> PCQuery:
    """One-pass simplification for the hot enumeration path.

    Sorts conditions smallest-first so residues like ``M[x] = M[y]`` are
    processed after (and eliminated by) their generators ``x = y``; not
    guaranteed minimal, but deterministic and two orders of magnitude
    cheaper than the fixpoint version.
    """

    ordered = sorted(
        (c.normalized() for c in query.conditions if c.left != c.right),
        key=_smallest_first,
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
    candidate ⊑ parent needs the chase, and the engine decides it once per
    call (:meth:`~repro.chase.chase.ChaseEngine.contained_in`):
    remembering verdicts is the caller's (the search's memo).  An
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

    if not engine.contained_in(candidate, parent, accepted, refuted or ()):
        if refuted is not None:
            refuted.append(candidate)
        return False
    return plan_lookups_safe(candidate, engine)


# -- the search's key: a shape up to its constants ----------------------------
#
# A verdict reads no statistic, no cost and no instance, and the chase and
# the homomorphism search compare constants only for equality (the
# closure's clash test by value).  So an injective renaming of a query's
# constants that keeps every constant a dependency mentions, and every
# equality between two constants, renames each verdict's question without
# changing its answer: genericity, as in Chandra–Merlin containment.  The
# search therefore keys each shape by its canonical form with the root's
# constants written as markers, and the verdicts it keeps under one root
# serve every root that differs from it only in those constants.


_BLANK = Param("#")


def blind(path: Path, free: Optional[AbstractSet[Path]] = None) -> str:
    """``path``'s text with each constant in ``free`` (by default every
    constant) written as one placeholder, ``$#``: what orders conditions
    blind to the constants (:func:`constant_markers`' numbering,
    ``refine.prune_conditions``' drops), so two queries that differ only
    in those constants order them alike."""

    return P.transform(
        path, lambda t: _BLANK if type(t) is Const and (free is None or t in free) else t
    )._str


def constant_markers(query: PCQuery, kept: AbstractSet[Path]) -> Dict[Path, Path]:
    """The marker (``$#0``, ``$#1``, ...; no parsed ``$`` name starts with
    ``#``) each constant of ``query`` is keyed by, one per constant,
    numbered by first occurrence with the conditions ordered blind to the
    constants.  A constant stays literal
    when it is in ``kept`` (the constants the dependencies mention,
    ``ChaseEngine.constants``), when another constant of the query or of
    ``kept`` equals it without being it (``True`` beside ``1``), when it is
    not equal to itself (NaN), or when it is not a string or a number."""

    canon = query.canonical()
    own = {t for p in canon.all_paths() for t in P.subterms(p) if type(t) is Const}
    if not own:
        return {}
    by_value: Dict[object, int] = {}
    for c in own | kept:
        by_value[c.value] = by_value.get(c.value, 0) + 1
    free = {
        c
        for c in own - kept
        if type(c.value) in (str, int, float, bool)
        and c.value == c.value
        and by_value[c.value] == 1
    }
    if not free:
        return {}

    sides = [
        side
        for c in sorted(
            canon.conditions,
            key=lambda c: (sorted((blind(c.left, free), blind(c.right, free))), c.key()),
        )
        for side in sorted((c.left, c.right), key=lambda side: (blind(side, free), side._str))
    ]
    markers: Dict[Path, Path] = {}
    for path in [b.source for b in canon.bindings] + sides + list(canon.output.paths()):
        for t in P.subterms(path):
            if t in free and t not in markers:
                markers[t] = Param(f"#{len(markers)}")
    return markers


def _fields(part) -> Tuple:
    """What identifies an output, a binding or a condition: its paths (and
    names), each path interned."""

    if type(part) is Binding:
        return part.var, part.source
    if type(part) is Eq:
        return part.left, part.right
    return part.fields if type(part) is StructOutput else part.path


class ShapeKeys:
    """The key of each shape a search meets: its canonical key with each
    constant in ``markers`` written as its marker (the canonical key
    itself when it holds none).  One per search: the paths it rewrote
    are remembered, and most recur in every candidate — both ways, for
    :meth:`spell` and :meth:`unspell`."""

    def __init__(self, markers: Mapping[Path, Path]) -> None:
        self.markers = markers
        self._texts = [c._str for c in markers]
        self._marked: Dict[Path, Path] = {}
        self._constants = {marker: c for c, marker in markers.items()}
        self._unmarked: Dict[Path, Path] = {}
        # outputs, bindings and conditions spelled / unspelled so far
        self._spelt: Dict = {}
        self._unspelt: Dict = {}

    def _mark(self, path: Path) -> Path:
        marked = self._marked.get(path)
        if marked is None:
            marked = path
            # only a path whose text holds a constant's can hold it
            if any(text in path._str for text in self._texts):
                marked = P.transform(path, lambda t: self.markers.get(t, t))
            self._marked[path] = marked
        return marked

    def _unmark(self, path: Path) -> Path:
        unmarked = self._unmarked.get(path)
        if unmarked is None:
            unmarked = path
            if "$#" in path._str:
                unmarked = P.transform(path, lambda t: self._constants.get(t, t))
            self._unmarked[path] = unmarked
        return unmarked

    def _mark_eq(self, cond: Eq) -> Eq:
        left, right = self._mark(cond.left), self._mark(cond.right)
        if left is cond.left and right is cond.right:
            return cond
        return Eq(left, right).normalized()

    @staticmethod
    def _rewrite(
        query: PCQuery,
        rewrite: Callable[[Path], Path],
        memo: Dict,
        shared: Optional[Dict] = None,
    ) -> PCQuery:
        """``query`` with ``rewrite`` applied to every path.  Its output,
        each binding and each condition is rewritten once per ``memo``
        (keyed by its fields; kept as it is where no path changes) and,
        given ``shared``, stored there once; the conditions normalized
        and, where one changed, ordered as :func:`quick_simplify_conditions`
        orders them."""

        def store(key, new):
            if shared is not None:
                new = shared.setdefault(_fields(new), new)
            memo[key] = new
            return new

        output = query.output
        key = _fields(output)
        new_output = memo.get(key)
        if new_output is None:
            new_output = output
            if any(rewrite(p) is not p for p in output.paths()):
                if isinstance(output, StructOutput):
                    new_output = StructOutput(
                        tuple((n, rewrite(p)) for n, p in output.fields)
                    )
                else:
                    new_output = PathOutput(rewrite(output.path))
            new_output = store(key, new_output)
        bindings = []
        for b in query.bindings:
            key = (b.var, b.source)
            new = memo.get(key)
            if new is None:
                source = rewrite(b.source)
                new = store(key, b if source is b.source else Binding(b.var, source))
            bindings.append(new)
        conditions, moved = [], False
        for c in query.conditions:
            key = (c.left, c.right)
            new = memo.get(key)
            if new is None:
                left, right = rewrite(c.left), rewrite(c.right)
                same = left is c.left and right is c.right
                new = store(key, c if same else Eq(left, right).normalized())
            moved = moved or new.left is not c.left or new.right is not c.right
            conditions.append(new)
        if moved:
            conditions.sort(key=_smallest_first)
        return PCQuery(new_output, tuple(bindings), tuple(conditions))

    def spell(self, query: PCQuery, shared: Dict) -> PCQuery:
        """``query`` — a candidate, its conditions as
        :func:`quick_simplify_conditions` leaves them — with each constant
        in ``markers`` written as its marker: not renamed, and the same
        for every root that differs from this one only in those
        constants.  Its parts are stored once in ``shared``."""

        return self._rewrite(query, self._mark, self._spelt, shared)

    def unspell(self, spelling: PCQuery) -> PCQuery:
        """The inverse of :meth:`spell` under this root's constants: a
        new query, exactly the candidate ``build_candidate`` returns."""

        return self._rewrite(spelling, self._unmark, self._unspelt)

    def __call__(self, query: PCQuery) -> str:
        if not self.markers:
            return query.canonical_key()
        canon = query.canonical()
        mark = self._mark
        output, bindings, conditions = canon.output, canon.bindings, canon.conditions
        paths = output.paths()
        if any(mark(p) is not p for p in paths):
            if isinstance(output, StructOutput):
                output = StructOutput(tuple((n, mark(p)) for n, p in output.fields))
            else:
                output = PathOutput(mark(output.path))
        if any(mark(b.source) is not b.source for b in bindings):
            bindings = tuple(Binding(b.var, mark(b.source)) for b in bindings)
        if any(mark(c.left) is not c.left or mark(c.right) is not c.right for c in conditions):
            conditions = tuple(
                sorted((self._mark_eq(c) for c in conditions), key=Eq.key)
            )
        elif output is canon.output and bindings is canon.bindings:
            return query.canonical_key()
        return str(PCQuery(output, bindings, conditions))


class RemovalNode:
    """A node of a removal graph (module docstring): its shape key, its
    spelling's parts with the root's constants written as their markers
    (none for the root, which every search is given), its floor terms
    (:func:`~repro.optimizer.cost.floor_terms`, ``None`` until a search
    first computes its floor) and, per binding in order, what removing it
    yielded — ``None`` while not recorded, ``FAILS``, the rejected child's
    key, or the accepted child's node."""

    __slots__ = ("key", "output", "bindings", "conditions", "terms", "edges")

    def __init__(self, key: str, width: int, spelling: Optional[PCQuery] = None) -> None:
        self.key = key
        self.output = spelling.output if spelling else None
        self.bindings = spelling.bindings if spelling else ()
        self.conditions = spelling.conditions if spelling else ()
        self.terms: Optional[FloorTerms] = None
        self.edges: List[object] = [None] * width

    @property
    def spelling(self) -> Optional[PCQuery]:
        if self.output is None:
            return None
        return PCQuery(self.output, self.bindings, self.conditions)


class StoreEntry(NamedTuple):
    """One root's entry in a verdict store (:class:`RootVerdicts`)."""

    #: condition (3) with lookup safety per shape key, pruning per key pair
    verdicts: Dict
    #: the removal graph: (shape key, binding variables) -> its node
    removals: Dict[Tuple[str, Tuple[str, ...]], RemovalNode]
    #: every output, binding and condition the graph's spellings hold, and
    #: every node's floor terms, once
    parts: Dict


#: a recorded removal that fails syntactically (``build_candidate`` gave None)
FAILS = "fails syntactically"


class RootVerdicts:
    """The verdicts kept under one root, up to the root's constants.

    One dict, keyed by ``ShapeKeys`` under the root's one marker mapping:
    condition (3) with lookup safety per candidate shape (a key), and the
    containment verdicts step 3's condition pruning asks per (trial,
    reference) pair (a pair of keys: one injective renaming covers both
    sides).  Beside it the root's removal graph (``removals``; the module
    docstring).  Both live in a :class:`StoreEntry`: the search's own, or —
    given ``store``, an :class:`~repro.lru.LRU` — the store's entry for
    ``context``'s constraint fingerprint and the root's key, so a later
    search from a root that differs only in constants decides none of the
    verdicts again and builds no candidate an earlier one recorded.
    ``engine`` decides what the dict does not hold; it must chase with the
    context's constraint set, which keys the store.
    ``hits`` / ``misses`` count :meth:`contained_in`'s probes of the dict
    — the one memo of pair verdicts and its one counter.
    """

    def __init__(
        self,
        query: PCQuery,
        engine: ChaseEngine,
        context=None,
        store: Optional[LRU] = None,
    ) -> None:
        if store is not None and (
            context is None or engine.deps != list(context.constraints)
        ):
            raise BackchaseError(
                "a verdict store is keyed by the context's constraint set: "
                "pass context, and an engine that chases with it"
            )
        self.engine = engine
        self.root = quick_simplify_conditions(query)
        self.key_of = ShapeKeys(constant_markers(self.root, engine.constants))
        self.root_key = self.key_of(self.root)
        self.hits = self.misses = 0
        entry = None
        if store is not None:
            store_key = (context.constraints_fingerprint(), self.root_key)
            entry = store.get(store_key)
            if entry is None:
                entry = StoreEntry({}, {}, {})
                store.put(store_key, entry)
        self.memo, self.removals, self._parts = entry or StoreEntry({}, {}, {})

    def node(self, key: str, query: PCQuery) -> RemovalNode:
        """The removal graph's node of ``query`` — the root or a candidate
        of shape ``key`` — made on first sight.  A key and the binding
        variables spell one query (the canonical form renames by position),
        so that pair names the node, and a shape spelled over other
        variables is another node."""

        name = (key, query.binding_vars())
        node = self.removals.get(name)
        if node is None:
            spelling = None if query is self.root else self.key_of.spell(query, self._parts)
            node = self.removals[name] = RemovalNode(key, len(query.bindings), spelling)
        return node

    def floor_terms(self, node: RemovalNode, query: PCQuery) -> FloorTerms:
        """The floor terms of ``query``, the shape at ``node``: the node's,
        read off ``query``'s closure the first time and recorded (interned
        in the entry)."""

        if node.terms is None:
            terms = floor_terms(query)
            node.terms = self._parts.setdefault(terms, terms)
        return node.terms

    def contained_in(self, q1: PCQuery, q2: PCQuery) -> bool:
        """``q1 ⊑ q2`` (shapes of this root's search), decided by the
        engine on the real pair and remembered here under the pair's keys."""

        key = (self.key_of(q1), self.key_of(q2))
        verdict = self.memo.get(key)
        if verdict is None:
            self.misses += 1
            verdict = self.memo[key] = self.engine.contained_in(q1, q2)
        else:
            self.hits += 1
        return verdict


@dataclass
class BackchaseStats:
    """Instrumentation for the enumeration (used by benchmarks).

    Every counter is monotone non-decreasing over the lifetime of the
    object: searches only ever add to them, so a stats instance can be
    threaded through several enumerations to accumulate totals.

    * ``steps_attempted`` / ``steps_applied`` — removals tried / accepted,
      a removal onto an accepted binding set the pruned search reuses
      included;
    * ``candidates_explored`` — candidate subqueries considered
      (conditions (1)-(2) succeeded), built or replayed; a reused binding
      set is not considered again;
    * ``candidates_replayed`` — of those, the ones read off the removal
      graph of the search's verdict-store entry instead of built (a
      later request of a shape replays every removal its first recorded);
    * ``candidates_pruned`` — branches cut by the cost bound before
      expansion (pruned strategy only);
    * ``cache_hits`` / ``cache_misses`` — condition (3) verdicts reused
      vs computed in this search: the memo (one verdict per candidate
      shape, a reused binding set or a verdict an earlier search stored
      counting as a hit) plus the pair verdicts the search's
      :class:`RootVerdicts` served and decided by the end of the search
      (the pruned coster's ``prune_conditions``, whose pairs an earlier
      search stored count as hits too).
    """

    nodes_visited: int = 0
    steps_attempted: int = 0
    steps_applied: int = 0
    normal_forms: int = 0
    candidates_explored: int = 0
    candidates_pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    candidates_replayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


PlanCost = Callable[[PCQuery], Optional[float]]


def minimal_subqueries(
    root: Union[PCQuery, RootVerdicts],
    deps: Optional[Sequence[EPCD]] = None,
    max_nodes: int = 10_000,
    stats: Optional[BackchaseStats] = None,
    strategy: str = "full",
    statistics: Optional[Statistics] = None,
    cost_model: Optional[CostModel] = None,
    plan_cost: Optional[PlanCost] = None,
) -> List[PCQuery]:
    """Normal forms of backchasing ``root``.

    ``root`` is the query with its constraint set ``deps`` — the search
    then keeps its verdicts and its removal graph in a fresh
    :class:`RootVerdicts` of its own, with a fresh engine — or the
    :class:`RootVerdicts` of the query, which already carries both: its
    engine chases with the constraint set, and a verdict store's entry
    holds the removal graph the search replays and extends (the
    :class:`Optimizer` builds one per optimize, and its coster prunes
    conditions through the same verdicts).  Never both: ``deps`` goes
    only with a bare query.

    One memoized depth-first search over backchase sequences.  With
    ``strategy="full"`` (the default here) it runs unbounded and returns
    *all* normal forms — exactly the minimal equivalent subqueries
    (Theorem 2).  With ``strategy="pruned"`` (what the :class:`Optimizer`
    defaults to) the same search is cost-bounded: ``plan_cost`` maps a
    complete plan (normal form) to the cost the caller will rank it by, or
    ``None`` when the plan cannot win (ineligible), by default
    :func:`estimate_cost` with the ``statistics`` / ``cost_model``
    catalog; each node's lower bound on ``plan_cost`` over its whole
    subtree is its :func:`~repro.optimizer.cost.floor_terms` priced under
    the same catalog (:func:`~repro.optimizer.cost.floor_pricer`).  The
    bounded run returns a subset of the unbounded run's normal forms that
    always contains one of minimal eligible cost.  ``statistics``,
    ``cost_model`` and ``plan_cost`` are rejected for the full strategy.
    Deterministic output order either way (by size, then canonical text).
    This function's default strategy is ``"full"`` for Theorem 2
    completeness, which deliberately differs from the optimizer's.
    """

    if isinstance(root, RootVerdicts):
        if deps is not None:
            raise BackchaseError(
                "these verdicts carry their constraint set: pass deps only "
                "with a bare query"
            )
    elif deps is None:
        raise BackchaseError(
            "minimal_subqueries needs a constraint set: pass deps with a "
            "bare query"
        )
    price: Optional[Callable[[FloorTerms], float]] = None
    if strategy == "pruned":
        catalog = statistics or Statistics()
        model = cost_model or CostModel()
        if plan_cost is None:
            plan_cost = lambda q: estimate_cost(q, catalog, model)  # noqa: E731
        price = floor_pricer(catalog, model)
    elif strategy == "full":
        bound_options = dict(
            statistics=statistics,
            cost_model=cost_model,
            plan_cost=plan_cost,
        )
        given = sorted(k for k, v in bound_options.items() if v is not None)
        if given:
            raise BackchaseError(
                f"options {given} apply only to strategy='pruned'"
            )
        # The bound switched off: no complete plan ever sets it, and no
        # floor is computed for nodes nobody will compare.
        plan_cost = lambda q: None  # noqa: E731
    else:
        raise BackchaseError(
            f"unknown backchase strategy {strategy!r} (expected 'full' or 'pruned')"
        )

    verdicts = (
        root if deps is None else RootVerdicts(root, ChaseEngine(list(deps)))
    )
    engine = verdicts.engine
    stats = stats if stats is not None else BackchaseStats()

    # Every shape is keyed up to the root's constants.
    root, key_of, root_key = verdicts.root, verdicts.key_of, verdicts.root_key

    # The acceptance memo, the one store of the search's verdicts.  Every
    # node of the search is equivalent to the root, so a candidate's
    # verdict depends on the candidate alone: it is decided against the
    # *parent* (whose binding list is as small as the candidate's —
    # matching the full root every time would cost an order of magnitude
    # more per verdict) and remembered here whole — containment and
    # lookup safety — per shape, however many removal orders re-derive
    # it.  Bounded by the node budget; with a store, it is the root's
    # entry's, shared with every search from the same root up to constants.
    memo = verdicts.memo
    memo_hits = computed = 0

    # antichain of minimal accepted binding-variable sets -> subquery, or
    # the replayed node that spells it until a verdict needs the subquery
    accepted: Dict[FrozenSet[str], object] = {}
    refuted: List[PCQuery] = []  # what condition (3) rejected
    # one canonical key per syntactic shape (most candidates repeat one)
    keys: Dict[Tuple, str] = {}

    def antichain() -> Iterable[PCQuery]:
        """The antichain's subqueries, each replayed node spelled with this
        root's constants once a verdict reads it."""

        for names, sub in accepted.items():
            if type(sub) is RemovalNode:
                accepted[names] = key_of.unspell(sub.spelling)
        return accepted.values()

    # Each shape's closure is built once, kept on its first candidate while
    # a reader may come — its subsumption test, its floor, its node's
    # removals, the refutation of later candidates (``query_congruence``) —
    # and dropped after: only the queued nodes and the refuted keep one.  A
    # node replayed from the removal graph gets its query and its closure
    # only when a reader comes: a removal not recorded yet, a floor whose
    # terms are not, or its costing as a normal form (its query alone).
    holders: Dict[int, PCQuery] = {}

    def keep_congruence(q: PCQuery) -> None:
        if id(q) not in holders:
            object.__setattr__(q, "_congruence", build_congruence(q))
            holders[id(q)] = q

    def drop_congruence(q: Optional[PCQuery]) -> None:
        if q is not None and holders.pop(id(q), None) is not None:
            del q.__dict__["_congruence"]

    def decide(candidate: PCQuery, parent: PCQuery) -> object:
        """The edge a built ``candidate`` of ``parent`` is recorded as: its
        node if condition (3) accepts it, else its key."""

        nonlocal memo_hits, computed
        stats.candidates_explored += 1
        shape = (
            candidate.output,
            tuple([(b.var, b.source) for b in candidate.bindings]),
            tuple([(c.left, c.right) for c in candidate.conditions]),
        )
        ckey = keys.get(shape)
        if ckey is None:
            ckey = keys[shape] = key_of(candidate)
        verdict = memo.get(ckey)
        if verdict is None:
            keep_congruence(candidate)
            verdict = memo[ckey] = accept_candidate(
                candidate, parent, engine, antichain(), refuted
            )
            computed += 1
            if not verdict and not (refuted and refuted[-1] is candidate):
                drop_congruence(candidate)  # rejected as lookup-unsafe
        else:
            memo_hits += 1
        return verdicts.node(ckey, candidate) if verdict else ckey

    def floor_of(q: Optional[PCQuery], node: RemovalNode) -> Tuple[float, PCQuery]:
        """The bound of the shape at ``node`` (``q``, if built): its
        recorded terms priced under this search's catalog, or else the
        terms read off ``q``'s closure — spelled back and kept first if
        need be — and recorded; and ``q`` as it now stands."""

        if price is None:
            return 0.0, q
        if node.terms is None:
            q = q or key_of.unspell(node.spelling)
            keep_congruence(q)
        return price(verdicts.floor_terms(node, q)), q

    try:
        keep_congruence(root)
        best: Optional[float] = None
        root_node = verdicts.node(root_key, root)
        # Every shape ever queued, with its bound: a shape is queued (hence
        # visited) at most once.
        floors: Dict[str, float] = {root_key: floor_of(root, root_node)[0]}
        normal_forms: List[PCQuery] = []
        # Each queued node — its query, ``None`` while a replayed node has
        # not needed one — with its node in the root's removal graph: what
        # each removal from it yielded, read and extended here (the module
        # docstring).
        stack: List[Tuple[str, Optional[PCQuery], RemovalNode]] = [
            (root_key, root, root_node)
        ]
        # Under the bound each binding set is built once: the first spelling
        # accepted over it settles it, and a removal landing on it later is
        # that node again — queued or cut already, its verdict *True*.  A
        # rejected spelling settles nothing (another may be lookup-safe), and
        # ``full`` keeps every spelling (Theorem 2).
        settled: Optional[Set[FrozenSet[str]]] = (
            set() if strategy == "pruned" else None
        )

        while stack:
            current_key, current, node = stack.pop()
            if best is not None and floors[current_key] > best:
                # The bound tightened since this node was queued.
                stats.candidates_pruned += 1
                drop_congruence(current)
                continue
            stats.nodes_visited += 1
            if stats.nodes_visited > max_nodes:
                raise BackchaseError(f"backchase search exceeded {max_nodes} nodes")

            reduced_any = False
            children: List[Tuple[float, str, Optional[PCQuery], RemovalNode]] = []
            cc = None  # the node's closure, once a removal is built from it
            names_here = [b.var for b in (current or node).bindings]
            bound_vars = frozenset(names_here)
            for i, var in enumerate(names_here):
                stats.steps_attempted += 1
                if settled is not None and bound_vars - {var} in settled:
                    memo_hits += 1
                    stats.steps_applied += 1
                    reduced_any = True
                    continue
                edge, candidate = node.edges[i], None
                if edge is None:
                    # not recorded yet: built, decided and recorded
                    if cc is None:
                        current = current or key_of.unspell(node.spelling)
                        keep_congruence(current)
                        cc = query_congruence(current)  # each removal works on a copy
                    candidate = build_candidate(current, frozenset((var,)), cc.copy())
                    edge = FAILS if candidate is None else decide(candidate, current)
                    node.edges[i] = edge
                elif edge is not FAILS:
                    # recorded by an earlier search: a rejected child's key,
                    # whose verdict the memo holds, or an accepted child's
                    # node, whose spelling is this root's candidate once the
                    # constants are written back
                    stats.candidates_explored += 1
                    stats.candidates_replayed += 1
                    memo_hits += 1
                if type(edge) is not RemovalNode:
                    continue  # fails syntactically, or rejected
                names = frozenset([b.var for b in edge.bindings])
                if settled is not None:
                    settled.add(names)
                if not any(kept <= names for kept in accepted):
                    accepted = {k: a for k, a in accepted.items() if not names < k}
                    accepted[names] = candidate or edge
                stats.steps_applied += 1
                reduced_any = True
                if edge.key in floors:
                    continue
                bound, candidate = floor_of(candidate, edge)
                floors[edge.key] = bound
                if best is not None and bound > best:
                    stats.candidates_pruned += 1
                    drop_congruence(candidate)
                    continue
                children.append((bound, edge.key, candidate, edge))
            drop_congruence(current)

            if not reduced_any:
                current = current or key_of.unspell(node.spelling)
                normal_forms.append(current)
                stats.normal_forms += 1
                cost = plan_cost(current)
                if cost is not None and (best is None or cost < best):
                    best = cost
            else:
                # Most promising child on top of the stack: depth-first toward
                # cheap complete plans tightens the bound early.
                children.sort(key=lambda entry: (-entry[0], entry[1]))
                for _, ckey, child, child_node in children:
                    stack.append((ckey, child, child_node))
    finally:
        for q in list(holders.values()):
            drop_congruence(q)

    stats.cache_hits += memo_hits + verdicts.hits
    stats.cache_misses += computed + verdicts.misses
    normal_forms.sort(key=lambda q: (len(q.bindings), q.canonical_key()))
    return normal_forms
