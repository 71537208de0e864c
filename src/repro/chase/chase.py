"""The chase: rewriting queries with EPCDs (section 3, phase 1).

A chase step with constraint ``forall(x̄ ∈ P̄) B1 → exists(ȳ ∈ Q̄) B2``
applies to query ``Q`` when there is a homomorphism ``h`` from the premise
into ``Q`` (sources matched up to congruence, ``h(B1)`` implied by the
where clause) such that the conclusion is *not* already satisfied (no
extension of ``h`` witnesses ``∃ȳ. B2``).  The step adds fresh bindings
``ȳ' ∈ h(Q̄)`` and conditions ``h(B2)`` — "new loops and conditions are
being added to the ones already existing in Q".

EGDs (no existential bindings) add their equality conclusions to the
where clause.

Chasing to a fixpoint with the constraints that characterize physical
structures yields the paper's **universal plan**.  The chase terminates
for full dependencies; a step bound guards arbitrary constraint sets.

One chase is one live state (:class:`ChaseState`): the query so far, its
congruence closure, and the triggers already found satisfied.  A step only
ever *adds* bindings and equalities, so the closure is extended in place
(the step's bindings added, its conditions merged) rather than rebuilt, a
trigger once satisfied is never proved again, and :class:`ChaseEngine`
hands the closure on to containment and lookup-safety checks.
Dependency order and the first-applicable-homomorphism rule are those of
the restart-and-rebuild loop this replaced; that loop survives as the
oracle of ``tests/test_chase_differential.py``.

Every question the optimizer asks of a chase is *monotone* — a mapping, a
``dom`` witness or an inconsistent closure found after step *i* is still
there at the fixpoint — so :meth:`ChaseEngine.chase` takes it as a ``goal``
and stops the query's live state where it holds.  A *False* needs the
fixpoint; a later question resumes the state, in the same step order.

A dependency scanned to "no applicable homomorphism" is *clean* and is
scanned again only if a step can have affected it ("check only what the
update can affect"): a new binding arrived in a class holding the head
symbol of one of its premise sources, or a union equated terms over the old
variables in a class holding the head of one of its premise subterms.  Both
tests compare head sets, so they only err toward rescanning, and the order
of dependencies and homomorphisms is untouched (:class:`ChaseState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple
from typing import Optional, Sequence, Set, Tuple

from repro.chase.congruence import CongruenceClosure, build_congruence, head
from repro.chase.homomorphism import Hom, Pattern
from repro.constraints.epcd import EPCD
from repro.errors import ChaseNonTermination
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PCQuery, fresh_var_namer
from repro.query.paths import Const, Dom, Param, Path, Var

DEFAULT_MAX_STEPS = 200

#: a monotone question asked of a chase's query and closure before each step
Goal = Callable[[PCQuery, CongruenceClosure], bool]


@dataclass
class ChaseStep:
    """A record of one applied chase step (for traces and tests)."""

    constraint: str
    hom: Dict[str, str]
    added_bindings: Tuple[Binding, ...]
    added_conditions: Tuple[Eq, ...]

    def __str__(self) -> str:
        mapping = ", ".join(f"{k}→{v}" for k, v in self.hom.items())
        return f"chase[{self.constraint}] with {{{mapping}}}"


@dataclass
class ChaseResult:
    """The chased query together with the step trace."""

    query: PCQuery
    steps: List[ChaseStep] = field(default_factory=list)
    #: the chase's own closure of ``query`` (plus the auxiliary terms
    #: matching looked at); ``None`` only for hand-built results
    congruence: Optional[CongruenceClosure] = None

    @property
    def universal_plan(self) -> PCQuery:
        return self.query


class _Matcher(NamedTuple):
    """One dependency as the chase reads it: both sides as patterns, the
    heads of the premise sources and of every premise subterm, whether
    its steps stay inside one part of a scope (:func:`_separable`), and
    the constants it mentions."""

    premise: Pattern
    conclusion: Pattern
    source_heads: FrozenSet
    vocabulary: FrozenSet
    separable: bool
    constants: FrozenSet


def _matcher(dep: EPCD) -> _Matcher:
    matcher = dep.__dict__.get("_matcher")
    if matcher is None:
        sources = [b.source for b in dep.premise_bindings]
        sides = [s for c in dep.premise_conditions for s in (c.left, c.right)]
        paths = _dependency_paths(dep)
        matcher = _Matcher(
            Pattern(dep.premise_bindings, dep.premise_conditions),
            Pattern(
                dep.conclusion_bindings, dep.conclusion_conditions, dep.universal_vars()
            ),
            frozenset(map(head, sources)),
            frozenset(head(t) for p in sources + sides for t in P.subterms(p)),
            _separable(dep, paths),
            frozenset(t for p in paths for t in P.subterms(p) if type(t) is Const),
        )
        object.__setattr__(dep, "_matcher", matcher)
    return matcher


def conclusion_satisfied(
    dep: EPCD, hom: Hom, query: PCQuery, cc: CongruenceClosure
) -> bool:
    """Is the conclusion of ``dep`` already witnessed in ``query`` under ``hom``?"""

    # (an EGD has no conclusion bindings: the extension is ``hom`` itself)
    witnesses = _matcher(dep).conclusion.match(query, cc, hom)
    return next(witnesses, None) is not None


def find_applicable_hom(
    dep: EPCD,
    query: PCQuery,
    cc: CongruenceClosure,
    satisfied: Optional[Set[Tuple[Path, ...]]] = None,
) -> Optional[Hom]:
    """First premise homomorphism whose conclusion is not yet satisfied.

    ``satisfied`` holds the images (premise-binding order) of the
    homomorphisms of ``dep`` already found satisfied in this chase; they
    are skipped and newly satisfied ones recorded.  Sound because a chase
    only adds bindings and equalities: a witness never disappears.
    """

    if satisfied is None:
        satisfied = set()
    for hom in _matcher(dep).premise.match(query, cc):
        image = tuple(hom[b.var] for b in dep.premise_bindings)
        if image in satisfied:
            continue
        if not conclusion_satisfied(dep, hom, query, cc):
            return hom
        satisfied.add(image)
    return None


def apply_chase_step(
    query: PCQuery, dep: EPCD, hom: Hom
) -> Tuple[PCQuery, ChaseStep]:
    """Apply one chase step (the rewrite displayed in section 3)."""

    namer = fresh_var_namer(query)
    extended: Hom = dict(hom)
    new_bindings: List[Binding] = []
    for binding in dep.conclusion_bindings:
        fresh = next(namer)
        source = P.substitute(binding.source, extended)
        extended[binding.var] = Var(fresh)
        new_bindings.append(Binding(fresh, source))
    new_conditions = tuple(
        Eq(P.substitute(c.left, extended), P.substitute(c.right, extended))
        for c in dep.conclusion_conditions
    )
    chased = query.with_bindings(new_bindings).with_fresh_conditions(new_conditions)
    step = ChaseStep(
        constraint=dep.name,
        hom={k: str(v) for k, v in hom.items()},
        added_bindings=tuple(new_bindings),
        added_conditions=new_conditions,
    )
    return chased, step


class ChaseState:
    """One chase in progress: the query so far, its congruence closure and,
    per dependency, the triggers already found satisfied and whether it is
    clean (scanned to "no applicable homomorphism", unaffected since).
    Each step extends all of them; nothing is rebuilt.  ``steps`` counts
    the steps applied, ``done`` says the fixpoint is reached."""

    def __init__(self, query: PCQuery, deps: Sequence[EPCD]) -> None:
        self.query = query
        self.deps = deps
        self.cc = build_congruence(query)
        self.matchers = [_matcher(dep) for dep in deps]
        self.satisfied: List[Set[Tuple[Path, ...]]] = [set() for _ in deps]
        self.clean = [False] * len(deps)
        self.steps = 0
        self.done = False

    def run(self, max_steps: int, goal: Optional[Goal] = None) -> List[ChaseStep]:
        """Step until ``goal`` holds (asked before every step) or the
        fixpoint, raising :class:`ChaseNonTermination` past ``max_steps``
        steps in all; return the steps this call applied."""

        taken: List[ChaseStep] = []
        while not self.done and not (goal and goal(self.query, self.cc)):
            if self.steps >= max_steps:
                raise ChaseNonTermination(
                    f"chase did not terminate within {max_steps} steps", max_steps
                )
            step = self.step()
            if step is None:
                self.done = True
                self.satisfied = self.clean = None  # nothing left to resume
            else:
                self.steps += 1
                taken.append(step)
        return taken

    def step(self) -> Optional[ChaseStep]:
        """Apply the first applicable chase step, or ``None`` at fixpoint.

        Deterministic: dependencies are tried in the given order (a clean
        one has nothing to apply and is passed over) and the first
        applicable homomorphism (target binding order) is applied.
        """

        for i, dep in enumerate(self.deps):
            if self.clean[i]:
                continue
            hom = find_applicable_hom(dep, self.query, self.cc, self.satisfied[i])
            if hom is None:
                self.clean[i] = True
                continue
            self.query, step = apply_chase_step(self.query, dep, hom)
            arrived, equated = self._extend_closure(step)
            self.clean = [
                clean
                and matcher.source_heads.isdisjoint(arrived)
                and matcher.vocabulary.isdisjoint(equated)
                for matcher, clean in zip(self.matchers, self.clean)
            ]
            return step
        return None

    # Why a clean dependency can be passed over.  Its old homomorphisms stay
    # satisfied, so it needs a new one, and a step offers two ways to one.
    # (a) A premise binding maps to a *new binding*: then the class of the
    # new binding's source holds a member with the head of that premise
    # source, since a term joins a class only by being in it or by
    # congruence with a member of the same head.  (b) Every premise binding
    # maps to an old one and a premise source or condition newly holds:
    # then a union equated two terms over the old variables, and the image
    # of some premise subterm lies in the united class — a head of the
    # class is a head of the premise.  Only a side made of the step's fresh
    # variables alone brings no old term to a union: a term *over* a fresh
    # variable may stand for an old one (``t.A`` for ``r.A`` once ``t = r``).

    def _extend_closure(self, step: ChaseStep) -> Tuple[Set, Set]:
        """Add the step's bindings and equalities to the closure; return
        the heads that ``arrived`` in the classes of the new bindings'
        sources and those of the classes where old terms were ``equated``."""

        cc = self.cc
        fresh = {Var(b.var) for b in step.added_bindings}
        # Every term first: one that lands in a class by congruence equates
        # nothing, and must not look like a union below.
        for binding in step.added_bindings:
            cc.add(Var(binding.var))
            cc.add(binding.source)
        for cond in step.added_conditions:
            cc.add(cond.left)
            cc.add(cond.right)
        equated: Set = set()

        def on_union(xs: Set[Path], ys: Set[Path]) -> None:
            if not (xs <= fresh or ys <= fresh):
                equated.update(map(head, xs), map(head, ys))

        cc.on_union = on_union
        for cond in step.added_conditions:
            cc.merge(cond.left, cond.right)
        cc.on_union = None
        arrived = {
            head(m) for b in step.added_bindings for m in cc.members(b.source)
        }
        return arrived, equated


def links(path: Path) -> Set[Path]:
    """The variables and constants of ``path`` (a parameter is a constant):
    what ties one item of a scope or a dependency to another."""

    return {t for t in P.subterms(path) if isinstance(t, (Var, Const, Param))}


def linked_parts(
    bindings: Sequence[Binding], conditions: Sequence[Eq]
) -> Optional[Tuple[Dict[Path, int], List[int]]]:
    """Split the items (``bindings``, then ``conditions``) into parts, two
    items being linked when they share a variable or a constant: a binding
    brings its variable and its source's links, a condition both sides'.
    Returns, per variable or constant, the part it lies in and, per item,
    its part (a part is named by one of its items' indexes).  ``None`` when
    a condition side has no link: a schema term equated as a whole ties
    together every item that reads it."""

    items = [links(b.source) | {Var(b.var)} for b in bindings]
    for cond in conditions:
        left, right = links(cond.left), links(cond.right)
        if not (left and right):
            return None
        items.append(left | right)
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[Path, int] = {}
    for i, item in enumerate(items):
        for atom in item:
            j = owner.setdefault(atom, i)
            if j != i:
                parent[find(j)] = find(i)
    parts = [find(i) for i in range(len(items))]
    return {atom: parts[i] for atom, i in owner.items()}, parts


def _dependency_paths(dep: EPCD) -> List[Path]:
    """Every binding source and condition side of ``dep``."""

    bindings = dep.premise_bindings + dep.conclusion_bindings
    conditions = dep.premise_conditions + dep.conclusion_conditions
    paths = [b.source for b in bindings]
    paths += [side for c in conditions for side in (c.left, c.right)]
    return paths


def _separable(dep: EPCD, paths: List[Path]) -> bool:
    """Does every step of ``dep`` stay inside one part of a scope (parts as
    :func:`linked_parts` splits them)?  Yes when it mentions no constant,
    its premise is one part and so is the whole dependency: a premise match
    then lies in one part, its conclusion is witnessed in that part or
    nowhere, and what the step writes links to that part alone.
    ``paths``: :func:`_dependency_paths` of ``dep``."""

    bindings = dep.premise_bindings + dep.conclusion_bindings
    conditions = dep.premise_conditions + dep.conclusion_conditions
    if any(isinstance(t, (Const, Param)) for p in paths for t in P.subterms(p)):
        return False
    premise = linked_parts(dep.premise_bindings, dep.premise_conditions)
    whole = linked_parts(bindings, conditions)
    if premise is None or whole is None:
        return False
    return len(set(premise[1])) == 1 and len(set(whole[1])) == 1


def chase_once(
    query: PCQuery, deps: Sequence[EPCD]
) -> Optional[Tuple[PCQuery, ChaseStep]]:
    """Apply the first applicable chase step, or ``None`` at fixpoint."""

    state = ChaseState(query, deps)
    step = state.step()
    return None if step is None else (state.query, step)


def chase(
    query: PCQuery,
    deps: Iterable[EPCD],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ChaseResult:
    """Chase ``query`` with ``deps`` to a fixpoint.

    Deterministic (see :meth:`ChaseState.step`), so repeated runs produce
    the same universal plan.

    Raises :class:`ChaseNonTermination` after ``max_steps`` steps, which
    per the paper can only happen for non-full dependency sets; the bound
    "could be used as a heuristic for stopping the chase when termination
    is not guaranteed".
    """

    state = ChaseState(query, list(deps))
    steps = state.run(max_steps)
    return ChaseResult(state.query, steps, state.cc)


class ChaseEngine:
    """A chase service with memoization over canonicalized queries.

    The backchase performs many containment checks, each of which chases a
    candidate subquery with the same constraint set; one live
    :class:`ChaseState` per canonical form removes the repeated work.
    :meth:`contained_in` decides a containment and remembers no verdict:
    the caller that asks a pair again keeps them
    (``backchase.RootVerdicts``).
    """

    def __init__(
        self,
        deps: Sequence[EPCD],
        max_steps: int = DEFAULT_MAX_STEPS,
        tracer=None,
    ) -> None:
        from repro.obs.trace import NOOP_TRACER

        self.deps = list(deps)
        self.max_steps = max_steps
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: one live chase per canonical text
        self.states: Dict[str, ChaseState] = {}
        #: the backchase's failing-lookup safety verdicts, keyed by
        #: (lookup, bindings in scope, conditions fired) — like the chase
        #: results they are a function of the key and ``deps`` alone
        self.lookup_safety: Dict[Tuple, bool] = {}
        #: what the chased verdicts proved, per lookup: the ⊆-minimal scopes
        #: (bindings ∪ conditions) found with a ``dom`` witness for the key and
        #: the ⊆-maximal ones found without (``backchase.backchase`` infers
        #: from them)
        self.lookup_proofs: Dict[Path, Tuple[List[FrozenSet], List[FrozenSet]]] = {}
        #: how each lookup-safety decision was reached
        self.lookup_decisions = {"memo": 0, "guard": 0, "inferred": 0, "chased": 0}
        #: how each computed containment verdict was reached
        self.containment_decisions = dict.fromkeys(
            ("subsumed", "refuted", "early", "fixpoint"), 0
        )
        #: can a chase step equate a ``dom`` term as a whole?
        self.equates_dom = any(
            isinstance(side, Dom)
            for dep in self.deps
            for cond in dep.conclusion_conditions
            for side in (cond.left, cond.right)
        )
        #: is every dependency separable (:func:`_separable`)?  Then no step
        #: matches, blocks or merges across parts of a scope that share no
        #: variable or constant, and the chase of one part is the chase of
        #: the scope restricted to it (the backchase decides lookup safety on
        #: the part the key lies in)
        self.separable = all(_matcher(dep).separable for dep in self.deps)
        #: every constant a dependency mentions (the backchase keys shapes
        #: with these literal, the others as markers)
        self.constants: FrozenSet[Path] = frozenset().union(
            *(_matcher(dep).constants for dep in self.deps)
        )
        self.cache_hits = 0
        self.cache_misses = 0

    def chase_counts(self) -> Dict[str, int]:
        """Steps applied in all; chases a goal left short of the fixpoint."""

        states = self.states.values()
        stopped = sum(not s.done for s in states)
        return {"steps": sum(s.steps for s in states), "stopped": stopped}

    def contained_in(
        self,
        q1: PCQuery,
        q2: PCQuery,
        accepted: Iterable[PCQuery] = (),
        refuted: Iterable[PCQuery] = (),
    ) -> bool:
        """Decide ``q1 ⊑ q2`` under this engine's dependencies, one
        ``chase.containment`` span: exactly
        :func:`repro.chase.containment.is_contained_in`'s verdict (with its
        ``accepted`` / ``refuted`` hints), a pure function of the pair and
        ``self.deps``, remembered nowhere."""

        from repro.chase import containment

        with self.tracer.span("chase.containment") as sp:
            verdict = containment.is_contained_in(
                q1, q2, self.deps, self, accepted, refuted
            )
            sp.set(contained=verdict)
        return verdict

    def chase(self, query: PCQuery, goal: Optional[Goal] = None) -> ChaseState:
        """Advance the live chase of ``query``'s canonical form — to the
        fixpoint, or with a ``goal`` only until it holds (``done`` then is
        false) — and return it; the next question resumes it."""

        key = query.canonical_key()
        state = self.states.get(key)
        if state is None:
            self.cache_misses += 1
            state = self.states[key] = ChaseState(query.canonical(), self.deps)
        else:
            self.cache_hits += 1
        state.run(self.max_steps, goal)
        return state

    def chase_with_cc(self, query: PCQuery) -> Tuple[PCQuery, CongruenceClosure]:
        """The chased canonical form and the closure its steps extended, at
        the fixpoint.  The closure also holds the auxiliary terms matching
        and goals looked at, and later decisions share it: callers may add
        terms (monotone and sound) but must not merge."""

        state = self.chase(query)
        return state.query, state.cc
