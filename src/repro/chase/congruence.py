"""Congruence closure over path terms.

The where-clause of a PC query induces an equivalence on all path terms:
stated equalities, closed under congruence —

* ``p = q``  implies  ``p.A = q.A``
* ``p = q``  implies  ``dom p = dom q``
* ``p = q`` and ``x = y``  implies  ``p[x] = q[y]``

This is exactly the "canonical database built out of the syntax of Q,
grouping terms in congruence classes according to the equalities that
appear in C" of section 3.  Implemented as a classic union-find plus
signature-table congruence closure (Nelson–Oppen style) with dynamic term
insertion, member tracking per class, and a search for equivalent terms
avoiding a set of variables (the engine behind backchase conditions (1)
and (2)).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.query import paths as P
from repro.query.ast import Binding, PCQuery
from repro.query.paths import Attr, Const, Dom, Lookup, NFLookup, Path, Var


def _signature_op(term: Path) -> Tuple:
    """The uninterpreted operator of a composite term."""

    if isinstance(term, Attr):
        return ("attr", term.attr)
    if isinstance(term, Dom):
        return ("dom",)
    if isinstance(term, Lookup):
        return ("lookup",)
    if isinstance(term, NFLookup):
        # Non-failing and failing lookups are congruent when defined; for
        # term reasoning we treat them as the same operator.
        return ("lookup",)
    return ()


def head(term: Path):
    """What a term is matched by: its operator, the atom itself (schema
    name, constant), or one shared symbol for every variable."""

    return Var if isinstance(term, Var) else _signature_op(term) or term


class CongruenceClosure:
    """Union-find + signature table congruence closure over paths."""

    def __init__(self) -> None:
        self._parent: Dict[Path, Path] = {}
        self._rank: Dict[Path, int] = {}
        self._members: Dict[Path, Set[Path]] = {}
        self._use: Dict[Path, Set[Path]] = {}  # root -> composite parents
        self._sig: Dict[Tuple, Path] = {}
        self._const: Dict[Path, Const] = {}  # root -> constant in class
        # root -> the bindings of ``_indexed`` whose source is in the class
        # (see :meth:`bindings_in_class`)
        self._indexed: Optional[Tuple[Binding, ...]] = None
        self._by_class: Dict[Path, List[Binding]] = {}
        #: called with the two member sets a union is about to join
        self.on_union: Optional[Callable[[Set[Path], Set[Path]], None]] = None
        self.inconsistent = False

    def copy(self) -> "CongruenceClosure":
        """An independent closure in the same state."""

        twin = CongruenceClosure()
        twin._parent = dict(self._parent)
        twin._rank = dict(self._rank)
        twin._members = {root: set(ms) for root, ms in self._members.items()}
        twin._use = {root: set(ps) for root, ps in self._use.items()}
        twin._sig = dict(self._sig)
        twin._const = dict(self._const)
        twin.inconsistent = self.inconsistent
        return twin

    # -- union-find ----------------------------------------------------------

    def __contains__(self, term: Path) -> bool:
        return term in self._parent

    def find(self, term: Path) -> Path:
        """Canonical representative; the term must already be added.

        Paths are interned, so identity comparison is exact here.
        """

        parent = self._parent
        root = term
        parent_of_root = parent[root]
        while parent_of_root is not root:
            root = parent_of_root
            parent_of_root = parent[root]
        while parent[term] is not root:  # path compression
            parent[term], term = root, parent[term]
        return root

    def add(self, term: Path) -> Path:
        """Insert a term (and its subterms); return its representative.

        A new term congruent to an old one joins the old one's class under
        the old root, so adding never changes the representative of a term
        already present — only :meth:`merge` does.
        """

        if term in self._parent:
            return self.find(term)
        for child in P.children(term):
            self.add(child)
        self._parent[term] = term
        self._rank[term] = 0
        self._members[term] = {term}
        self._use[term] = set()
        if isinstance(term, Const):
            self._const[term] = term
        kids = P.children(term)
        if kids:
            for child in kids:
                self._use[self.find(child)].add(term)
            sig = self._signature(term)
            existing = self._sig.get(sig)
            if existing is not None:
                self._merge_roots(self.find(existing), term)
            else:
                self._sig[sig] = term
        return self.find(term)

    def _signature(self, term: Path) -> Tuple:
        return _signature_op(term) + tuple(self.find(c) for c in P.children(term))

    # -- merging ----------------------------------------------------------------

    def merge(self, a: Path, b: Path) -> None:
        """Assert ``a = b`` and close under congruence."""

        ra, rb = self.add(a), self.add(b)
        self._merge_roots(ra, rb)

    def _merge_roots(self, ra: Path, rb: Path) -> None:
        worklist: List[Tuple[Path, Path]] = [(ra, rb)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx is ry:
                continue
            if self._rank[rx] < self._rank[ry]:
                rx, ry = ry, rx
            if self._rank[rx] == self._rank[ry]:
                self._rank[rx] += 1
            # detect constant clashes (query is unsatisfiable)
            cx, cy = self._const.get(rx), self._const.get(ry)
            if cx is not None and cy is not None and cx.value != cy.value:
                self.inconsistent = True
            if cy is not None and cx is None:
                self._const[rx] = cy
            if self.on_union is not None:
                self.on_union(self._members[rx], self._members[ry])
            self._parent[ry] = rx
            if ry in self._by_class:
                self._indexed = None  # its bindings now belong under rx
            self._members[rx] |= self._members.pop(ry)
            moved_parents = self._use.pop(ry)
            # re-signature composite parents of the absorbed class
            for parent in moved_parents:
                sig = self._signature(parent)
                existing = self._sig.get(sig)
                if existing is not None and (
                    self.find(existing) is not self.find(parent)
                ):
                    worklist.append((existing, parent))
                else:
                    self._sig[sig] = parent
            self._use[rx] |= moved_parents

    # -- queries -------------------------------------------------------------------

    def equal(self, a: Path, b: Path) -> bool:
        """Are ``a`` and ``b`` in the same class?  (Terms are auto-added.)"""

        return self.add(a) is self.add(b)

    def bindings_in_class(
        self, source: Path, bindings: Tuple[Binding, ...]
    ) -> Sequence[Binding]:
        """Those of ``bindings`` whose source is congruent to ``source``,
        in binding order.

        Answers what ``equal(b.source, source)`` over every ``b`` would,
        from a class → bindings index built once per ``bindings`` tuple and
        rebuilt only after a union moved an indexed class under another
        root (adding terms never does).
        """

        root = self.add(source)
        if self._indexed is not bindings:
            by_class: Dict[Path, List[Binding]] = {}
            for binding in bindings:
                by_class.setdefault(self.add(binding.source), []).append(binding)
            self._indexed, self._by_class = bindings, by_class
        return self._by_class.get(root, ())

    def constant_of(self, term: Path) -> Optional[Const]:
        """The constant merged into the term's class, if any."""

        return self._const.get(self.add(term))

    def members(self, term: Path) -> Tuple[Path, ...]:
        """All known terms in the class of ``term`` (deterministic order)."""

        root = self.add(term)
        return tuple(sorted(self._members[root], key=P.path_sort_key))

    def classes(self) -> List[Tuple[Path, ...]]:
        """All congruence classes (each as a sorted member tuple)."""

        return [
            tuple(sorted(members, key=P.path_sort_key))
            for root, members in self._members.items()
            if self._parent[root] is root
        ]

    def all_terms(self) -> Tuple[Path, ...]:
        return tuple(self._parent)

    # -- equivalent-term search ---------------------------------------------------

    def equivalent_avoiding(
        self,
        term: Path,
        banned_vars: FrozenSet[str],
        max_depth: int = 6,
    ) -> Optional[Path]:
        """A term congruent to ``term`` that mentions no banned variable.

        This implements the substitution of "equals for equals" that
        justifies backchase conditions (1) and (2): rewrite the output and
        the surviving conditions so they no longer depend on the removed
        binding.  Searches class members first, then rebuilds composites
        whose children can each be rewritten.
        """

        memo: Dict[Tuple[Path, FrozenSet[str]], Optional[Path]] = {}
        return self._rewrite(term, banned_vars, memo, max_depth)

    def _rewrite(
        self,
        term: Path,
        banned: FrozenSet[str],
        memo: Dict,
        depth: int,
    ) -> Optional[Path]:
        if not (P.free_vars(term) & banned):
            return term
        if depth <= 0:
            return None
        root = self.add(term)
        key = (root, banned)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard
        # 1. direct members free of banned variables
        candidates = sorted(self._members[root], key=P.path_sort_key)
        for member in candidates:
            if not (P.free_vars(member) & banned):
                memo[key] = member
                return member
        # 2. rebuild a composite member from rewritten children
        for member in candidates:
            kids = P.children(member)
            if not kids:
                continue
            new_kids = []
            for child in kids:
                repl = self._rewrite(child, banned, memo, depth - 1)
                if repl is None:
                    break
                new_kids.append(repl)
            else:
                rebuilt = P.rebuild(member, tuple(new_kids))
                self.add(rebuilt)  # keep the closure aware of the new term
                memo[key] = rebuilt
                return rebuilt
        memo[key] = None
        return None


def build_congruence(query: PCQuery) -> CongruenceClosure:
    """The congruence closure of a query's terms and where-clause."""

    cc = CongruenceClosure()
    for binding in query.bindings:
        cc.add(Var(binding.var))
        cc.add(binding.source)
    for path in query.output.paths():
        cc.add(path)
    for cond in query.conditions:
        cc.merge(cond.left, cond.right)
    return cc


def conditions_imply(query: PCQuery, goal_left: Path, goal_right: Path) -> bool:
    """Does the query's where-clause imply ``goal_left = goal_right``?"""

    cc = build_congruence(query)
    return cc.equal(goal_left, goal_right)
