"""The reference kernel: the congruence closure and the containment-mapping
matcher as they were before their hot paths were rewritten.

``repro.chase.congruence.CongruenceClosure`` walks to a present term's root
inline, creates a class's parent set only when a parent registers and
computes signatures inline; ``repro.chase.homomorphism.Pattern.match``
enumerates with an explicit stack of per-level iterators.  The code below
does none of that — it is the plain recursive version — and
``tests/test_kernel_differential.py`` holds the rewritten kernel to it:
the same roots, term order, member sets, union callbacks and
homomorphisms, in the same order.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional
from typing import Sequence, Set, Tuple

from repro.query import paths as P
from repro.query.ast import Binding
from repro.query.paths import Const, Path, Var


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
        # a child's root stays put while its siblings are added (see above)
        roots = tuple([self.add(child) for child in term._kids])
        self._parent[term] = term
        self._rank[term] = 0
        self._members[term] = {term}
        self._use[term] = set()
        if isinstance(term, Const):
            self._const[term] = term
        if roots:
            for root in roots:
                self._use[root].add(term)
            sig = term._op + roots
            existing = self._sig.get(sig)
            if existing is not None:
                self._merge_roots(self.find(existing), term)
                return self.find(term)
            self._sig[sig] = term
        return term

    def _signature(self, term: Path) -> Tuple:
        return term._op + tuple([self.find(c) for c in term._kids])

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

        return [tuple(sorted(ms, key=P.path_sort_key)) for ms in self.member_sets()]

    def member_sets(self) -> Iterable[Set[Path]]:
        """Every class's member set, unordered; read, never modify."""

        return self._members.values()  # keyed by the roots alone

    def all_terms(self) -> Tuple[Path, ...]:
        return tuple(self._parent)

    # -- equivalent-term search ---------------------------------------------------

    def equivalent_avoiding(
        self,
        term: Path,
        banned_vars: FrozenSet[str],
        max_depth: int = 6,
    ) -> Optional[Path]:
        """A term congruent to ``term`` that mentions no banned variable."""

        memo: Dict[Tuple[Path, FrozenSet[str]], Optional[Path]] = {}
        return self._rewrite(term, banned_vars, memo, max_depth)

    def _rewrite(
        self,
        term: Path,
        banned: FrozenSet[str],
        memo: Dict,
        depth: int,
    ) -> Optional[Path]:
        if not (term._fvs & banned):
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
            if not (member._fvs & banned):
                memo[key] = member
                return member
        # 2. rebuild a composite member from rewritten children
        for member in candidates:
            kids = member._kids
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


def recursive_match(pattern, target, cc, initial=None) -> Iterator[Dict[str, Path]]:
    """``Pattern.match`` as a recursive generator: ``pattern``'s bindings
    mapped into ``target`` level by level, the conditions of
    ``pattern.levels[i]`` checked once the first ``i`` bindings are mapped."""

    bindings, levels = pattern.bindings, pattern.levels

    def holds(level, hom):
        return all(
            cc.equal(P.substitute(c.left, hom), P.substitute(c.right, hom))
            for c in levels[level]
        )

    def extend(index, hom):
        if index == len(bindings):
            yield dict(hom)
            return
        binding = bindings[index]
        wanted_source = P.substitute(binding.source, hom)
        for target_binding in cc.bindings_in_class(wanted_source, target.bindings):
            hom[binding.var] = Var(target_binding.var)
            if holds(index + 1, hom):
                yield from extend(index + 1, hom)
            del hom[binding.var]

    base = dict(initial or {})
    if holds(0, base):  # variable-free conditions must hold outright
        yield from extend(0, base)
