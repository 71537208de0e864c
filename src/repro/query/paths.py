"""Path expressions — the term language shared by queries and constraints.

Grammar (section 5 of the paper)::

    Paths:  P ::= x | c | R | P.A | dom P | P[x]

plus the non-failing lookup ``P{k}`` which the paper introduces for plans
(never produced by path-conjunctive parsing; see restriction 2 in §5).

Paths are immutable, interned nodes: every constructor returns the one
object of its structure, so nodes hash and compare by *identity* (the
C-level slots of ``object``; no ``__hash__`` or ``__eq__`` here).  The
chase and backchase perform millions of operations on them, so a node is
described once, when it is created: its structural key (the interning key),
rendered text, free-variable set, size, children tuple, congruence
operator and ``path_sort_key`` order are fields, and nothing walks a class
ladder to recover them.  Identity hashes follow the address layout, so the
iteration order of a path-keyed set differs from run to run: nothing may
depend on it (``make determinism``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterator, Tuple

_EMPTY: FrozenSet[str] = frozenset()


class Path:
    """Abstract base class of path expressions.

    A subclass constructor fills, through :meth:`_describe`, ``_key`` (a
    nested tuple unique to the term), ``_str`` (rendered form), ``_fvs``
    (free variables), ``_kids`` (immediate subterms), ``_op`` (what
    congruence matches the term by: the operator of a composite, the atom
    itself for a schema name, constant or parameter, the class ``Var`` for
    every variable), ``_size`` and ``_order`` (:func:`path_sort_key`).  All
    nodes are *interned*: structurally equal paths are the same object, so
    equality is identity, and pickling or copying a node goes back through
    its constructor and yields the interned node itself.
    """

    __slots__ = ("_key", "_str", "_fvs", "_size", "_kids", "_op", "_order")

    def _describe(self, key, text, fvs, kids=(), op=None) -> None:
        self._key, self._str, self._fvs, self._kids = key, text, fvs, kids
        self._op = self if op is None else op
        self._size = 1 + sum(kid._size for kid in kids)
        self._order = (self._size, text)

    def __reduce__(self):
        # each subclass's own slots are its constructor arguments, in order
        cls = type(self)
        return cls, tuple(getattr(self, slot) for slot in cls.__slots__)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._str})"

    def __lt__(self, other: "Path") -> bool:
        return self._key < other._key


class Var(Path):
    """A query/constraint variable."""

    __slots__ = ("name",)
    _intern: Dict[Any, "Var"] = {}

    def __new__(cls, name: str) -> "Var":
        obj = cls._intern.get(name)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.name = name
        obj._describe(("v", name), name, frozenset((name,)), op=Var)
        cls._intern[name] = obj
        return obj


class Const(Path):
    """A constant at base type (string, int, float, bool).

    Numeric constants are *normalized*: a whole-number float collapses to
    the equal int (``Const(1.0) is Const(1)``), so ``where x.a = 1`` and
    ``where x.a = 1.0`` share one structural key, one canonical form and
    one congruence class — Python already evaluates them equal, and the
    chase's constant-clash detection compares by value, so two spellings
    of the same number must be the same ground term.  Bools are untouched
    (``True`` stays distinct from ``1``).
    """

    __slots__ = ("value",)
    _intern: Dict[Any, "Const"] = {}

    def __new__(cls, value: Any) -> "Const":
        if type(value) is float and value.is_integer():
            value = int(value)
        key = ("c", type(value).__name__, value)
        obj = cls._intern.get(key)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.value = value
        text = f'"{value}"' if isinstance(value, str) else str(value)
        obj._describe(key, text, _EMPTY)
        cls._intern[key] = obj
        return obj


class Param(Path):
    """A binding marker ``$name``: a placeholder for a constant.

    A parameter is an *uninterpreted* ground term — no free variables, no
    value, equal only to itself — so the chase and backchase treat every
    occurrence of ``$x`` as one opaque constant.  Any equivalence proven
    for the template therefore holds under every binding of its
    parameters (the proof never inspects the constant's value), which is
    what makes it sound to optimize a template once and substitute
    constants into the cached winning plan at execution time.  The price
    is conservatism: constant-clash pruning (``1 = 2`` is unsatisfiable)
    does not extend to parameters, since ``$x = $y`` may hold.
    """

    __slots__ = ("name",)
    _intern: Dict[Any, "Param"] = {}

    def __new__(cls, name: str) -> "Param":
        obj = cls._intern.get(name)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.name = name
        obj._describe(("$", name), f"${name}", _EMPTY)
        cls._intern[name] = obj
        return obj


class SName(Path):
    """A schema name: a relation, class extent or dictionary."""

    __slots__ = ("name",)
    _intern: Dict[Any, "SName"] = {}

    def __new__(cls, name: str) -> "SName":
        obj = cls._intern.get(name)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.name = name
        obj._describe(("n", name), name, _EMPTY)
        cls._intern[name] = obj
        return obj


class Attr(Path):
    """Projection / oid dereference: ``P.A``."""

    __slots__ = ("base", "attr")
    _intern: Dict[Any, "Attr"] = {}

    def __new__(cls, base: Path, attr: str) -> "Attr":
        key = ("a", base._key, attr)
        obj = cls._intern.get(key)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.base = base
        obj.attr = attr
        obj._describe(key, f"{base._str}.{attr}", base._fvs, (base,), ("attr", attr))
        cls._intern[key] = obj
        return obj


class Dom(Path):
    """Dictionary domain: ``dom P``."""

    __slots__ = ("base",)
    _intern: Dict[Any, "Dom"] = {}

    def __new__(cls, base: Path) -> "Dom":
        key = ("d", base._key)
        obj = cls._intern.get(key)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.base = base
        obj._describe(key, f"dom({base._str})", base._fvs, (base,), ("dom",))
        cls._intern[key] = obj
        return obj


class Lookup(Path):
    """Failing dictionary lookup ``P[k]``.

    The PC restriction requires the key to be a variable covered by a
    ``dom P`` binding; general plans may carry arbitrary keys once safety
    has been proven (optimizer/refine).
    """

    __slots__ = ("base", "key")
    _intern: Dict[Any, "Lookup"] = {}

    def __new__(cls, base: Path, key: Path) -> "Lookup":
        k = ("l", base._key, key._key)
        obj = cls._intern.get(k)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.base = base
        obj.key = key
        text = f"{base._str}[{key._str}]"
        obj._describe(k, text, base._fvs | key._fvs, (base, key), ("lookup",))
        cls._intern[k] = obj
        return obj


class NFLookup(Path):
    """Non-failing lookup ``P{k}``: empty set when ``k ∉ dom P``.

    Only meaningful for dictionaries with set-valued entries; appears in
    final plans such as the paper's P3 (``SI{"CitiBank"}``).
    """

    __slots__ = ("base", "key")
    _intern: Dict[Any, "NFLookup"] = {}

    def __new__(cls, base: Path, key: Path) -> "NFLookup":
        k = ("nf", base._key, key._key)
        obj = cls._intern.get(k)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.base = base
        obj.key = key
        # ``Lookup``'s operator: the two are congruent wherever both are defined
        text = f"{base._str}{{{key._str}}}"
        obj._describe(k, text, base._fvs | key._fvs, (base, key), ("lookup",))
        cls._intern[k] = obj
        return obj


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def children(path: Path) -> Tuple[Path, ...]:
    """Immediate subterms of a path (empty for leaves)."""

    return path._kids


def rebuild(path: Path, new_children: Tuple[Path, ...]) -> Path:
    """Reassemble a composite path with replaced children."""

    if not path._kids:
        return path
    if type(path) is Attr:
        return Attr(new_children[0], path.attr)
    return type(path)(*new_children)  # the children are the constructor's


def subterms(path: Path) -> Iterator[Path]:
    """All subterms including the path itself (post-order)."""

    for child in path._kids:
        yield from subterms(child)
    yield path


def count_probes(path: Path) -> int:
    """Dictionary lookups (failing or not) evaluating ``path`` performs."""

    return sum(1 for t in subterms(path) if isinstance(t, (Lookup, NFLookup)))


def free_vars(path: Path) -> FrozenSet[str]:
    """Variable names occurring in the path (precomputed)."""

    return path._fvs


def schema_names(path: Path) -> FrozenSet[str]:
    """Schema names mentioned in the path."""

    if isinstance(path, SName):
        return frozenset((path.name,))
    result: FrozenSet[str] = frozenset()
    for child in children(path):
        result |= schema_names(child)
    return result


def substitute(path: Path, mapping: Dict[str, Path]) -> Path:
    """Replace variables by paths according to ``mapping``."""

    for var in path._fvs:
        if var in mapping:
            break
    else:
        return path
    if type(path) is Var:
        return mapping[path.name]
    kids = path._kids
    new_kids = tuple([substitute(k, mapping) for k in kids])
    if new_kids == kids:
        return path
    return rebuild(path, new_kids)


def param_names(path: Path) -> Tuple[str, ...]:
    """Parameter names in the path, in first-occurrence order."""

    seen: Dict[str, None] = {}
    for term in subterms(path):
        if isinstance(term, Param):
            seen.setdefault(term.name, None)
    return tuple(seen)


def substitute_params(path: Path, mapping: Dict[str, Path]) -> Path:
    """Replace parameters by paths (typically constants) per ``mapping``."""

    def fn(term: Path) -> Path:
        if isinstance(term, Param):
            return mapping.get(term.name, term)
        return term

    return transform(path, fn)


def transform(path: Path, fn: Callable[[Path], Path]) -> Path:
    """Bottom-up rewriting: apply ``fn`` to every subterm."""

    kids = children(path)
    if kids:
        new_kids = tuple(transform(k, fn) for k in kids)
        if new_kids != kids:
            path = rebuild(path, new_kids)
    return fn(path)


def mentions_var(path: Path, var: str) -> bool:
    return var in path._fvs


def depth(path: Path) -> int:
    """Nesting depth of a path (leaves have depth 1)."""

    kids = children(path)
    if not kids:
        return 1
    return 1 + max(depth(k) for k in kids)


def size(path: Path) -> int:
    """Number of AST nodes (precomputed)."""

    return path._size


#: deterministic ordering key (for canonical printing/enumeration): size,
#: then rendered text — the node's ``_order``
path_sort_key: Callable[[Path], Tuple[int, str]] = attrgetter("_order")


# Convenience constructors used pervasively in tests and examples.
def V(name: str) -> Var:
    return Var(name)


def C(value: Any) -> Const:
    return Const(value)


def N(name: str) -> SName:
    return SName(name)


def A(base: Path, *attrs: str) -> Path:
    result = base
    for attr in attrs:
        result = Attr(result, attr)
    return result
