"""Path-conjunctive query AST.

A PC query (section 5)::

    select struct(A1 = P1', ..., An = Pn')
    from   P1 x1, ..., Pm xm
    where  B

with ``B`` a conjunction of path equalities.  Bindings are *ordered*: the
source path of ``xi`` may mention ``x1 .. x(i-1)`` (dependent joins, e.g.
``depts d, d.DProjs s``).  Set semantics throughout (``select distinct``).

This module also provides canonicalization (variable renaming by first-use
order) used for memoization by the backchase enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.errors import ParameterBindingError, QueryValidationError
from repro.query import paths as P
from repro.query.paths import Path, Var


@dataclass(frozen=True)
class Binding:
    """One ``from`` item: variable ``var`` ranging over set-valued ``source``."""

    var: str
    source: Path

    def __str__(self) -> str:
        return f"{self.source} {self.var}"


@dataclass(frozen=True)
class Eq:
    """A path equality ``left = right`` (symmetric; canonicalized on key)."""

    left: Path
    right: Path

    def __post_init__(self) -> None:
        a, b = self.left._str, self.right._str
        object.__setattr__(self, "_k", (a, b) if a <= b else (b, a))

    def key(self) -> Tuple[str, str]:
        return self._k

    def normalized(self) -> "Eq":
        a, b = self.left, self.right
        if a._str <= b._str:
            return self
        return Eq(b, a)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class StructOutput:
    """``struct(A1 = P1, ..., An = Pn)`` select clause."""

    fields: Tuple[Tuple[str, Path], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{name} = {path}" for name, path in self.fields)
        return f"struct({inner})"

    def paths(self) -> Tuple[Path, ...]:
        return tuple(path for _, path in self.fields)

    def substitute(self, mapping: Dict[str, Path]) -> "StructOutput":
        return StructOutput(
            tuple((name, P.substitute(path, mapping)) for name, path in self.fields)
        )

    def substitute_params(self, mapping: Dict[str, Path]) -> "StructOutput":
        return StructOutput(
            tuple(
                (name, P.substitute_params(path, mapping))
                for name, path in self.fields
            )
        )


@dataclass(frozen=True)
class PathOutput:
    """A bare path select clause (``select P``)."""

    path: Path

    def __str__(self) -> str:
        return str(self.path)

    def paths(self) -> Tuple[Path, ...]:
        return (self.path,)

    def substitute(self, mapping: Dict[str, Path]) -> "PathOutput":
        return PathOutput(P.substitute(self.path, mapping))

    def substitute_params(self, mapping: Dict[str, Path]) -> "PathOutput":
        return PathOutput(P.substitute_params(self.path, mapping))


Output = Union[StructOutput, PathOutput]


@dataclass(frozen=True)
class PCQuery:
    """An immutable path-conjunctive query."""

    output: Output
    bindings: Tuple[Binding, ...]
    conditions: Tuple[Eq, ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(
        output: Union[Output, Path, Iterable[Tuple[str, Path]]],
        bindings: Iterable[Union[Binding, Tuple[str, Path]]],
        conditions: Iterable[Union[Eq, Tuple[Path, Path]]] = (),
    ) -> "PCQuery":
        """Build a query from loose pieces (tuples allowed)."""

        if isinstance(output, Path):
            out: Output = PathOutput(output)
        elif isinstance(output, (StructOutput, PathOutput)):
            out = output
        else:
            out = StructOutput(tuple(output))
        binds = tuple(
            b if isinstance(b, Binding) else Binding(b[0], b[1]) for b in bindings
        )
        conds = tuple(
            c if isinstance(c, Eq) else Eq(c[0], c[1]) for c in conditions
        )
        return PCQuery(out, binds, conds)

    # -- structure ---------------------------------------------------------

    def binding_vars(self) -> Tuple[str, ...]:
        return tuple(b.var for b in self.bindings)

    def binding_of(self, var: str) -> Binding:
        for b in self.bindings:
            if b.var == var:
                return b
        raise QueryValidationError(f"no binding for variable {var!r}")

    def has_var(self, var: str) -> bool:
        return any(b.var == var for b in self.bindings)

    def all_paths(self) -> Iterator[Path]:
        """Every top-level path in the query (sources, condition sides, outputs)."""

        for b in self.bindings:
            yield b.source
        for c in self.conditions:
            yield c.left
            yield c.right
        yield from self.output.paths()

    def all_terms(self) -> Iterator[Path]:
        """Every subterm occurring anywhere in the query."""

        for path in self.all_paths():
            yield from P.subterms(path)

    def schema_names(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for path in self.all_paths():
            result |= P.schema_names(path)
        return result

    def free_vars(self) -> FrozenSet[str]:
        """Variables used anywhere (should all be bound in a valid query)."""

        result: FrozenSet[str] = frozenset()
        for path in self.all_paths():
            result |= P.free_vars(path)
        return result

    def size(self) -> int:
        return len(self.bindings) + len(self.conditions)

    def condition_levels(self) -> List[List[Eq]]:
        """Conditions grouped by the binding level they fire at.

        Level ``i`` (1-based) holds the conditions whose last-bound
        variable is the ``i``-th binding's — the earliest point of the
        nested loops at which they can be checked; level 0 holds the
        variable-free ones (checked before any loop).
        """

        var_level = {b.var: i for i, b in enumerate(self.bindings, start=1)}
        levels: List[List[Eq]] = [[] for _ in range(len(self.bindings) + 1)]
        for cond in self.conditions:
            needed = cond.left._fvs | cond.right._fvs
            level = max((var_level.get(v, 0) for v in needed), default=0)
            levels[level].append(cond)
        return levels

    # -- parameters (binding markers) ---------------------------------------

    def param_names(self) -> Tuple[str, ...]:
        """Parameter names (``$x`` markers), in first-occurrence order over
        bindings, then conditions, then the output clause (cached)."""

        cached = self.__dict__.get("_param_names")
        if cached is None:
            seen: Dict[str, None] = {}
            for path in self.all_paths():
                for name in P.param_names(path):
                    seen.setdefault(name, None)
            cached = tuple(seen)
            object.__setattr__(self, "_param_names", cached)
        return cached

    def has_params(self) -> bool:
        return bool(self.param_names())

    def substitute_params(self, mapping: Dict[str, Path]) -> "PCQuery":
        """Replace parameters by paths everywhere in the query."""

        return PCQuery(
            self.output.substitute_params(mapping),
            tuple(
                Binding(b.var, P.substitute_params(b.source, mapping))
                for b in self.bindings
            ),
            tuple(
                Eq(
                    P.substitute_params(c.left, mapping),
                    P.substitute_params(c.right, mapping),
                )
                for c in self.conditions
            ),
        )

    def check_bindings(self, values: Mapping[str, object]) -> None:
        """Raise :class:`~repro.errors.ParameterBindingError` unless
        ``values`` binds exactly this query's ``$`` markers, each to a
        value that carries no marker of its own — the one check behind
        :meth:`bind_params`, ``Database.execute``, ``PreparedQuery.run``
        and ``CachedSession.run``, so a mistake reads the same at each."""

        declared = self.param_names()
        missing = [name for name in declared if name not in values]
        for value in values.values():
            if isinstance(value, Path):
                missing += [n for n in P.param_names(value) if n not in missing]
        unknown = sorted(name for name in values if name not in declared)
        if not (missing or unknown):
            return
        problems = [
            f"{kind} parameter(s) " + ", ".join(f"${n}" for n in names)
            for kind, names in (("unbound", missing), ("unknown", unknown))
            if names
        ]
        declares = (
            "this template declares " + ", ".join(f"${n}" for n in declared)
            if declared
            else "this query declares no $-markers"
        )
        raise ParameterBindingError("; ".join(problems) + f" — {declares}")

    def bind_params(self, values: "Dict[str, object]") -> "PCQuery":
        """Substitute constants for every parameter.

        ``values`` maps parameter names to Python base values (or ready
        :class:`Path` nodes), checked by :meth:`check_bindings` so a
        typo'd binding fails loudly instead of executing a half-bound
        template.
        """

        self.check_bindings(values)
        mapping = {
            name: value if isinstance(value, Path) else P.Const(value)
            for name, value in values.items()
        }
        return self.substitute_params(mapping)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check well-formedness: unique vars, no forward references.

        (Type-level checks — PC restrictions on set-typed equalities and
        guarded lookups — live in :mod:`repro.query.typing` since they need
        a schema.)
        """

        seen: List[str] = []
        for b in self.bindings:
            if b.var in seen:
                raise QueryValidationError(f"duplicate binding variable {b.var!r}")
            for v in P.free_vars(b.source):
                if v not in seen:
                    raise QueryValidationError(
                        f"binding {b} references {v!r} before it is bound"
                    )
            seen.append(b.var)
        bound = set(seen)
        for path in list(self.output.paths()) + [
            side for c in self.conditions for side in (c.left, c.right)
        ]:
            unbound = P.free_vars(path) - bound
            if unbound:
                raise QueryValidationError(
                    f"unbound variable(s) {sorted(unbound)} in {path}"
                )

    # -- transformation ------------------------------------------------------

    def substitute(self, mapping: Dict[str, Path]) -> "PCQuery":
        """Substitute variables everywhere (binding vars are untouched)."""

        return PCQuery(
            self.output.substitute(mapping),
            tuple(Binding(b.var, P.substitute(b.source, mapping)) for b in self.bindings),
            tuple(
                Eq(P.substitute(c.left, mapping), P.substitute(c.right, mapping))
                for c in self.conditions
            ),
        )

    def rename_vars(self, mapping: Dict[str, str]) -> "PCQuery":
        """Consistently rename binding variables."""

        path_map = {old: Var(new) for old, new in mapping.items()}
        renamed = self.substitute(path_map)
        return PCQuery(
            renamed.output,
            tuple(
                Binding(mapping.get(b.var, b.var), b.source) for b in renamed.bindings
            ),
            renamed.conditions,
        )

    def with_fresh_conditions(self, extra: Iterable[Eq]) -> "PCQuery":
        """Add conditions, dropping syntactic duplicates (order preserved)."""

        seen = {c.key() for c in self.conditions}
        added: List[Eq] = []
        for cond in extra:
            if cond.key() not in seen:
                seen.add(cond.key())
                added.append(cond)
        if not added:
            return self
        return replace(self, conditions=self.conditions + tuple(added))

    def with_bindings(self, extra: Iterable[Binding]) -> "PCQuery":
        extra_t = tuple(extra)
        if not extra_t:
            return self
        return replace(self, bindings=self.bindings + extra_t)

    def without_binding(self, var: str) -> "PCQuery":
        return replace(
            self, bindings=tuple(b for b in self.bindings if b.var != var)
        )

    # -- canonicalization -----------------------------------------------------

    def canonical(self) -> "PCQuery":
        """Rename variables to _v0.._vn by binding order; sort conditions.

        Two queries that differ only in variable names and condition order
        share the same canonical form; used for memoization.  Remembered
        on the object like the keys below: a query renames at most once,
        and :meth:`canonical_key`, :meth:`canonical_template` and the
        canonical parameter order (``canonical().param_names()``) all
        read that one form.
        """

        cached = self.__dict__.get("_canonical")
        if cached is None:
            mapping = {b.var: f"_v{i}" for i, b in enumerate(self.bindings)}
            renamed = self.rename_vars(mapping)
            conds = tuple(
                sorted((c.normalized() for c in renamed.conditions), key=Eq.key)
            )
            cached = PCQuery(renamed.output, renamed.bindings, conds)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def canonical_key(self) -> str:
        cached = self.__dict__.get("_canonical_key")
        if cached is None:
            cached = str(self.canonical())
            object.__setattr__(self, "_canonical_key", cached)
        return cached

    def canonical_template(self) -> "PCQuery":
        """Canonical form with parameters renamed positionally to _p0.._pn.

        Parameters canonicalize like variables — by occurrence order in the
        canonical form — so alpha-variant templates (``$x`` vs ``$y``)
        share one template key and therefore one plan-cache entry.  The
        renaming lives *outside* :meth:`canonical` on purpose: the chase
        and containment engines compare terms across two different
        queries, and renaming both sides' parameters positionally could
        spuriously identify unrelated markers.
        """

        canon = self.canonical()
        order = canon.param_names()
        mapping: Dict[str, Path] = {
            name: P.Param(f"_p{i}") for i, name in enumerate(order)
        }
        return canon.substitute_params(mapping)

    def template_key(self) -> str:
        """Cache key shared by every alpha-variant of this template.

        Equals :meth:`canonical_key` for parameter-free queries, so callers
        can use it unconditionally.
        """

        cached = self.__dict__.get("_template_key")
        if cached is None:
            cached = (
                str(self.canonical_template())
                if self.param_names()
                else self.canonical_key()
            )
            object.__setattr__(self, "_template_key", cached)
        return cached

    # -- display ----------------------------------------------------------------

    def __str__(self) -> str:
        from_clause = ", ".join(str(b) for b in self.bindings)
        text = f"select {self.output} from {from_clause}"
        if self.conditions:
            text += " where " + " and ".join(str(c) for c in self.conditions)
        return text


def fresh_var_namer(query: PCQuery, prefix: str = "_x") -> Iterator[str]:
    """Yield variable names not used in ``query``."""

    used = set(query.binding_vars()) | set(query.free_vars())
    i = 0
    while True:
        name = f"{prefix}{i}"
        if name not in used:
            used.add(name)
            yield name
        i += 1
