"""Columnar extent representation behind compiled plan functions.

Interpreted operators stream ``{var: value}`` environments and re-probe
row attributes through :func:`~repro.query.evaluator.eval_path` on every
tuple.  A :class:`ColumnarExtent` decomposes one schema-name extent into
position-aligned structures built once and reused across runs:

* ``elements`` — the extent as an ordered tuple (stable for a given
  frozenset object), so generated loops iterate positions;
* ``column(attr)`` — one Python list per referenced attribute, aligned
  with ``elements``, so selections and projections become list indexing
  instead of per-tuple ``Row.__getitem__`` scans (oids are dereferenced
  once per element, not once per enclosing loop iteration);
* ``index(attr)`` — a value → positions hash built lazily over a column,
  turning constant selections and value-based equijoins into bulk probes.

A column set belongs to its extent, not to a plan: :data:`COLUMNS`, the
one process-wide :class:`ColumnStore`, keys each set by the identity of
the frozenset an instance serves for a name and drops it when that
frozenset is collected.  Staleness is handled structurally, not by TTLs:
instance mutation replaces the value wholesale, so a write is a new key,
and every fetch re-validates that each class dictionary a column
dereferenced through is unchanged (rebuilding from live data if not).
Every compiled plan reads the store (its generated code's ``_cols``), and
so does the skew guard, which counts a bound value off :meth:`index`.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryExecutionError
from repro.model.instance import Instance
from repro.model.values import Oid, Row

#: sentinel distinguishing "index not built yet" from "index unavailable"
#: (a column holding unhashable values cannot be hashed; probes fall back
#: to a bulk linear scan of the column).
_UNINDEXABLE = object()


class ColumnarExtent:
    """One schema-name extent decomposed into columns (built lazily).  It
    keeps no reference to the frozenset it was built from: the store keys
    it by that frozenset's identity, and a reference back would pin it."""

    __slots__ = ("name", "elements", "_columns", "_indexes", "_deps")

    def __init__(self, name: str, source: frozenset) -> None:
        self.name = name
        self.elements: Tuple[Any, ...] = tuple(source)
        self._columns: Dict[Optional[str], Sequence[Any]] = {None: self.elements}
        self._indexes: Dict[Optional[str], Any] = {}
        # class-dict name -> the dict object a column build dereferenced
        # through; the store re-validates these on every fetch.
        self._deps: Dict[str, Any] = {}

    def deps_valid(self, instance: Instance) -> bool:
        return all(
            instance.get(name) is obj for name, obj in self._deps.items()
        )

    def column(self, attr: Optional[str], instance: Instance) -> Sequence[Any]:
        """The values of ``attr`` aligned with :attr:`elements` (``None``
        = the elements themselves).  Oid elements are dereferenced through
        their class dictionary exactly as the reference evaluator does,
        recording the dictionary as a staleness dependency."""

        col = self._columns.get(attr)
        if col is not None:
            return col
        out: List[Any] = []
        for element in self.elements:
            value = element
            if isinstance(value, Oid):
                dict_name = instance.class_dict_name(value.class_name)
                if dict_name not in self._deps:
                    self._deps[dict_name] = instance.get(dict_name)
                value = instance.deref(value)
            if not isinstance(value, Row):
                raise QueryExecutionError(
                    f"attribute access on non-record: {self.name}.{attr}"
                )
            try:
                out.append(value[attr])
            except KeyError:
                raise QueryExecutionError(
                    f"row has no attribute {attr!r}: {value!r}"
                ) from None
        self._columns[attr] = out
        return out

    def index(self, attr: Optional[str], instance: Instance):
        """value → tuple-of-positions over ``column(attr)``, or ``None``
        when the column holds unhashable values."""

        idx = self._indexes.get(attr, _UNINDEXABLE)
        if idx is not _UNINDEXABLE:
            return idx
        col = self.column(attr, instance)
        table: Dict[Any, List[int]] = {}
        try:
            for position, value in enumerate(col):
                table.setdefault(value, []).append(position)
            built: Any = {
                value: tuple(positions) for value, positions in table.items()
            }
        except TypeError:
            built = None
        self._indexes[attr] = built
        return built


def probe_positions(index, key: Any, column: Sequence[Any]) -> Sequence[int]:
    """Positions whose column value equals ``key``: a hash probe when the
    index exists and the key hashes, else one bulk scan of the column
    (same ``==`` semantics either way)."""

    if index is not None:
        try:
            return index.get(key, ())
        except TypeError:
            pass
    return [i for i, value in enumerate(column) if value == key]


class ColumnStore:
    """Column sets keyed by extent identity (see the module docstring):
    an entry lives exactly as long as the frozenset it was built from."""

    __slots__ = ("_extents",)

    def __init__(self) -> None:
        self._extents: Dict[int, ColumnarExtent] = {}

    def get(self, instance: Instance, name: str) -> ColumnarExtent:
        source = instance[name]
        if not isinstance(source, frozenset):
            raise QueryExecutionError(f"binding source {name} is not a set")
        key = id(source)
        extent = self._extents.get(key)
        if extent is None:
            weakref.finalize(source, self._extents.pop, key, None)
        elif extent.deps_valid(instance):
            return extent
        extent = self._extents[key] = ColumnarExtent(name, source)
        return extent


#: the one column store: every compiled plan's ``_cols`` and the skew guard
COLUMNS = ColumnStore()
