"""Database instances: values for schema names plus the class registry.

An :class:`Instance` binds each schema name to a runtime value.  For OO
classes it also records which dictionary implements each class, so oid
dereference (``d.DName`` in OQL) evaluates as the dictionary lookup
``Dept[d].DName`` — exactly the paper's semantics for class encodings.

Every write ticks the instance's **write clock**.  What is derived from
an instance (cached plans and views, statistics, feedback) records the
clock it read and asks :meth:`Instance.written_since` before reuse, so
the instance holds no reference to any of it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import InstanceError, TypeMismatchError
from repro.model.schema import Schema
from repro.model.values import DictValue, Oid, Row, type_check


class Instance:
    """A mapping from schema names to values, with oid dereferencing.

    Each ``instance[name] = value`` ticks :attr:`clock` and stamps
    ``name`` with the new tick; :meth:`written_since` tells a reader
    whether any name it derived state from was written after the clock
    it read.  :meth:`copy` starts a fresh clock (a copy is a new
    database).
    """

    def __init__(self, data: Optional[Dict[str, Any]] = None) -> None:
        self._data: Dict[str, Any] = dict(data or {})
        # class name -> dictionary schema name implementing the class
        self._class_dicts: Dict[str, str] = {}
        #: the write clock: the number of writes so far
        self.clock = 0
        self._written: Dict[str, int] = {}  # name -> tick of its last write

    # -- mapping interface ---------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._data[name]
        except KeyError:
            raise InstanceError(f"instance has no value for schema name {name!r}") from None

    def __setitem__(self, name: str, value: Any) -> None:
        self._data[name] = value
        self.clock += 1
        self._written[name] = self.clock

    def written_since(self, names: Iterable[str], clock: int) -> bool:
        """Was any of ``names`` written after the clock read ``clock``?"""

        if self.clock == clock:
            return False
        written = self._written
        return any(written.get(name, 0) > clock for name in names)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def names(self) -> List[str]:
        return list(self._data)

    def get(self, name: str, default: Any = None) -> Any:
        return self._data.get(name, default)

    # -- class registry --------------------------------------------------------

    def register_class(self, class_name: str, dict_name: str) -> None:
        """Declare that dictionary ``dict_name`` implements ``class_name``.

        Oid dereference for this class's oids then reads through that
        dictionary.
        """

        if dict_name not in self._data:
            raise InstanceError(
                f"cannot register class {class_name!r}: no value for {dict_name!r}"
            )
        self._class_dicts[class_name] = dict_name

    def class_dict_names(self) -> frozenset:
        """Every dictionary schema name registered as a class implementation."""

        return frozenset(self._class_dicts.values())

    def class_registry(self) -> Dict[str, str]:
        """A copy of the class → dictionary-name registry (so callers can
        rebuild a derived instance — e.g. the advisor's logical-only strip
        — without reaching into private state)."""

        return dict(self._class_dicts)

    def class_dict_name(self, class_name: str) -> str:
        try:
            return self._class_dicts[class_name]
        except KeyError:
            raise InstanceError(f"no dictionary registered for class {class_name!r}") from None

    def deref(self, oid: Oid) -> Row:
        """Dereference an oid through its class dictionary."""

        dict_name = self.class_dict_name(oid.class_name)
        class_dict = self[dict_name]  # through __getitem__: overlays read live
        if not isinstance(class_dict, DictValue):
            raise InstanceError(
                f"class dictionary {dict_name!r} is not a DictValue"
            )
        try:
            return class_dict[oid]
        except KeyError:
            raise InstanceError(f"dangling oid {oid!r}") from None

    # -- validation --------------------------------------------------------------

    def validate(self, schema: Schema) -> List[str]:
        """Return a list of type errors of this instance against ``schema``.

        Empty list means the instance is well-typed.  Missing names are
        reported; extra names are allowed (an instance may serve several
        schemas, e.g. logical + physical combined).
        """

        problems: List[str] = []
        for name in schema.names():
            if name not in self._data:
                problems.append(f"missing value for schema name {name!r}")
                continue
            try:
                type_check(self._data[name], schema.type_of(name), name)
            except TypeMismatchError as exc:
                problems.append(str(exc))
        # Every registered class dict must exist and cover all extent oids.
        for class_name, dict_name in self._class_dicts.items():
            if dict_name not in self._data:
                problems.append(f"class {class_name!r} registered to missing {dict_name!r}")
        return problems

    def copy(self) -> "Instance":
        clone = Instance(dict(self._data))
        clone._class_dicts = dict(self._class_dicts)
        return clone

    def overlay(self, values: Optional[Dict[str, Any]] = None) -> "OverlayInstance":
        """A read-through overlay over this (live) instance.

        Names in ``values`` shadow the base; every other read — including
        oid dereference through class dictionaries — resolves against this
        instance *at access time*, so a mutation of a base relation is
        visible to plans executing over the overlay immediately.  Writes to
        the overlay stay in the overlay and tick no clock.
        """

        return OverlayInstance(self, values)

    def __repr__(self) -> str:
        parts = []
        for name, value in self._data.items():
            if isinstance(value, frozenset):
                parts.append(f"{name}: set[{len(value)}]")
            elif isinstance(value, DictValue):
                parts.append(f"{name}: dict[{len(value)}]")
            else:
                parts.append(f"{name}: {type(value).__name__}")
        return f"Instance({', '.join(parts)})"


class OverlayInstance(Instance):
    """A database view merging overlay values onto a live base instance.

    The semantic cache's hybrid rewrites execute against one of these: the
    cached extents are materialized under their view names in the overlay
    while every base-relation read falls through to the *live* base
    instance, so a hybrid plan can never observe a base relation older
    than the moment it is scanned.  Writes to the overlay never reach the
    base or tick a clock, and the base's class registry is shared (not
    copied), so oid dereference stays live too.
    """

    def __init__(self, base: Instance, values: Optional[Dict[str, Any]] = None) -> None:
        self._base = base
        self._data = dict(values or {})  # overlay names only
        self._class_dicts = base._class_dicts  # shared, live
        self.clock = 0
        self._written = {}

    def __getitem__(self, name: str) -> Any:
        if name in self._data:
            return self._data[name]
        return self._base[name]

    def __setitem__(self, name: str, value: Any) -> None:
        # Overlay-local: the base instance and its clock never see it.
        self._data[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._data or name in self._base

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> List[str]:
        merged = self._base.names()
        merged.extend(name for name in self._data if name not in self._base)
        return merged

    def get(self, name: str, default: Any = None) -> Any:
        if name in self._data:
            return self._data[name]
        return self._base.get(name, default)

    def copy(self) -> "Instance":
        """Flatten into a plain (frozen-at-copy-time) instance."""

        clone = Instance({name: self[name] for name in self.names()})
        clone._class_dicts = dict(self._class_dicts)
        return clone
