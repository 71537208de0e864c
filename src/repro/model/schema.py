"""Schemas: typed name spaces for logical and physical levels.

The paper: "The physical level is represented just like the logical level
is: with a typed data definition language and with constraints."  A
:class:`Schema` maps schema names (relations, class extents, dictionaries)
to types, records per-class attribute types for oid dereferencing, and
carries the schema's constraints (EPCDs, attached by the constraints
package).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SchemaError
from repro.model.types import OidType, SetType, StructType, Type


class ClassInfo:
    """Metadata for an OO class: extent name, oid type, attribute record."""

    def __init__(self, name: str, extent: str, attributes: StructType) -> None:
        self.name = name
        self.extent = extent
        self.attributes = attributes
        self.oid_type = OidType(name)

    def __repr__(self) -> str:
        return f"ClassInfo({self.name}, extent={self.extent})"


class Schema:
    """A typed name space with optional class metadata and constraints."""

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._types: Dict[str, Type] = {}
        self._classes: Dict[str, ClassInfo] = {}
        self.constraints: List = []  # list of EPCD (untyped to avoid cycle)

    # -- name management ---------------------------------------------------

    def add(self, name: str, ty: Type) -> "Schema":
        if name in self._types:
            raise SchemaError(f"duplicate schema name {name!r}")
        self._types[name] = ty
        return self

    def remove(self, name: str) -> None:
        if name not in self._types:
            raise SchemaError(f"unknown schema name {name!r}")
        del self._types[name]

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[str]:
        return iter(self._types)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._types)

    def type_of(self, name: str) -> Type:
        try:
            return self._types[name]
        except KeyError:
            raise SchemaError(f"unknown schema name {name!r}") from None

    def get(self, name: str) -> Optional[Type]:
        return self._types.get(name)

    # -- classes -----------------------------------------------------------

    def add_class(self, class_name: str, extent: str, attributes: StructType) -> ClassInfo:
        """Declare an OO class: registers the extent as a set of oids.

        The extent (e.g. ``depts``) is a logical schema name of type
        ``Set<oid>``; attribute access on oids is typed via ``attributes``.
        """

        if class_name in self._classes:
            raise SchemaError(f"duplicate class {class_name!r}")
        info = ClassInfo(class_name, extent, attributes)
        self._classes[class_name] = info
        self.add(extent, SetType(info.oid_type))
        return info

    def class_info(self, class_name: str) -> ClassInfo:
        try:
            return self._classes[class_name]
        except KeyError:
            raise SchemaError(f"unknown class {class_name!r}") from None

    def classes(self) -> Tuple[ClassInfo, ...]:
        return tuple(self._classes.values())

    def oid_attr_type(self, oid_type: OidType, attr: str) -> Type:
        """The type of ``o.A`` where ``o`` has the given oid type."""

        return self.class_info(oid_type.class_name).attributes.field(attr)

    # -- constraints -------------------------------------------------------

    def add_constraints(self, constraints: Iterable) -> "Schema":
        self.constraints.extend(constraints)
        return self

    # -- composition -------------------------------------------------------

    def union(self, other: "Schema", name: Optional[str] = None) -> "Schema":
        """Combine two schemas (logical + physical are commonly unioned).

        Shared names must agree on type (the paper: the physical schema
        "is not disjoint from the logical; this is a common situation").
        """

        merged = Schema(name or f"{self.name}+{other.name}")
        for source in (self, other):
            for sname in source.names():
                ty = source.type_of(sname)
                if sname in merged:
                    if merged.type_of(sname) != ty:
                        raise SchemaError(
                            f"conflicting types for shared name {sname!r}"
                        )
                else:
                    merged.add(sname, ty)
            for info in source.classes():
                if info.name not in merged._classes:
                    merged._classes[info.name] = info
        merged.constraints = list(self.constraints) + [
            c for c in other.constraints if c not in self.constraints
        ]
        return merged

    def __repr__(self) -> str:
        return f"Schema({self.name}, names={list(self._types)})"
