"""Class extents as dictionaries (section 1, "Example continued: physical
schema").

An OO class ``C`` with extent ``ext`` is represented physically as a
dictionary ``C_d`` "whose keys are the oids, whose domain is the extent,
and whose entries are records of the components of the objects".  The
encoding is captured by constraints:

* extent pair:   ``ext ⊆ dom(C_d)`` and ``dom(C_d) ⊆ ext``;
* per set-valued attribute ``S`` a membership pair (the paper's dDept)::

      forall(o in ext, m in o.S) ->
          exists(o' in dom(C_d), m' in C_d[o'].S) o = o' and m = m'

  plus its inverse;
* per attribute ``A`` the dereference law (an EGD)::

      forall(o in dom(C_d)) -> o.A = C_d[o].A

  which states that oid navigation *is* dictionary lookup — "the implicit
  dereferencing in d.DName corresponds to the dictionary lookup in
  Dept[d].DName".

This factorization is equivalent to the paper's combined dDept pair and
composes over arbitrarily many attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.constraints.epcd import EPCD
from repro.errors import InstanceError
from repro.model.instance import Instance
from repro.model.schema import ClassInfo, Schema
from repro.model.types import DictType, SetType, StructType
from repro.model.values import DictValue, Oid, Row
from repro.query.ast import Binding, Eq
from repro.query.paths import Attr, Dom, Lookup, SName, Var


@dataclass(frozen=True)
class ClassEncoding:
    """The dictionary encoding of one class."""

    class_name: str
    extent: str
    dict_name: str
    attributes: StructType

    def constraints(self) -> List[EPCD]:
        """The EPCDs characterizing the encoding.

        Membership pairs precede the extent pair so the chase prefers the
        combined step (avoids redundant dom bindings in universal plans).
        """

        ext = SName(self.extent)
        cd = SName(self.dict_name)
        o, o1 = Var("o"), Var("o1")
        result: List[EPCD] = []
        for attr_name, attr_type in self.attributes.fields:
            if isinstance(attr_type, SetType):
                result.append(
                    EPCD(
                        name=f"{self.class_name}_{attr_name}_mem1",
                        premise_bindings=(
                            Binding("o", ext),
                            Binding("m", Attr(o, attr_name)),
                        ),
                        conclusion_bindings=(
                            Binding("o1", Dom(cd)),
                            Binding("m1", Attr(Lookup(cd, o1), attr_name)),
                        ),
                        conclusion_conditions=(
                            Eq(o, o1),
                            Eq(Var("m"), Var("m1")),
                        ),
                    )
                )
                result.append(
                    EPCD(
                        name=f"{self.class_name}_{attr_name}_mem2",
                        premise_bindings=(
                            Binding("o1", Dom(cd)),
                            Binding("m1", Attr(Lookup(cd, o1), attr_name)),
                        ),
                        conclusion_bindings=(
                            Binding("o", ext),
                            Binding("m", Attr(Var("o"), attr_name)),
                        ),
                        conclusion_conditions=(
                            Eq(o1, Var("o")),
                            Eq(Var("m1"), Var("m")),
                        ),
                    )
                )
        result.append(
            EPCD(
                name=f"{self.class_name}_ext1",
                premise_bindings=(Binding("o", ext),),
                conclusion_bindings=(Binding("o1", Dom(cd)),),
                conclusion_conditions=(Eq(o, o1),),
            )
        )
        result.append(
            EPCD(
                name=f"{self.class_name}_ext2",
                premise_bindings=(Binding("o1", Dom(cd)),),
                conclusion_bindings=(Binding("o", ext),),
                conclusion_conditions=(Eq(o1, Var("o")),),
            )
        )
        for attr_name, _attr_type in self.attributes.fields:
            result.append(
                EPCD(
                    name=f"{self.class_name}_{attr_name}_deref",
                    premise_bindings=(Binding("o", Dom(cd)),),
                    conclusion_conditions=(
                        Eq(Attr(o, attr_name), Attr(Lookup(cd, o), attr_name)),
                    ),
                )
            )
        return result

    def schema_type(self) -> DictType:
        from repro.model.types import OidType

        return DictType(OidType(self.class_name), self.attributes)

    def register(self, schema: Schema) -> ClassInfo:
        """Declare the class (extent) and the dictionary in ``schema``."""

        info = schema.add_class(self.class_name, self.extent, self.attributes)
        schema.add(self.dict_name, self.schema_type())
        schema.add_constraints(self.constraints())
        return info

    # -- materialization ------------------------------------------------------

    def populate(
        self, instance: Instance, objects: Dict[Oid, Row]
    ) -> DictValue:
        """Install the class dictionary and extent from an oid→row map."""

        for oid in objects:
            if oid.class_name != self.class_name:
                raise InstanceError(
                    f"oid {oid!r} does not belong to class {self.class_name}"
                )
        value = DictValue(objects)
        instance[self.dict_name] = value
        instance[self.extent] = frozenset(objects)
        instance.register_class(self.class_name, self.dict_name)
        return value
