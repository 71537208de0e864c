"""Materialized views (and source capabilities) as constraints.

Section 2: a view ``V = select O(x̄) from P̄(x̄) where B(x̄)`` is captured
by the inclusion pair

* ``cV :  forall(x̄ in P̄) B(x̄) -> exists(v in V) O(x̄) = v``
* ``c'V:  forall(v in V) -> exists(x̄ in P̄) B(x̄) and O(x̄) = v``

``cV`` is a full dependency — chasing with the ``cV`` of every view is the
bounding chase of Theorem 1.  Source capabilities of information
integration systems are described by the same pair (or by dictionaries
modelling binding patterns; see :mod:`repro.physical.gmap`).

A view is built by running its definition through the executor's
compiled mode (:func:`repro.exec.engine.execute`), the same path a plan
takes: ``install``, ``refresh``, the ASRs and join-index views built on
this class and ``Database.apply_design`` all materialize here.  The
reference evaluator is the oracle the tests compare those extents to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.constraints.epcd import EPCD
from repro.errors import ConstraintError, SchemaError
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.model.schema import Schema
from repro.model.types import SetType
from repro.query.ast import Binding, Eq, PCQuery, StructOutput
from repro.query.paths import Attr, SName, Var
from repro.query.typing import typecheck_query


@dataclass(frozen=True)
class MaterializedView:
    """A named, materialized PC view with struct output."""

    name: str
    definition: PCQuery

    def __post_init__(self) -> None:
        if not isinstance(self.definition.output, StructOutput):
            raise ConstraintError(
                f"view {self.name}: definition must have a struct output"
            )
        if self.name in self.definition.schema_names():
            raise ConstraintError(f"view {self.name} refers to itself")

    def _view_var(self) -> str:
        used = set(self.definition.binding_vars())
        candidate = "v"
        i = 0
        while candidate in used:
            i += 1
            candidate = f"v{i}"
        return candidate

    def constraints(self) -> List[EPCD]:
        v = self._view_var()
        fields: Tuple[Tuple[str, object], ...] = self.definition.output.fields
        out_conds = tuple(
            Eq(Attr(Var(v), attr), path) for attr, path in fields
        )
        forward = EPCD(
            name=f"{self.name}_cv",
            premise_bindings=self.definition.bindings,
            premise_conditions=self.definition.conditions,
            conclusion_bindings=(Binding(v, SName(self.name)),),
            conclusion_conditions=out_conds,
        )
        backward = EPCD(
            name=f"{self.name}_cv'",
            premise_bindings=(Binding(v, SName(self.name)),),
            conclusion_bindings=self.definition.bindings,
            conclusion_conditions=self.definition.conditions + out_conds,
        )
        return [forward, backward]

    def schema_type(self, schema: Schema) -> SetType:
        typed = typecheck_query(self.definition, schema, strict=False)
        if not isinstance(typed.output_type, SetType):
            raise SchemaError(f"view {self.name}: unexpected output type")
        return typed.output_type

    def materialize(self, instance: Instance) -> FrozenSet:
        return execute(self.definition, instance, mode="compiled").results

    def install(self, instance: Instance, schema: Schema = None) -> FrozenSet:
        value = self.materialize(instance)
        instance[self.name] = value
        if schema is not None and self.name not in schema:
            schema.add(self.name, self.schema_type(schema))
        return value

    def refresh(self, instance: Instance) -> FrozenSet:
        """Recompute after base data changed (full refresh)."""

        value = self.materialize(instance)
        instance[self.name] = value
        return value
