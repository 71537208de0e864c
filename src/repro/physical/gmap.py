"""Gmaps [TsatalosSolomonIoannidis] as dictionaries with constraints.

Section 2: "we capture the intended meaning of a general gmap definition
using dictionaries::

    dict z in (select O1(x̄) from P̄(x̄) where B(x̄)) =>
              (select O2(x̄) from P̄(x̄) where B(x̄) and O1(x̄) = z)"

characterized by the dependency pair

* GM1: ``forall(x̄ in P̄) B -> exists(z in dom G, t in G[z]) z = O1 and t = O2``
* GM2: ``forall(z in dom G, t in G[z]) -> exists(x̄ in P̄) B and z = O1 and t = O2``

The paper notes gmaps correlate domain and range by construction; our
encoding also supports the *generalized* form where O1 and O2 are
independent outputs over the same body.

A gmap is built like a materialized view (:mod:`repro.physical.views`):
one compiled run (:func:`repro.exec.engine.execute`) of the body with a
flattened struct output — the key fields, then the value fields — whose
rows are then grouped by their key part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.constraints.epcd import EPCD
from repro.errors import ConstraintError
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.model.schema import Schema
from repro.model.types import SetType
from repro.model.values import DictValue, Row
from repro.query.ast import Binding, Eq, PCQuery, StructOutput
from repro.query.paths import Attr, Dom, Lookup, Path, SName, Var


@dataclass(frozen=True)
class GMap:
    """A gmap: body + key output (O1) + value output (O2)."""

    name: str
    bindings: Tuple[Binding, ...]
    conditions: Tuple[Eq, ...]
    key_output: Union[Path, StructOutput]
    value_output: Union[Path, StructOutput]

    def _fresh(self, base: str) -> str:
        used = {b.var for b in self.bindings}
        candidate = base
        i = 0
        while candidate in used:
            i += 1
            candidate = f"{base}{i}"
        return candidate

    def _key_conds(self, z: str) -> Tuple[Eq, ...]:
        if isinstance(self.key_output, StructOutput):
            return tuple(
                Eq(Attr(Var(z), attr), path) for attr, path in self.key_output.fields
            )
        return (Eq(Var(z), self.key_output),)

    def _value_conds(self, t: str) -> Tuple[Eq, ...]:
        if isinstance(self.value_output, StructOutput):
            return tuple(
                Eq(Attr(Var(t), attr), path)
                for attr, path in self.value_output.fields
            )
        return (Eq(Var(t), self.value_output),)

    def constraints(self) -> List[EPCD]:
        z, t = self._fresh("z"), self._fresh("t")
        g = SName(self.name)
        gm1 = EPCD(
            name=f"{self.name}_gm1",
            premise_bindings=self.bindings,
            premise_conditions=self.conditions,
            conclusion_bindings=(
                Binding(z, Dom(g)),
                Binding(t, Lookup(g, Var(z))),
            ),
            conclusion_conditions=self._key_conds(z) + self._value_conds(t),
        )
        gm2 = EPCD(
            name=f"{self.name}_gm2",
            premise_bindings=(
                Binding(z, Dom(g)),
                Binding(t, Lookup(g, Var(z))),
            ),
            conclusion_bindings=self.bindings,
            conclusion_conditions=self.conditions
            + self._key_conds(z)
            + self._value_conds(t),
        )
        return [gm1, gm2]

    def _flat_query(self) -> PCQuery:
        """The body with one struct output: the key output's fields as
        ``k0, k1, ...``, then the value output's as ``v0, v1, ...``."""

        fields = tuple(
            (f"{side}{i}", path)
            for side, output in (("k", self.key_output), ("v", self.value_output))
            for i, path in enumerate(_paths(output))
        )
        return PCQuery(StructOutput(fields), self.bindings, self.conditions)

    def materialize(self, instance: Instance) -> DictValue:
        """Group value outputs by key output over the body."""

        flat = self._flat_query()
        names = [name for name, _ in flat.output.fields]
        split = len(_paths(self.key_output))
        buckets: Dict = {}
        for row in execute(flat, instance, mode="compiled").results:
            values = [row[name] for name in names]
            key = _rebuild(self.key_output, values[:split])
            buckets.setdefault(key, set()).add(
                _rebuild(self.value_output, values[split:])
            )
        return DictValue({k: frozenset(v) for k, v in buckets.items()})

    def install(self, instance: Instance, schema: Schema = None) -> DictValue:
        value = self.materialize(instance)
        instance[self.name] = value
        return value

    @staticmethod
    def from_queries(name: str, domain_query: PCQuery, value_output) -> "GMap":
        """Convenience: gmap from the domain query plus a value output over
        the same body (the paper's ``dict z in Q1 => Q2[z]`` notation)."""

        key_output = (
            domain_query.output
            if isinstance(domain_query.output, StructOutput)
            else domain_query.output.path
        )
        return GMap(
            name=name,
            bindings=domain_query.bindings,
            conditions=domain_query.conditions,
            key_output=key_output,
            value_output=value_output,
        )


def _paths(output: Union[Path, StructOutput]) -> Tuple[Path, ...]:
    return output.paths() if isinstance(output, StructOutput) else (output,)


def _rebuild(output: Union[Path, StructOutput], values: Sequence[Any]) -> Any:
    """One output's value from its flattened field values."""

    if isinstance(output, StructOutput):
        return Row({name: v for (name, _), v in zip(output.fields, values)})
    return values[0]
