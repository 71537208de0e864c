"""Hash tables as transient secondary indexes (section 2, "Hash tables").

"A hash table for a relation can be viewed as a dictionary in which keys
are the results of applying the hash function to tuples, while the entries
are the buckets. [...] A hash table differs from an index because it is
not usually materialized; however a hash-join algorithm would have to
compute it on the fly.  In our framework we can rewrite join queries into
queries that correspond to hash-join plans, provided that the hash table
exists, in the same way we rewrite queries into plans that use indexes."

We use the identity hash function on the join attribute, which makes the
hash table constraint-identical to a secondary index; the difference is
operational: the caller builds it for one execution
(:meth:`HashTable.install_transient`) rather than persisting it in the
physical schema.  No executor builds one behind a plan: a hash join is
a plan over this dictionary, probed like any other index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.constraints.epcd import EPCD
from repro.model.instance import Instance
from repro.model.values import DictValue
from repro.physical.indexes import SecondaryIndex


@dataclass(frozen=True)
class HashTable:
    """An on-the-fly hash table on ``relation.key_attr``."""

    name: str
    relation: str
    key_attr: str

    def _index(self) -> SecondaryIndex:
        return SecondaryIndex(self.name, self.relation, self.key_attr)

    def constraints(self) -> List[EPCD]:
        """Identical in shape to a secondary index's constraints — the
        rewriting machinery treats a hash-join plan like an index plan."""

        return self._index().constraints()

    def build(self, instance: Instance) -> DictValue:
        """Compute the buckets (what a hash join does at build time)."""

        return self._index().materialize(instance)

    def install_transient(self, instance: Instance) -> DictValue:
        """Install into the instance for the duration of one execution."""

        value = self.build(instance)
        instance[self.name] = value
        return value
