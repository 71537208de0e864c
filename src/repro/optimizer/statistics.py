"""Catalog statistics used by the cost model.

The paper defers to "good cost models" (section 7); Algorithm 1 only needs
*some* cost function C to rank the minimal plans.  We provide the standard
textbook catalog: cardinalities, distinct value counts per attribute,
average dictionary entry sizes, and average fan-outs of set-valued
attributes — computable exactly from an :class:`Instance` or supplied
synthetically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.model.instance import Instance
from repro.model.values import DictValue, Oid, Row


DEFAULT_CARD = 1000.0
DEFAULT_NDV = 20.0
DEFAULT_FANOUT = 10.0
DEFAULT_SELECTIVITY = 0.1


@dataclass
class Statistics:
    """Catalog statistics keyed by schema name (and ``name.attr``)."""

    cardinality: Dict[str, float] = field(default_factory=dict)
    entry_cardinality: Dict[str, float] = field(default_factory=dict)
    ndv: Dict[str, float] = field(default_factory=dict)
    fanout: Dict[str, float] = field(default_factory=dict)
    default_cardinality: float = DEFAULT_CARD
    default_ndv: float = DEFAULT_NDV
    default_fanout: float = DEFAULT_FANOUT

    def card(self, name: str) -> float:
        return self.cardinality.get(name, self.default_cardinality)

    def entry_card(self, name: str) -> float:
        """Average size of a set-valued dictionary entry."""

        return self.entry_cardinality.get(name, self.default_fanout)

    def distinct(self, name: str, attr: str) -> float:
        return self.ndv.get(f"{name}.{attr}", self.default_ndv)

    def attr_fanout(self, name: str, attr: str) -> float:
        return self.fanout.get(f"{name}.{attr}", self.default_fanout)

    def set_card(self, name: str, value: float) -> "Statistics":
        self.cardinality[name] = float(value)
        return self

    def set_ndv(self, name: str, attr: str, value: float) -> "Statistics":
        self.ndv[f"{name}.{attr}"] = float(value)
        return self

    def copy(self) -> "Statistics":
        """An independent copy (per-request and what-if overlays mutate the
        copy, never the shared base catalog)."""

        return Statistics(
            cardinality=dict(self.cardinality),
            entry_cardinality=dict(self.entry_cardinality),
            ndv=dict(self.ndv),
            fanout=dict(self.fanout),
            default_cardinality=self.default_cardinality,
            default_ndv=self.default_ndv,
            default_fanout=self.default_fanout,
        )

    @staticmethod
    def from_instance(
        instance: Instance, sample: Optional[int] = None
    ) -> "Statistics":
        """Collect statistics from a database instance.

        Without ``sample`` every extent is scanned in full and the numbers
        are exact.  With ``sample=n`` at most ``n`` elements per extent are
        examined: cardinalities stay exact (``len`` is O(1)), per-attribute
        NDVs are scaled estimates (observed NDV extrapolated linearly and
        capped at the cardinality), and fan-outs/entry sizes are sample
        means.  This keeps advisor what-if costing cheap on large
        instances; the sampled subset is deterministic (see
        :func:`_capped`), so repeated observations of the same instance
        agree — exact-mode callers (golden tests) still leave ``sample``
        off.
        """

        if sample is not None and sample < 1:
            raise ReproError(
                f"sample must be >= 1 (or None for a full scan), got {sample}"
            )
        stats = Statistics()
        for name in instance.names():
            value = instance[name]
            if isinstance(value, frozenset):
                stats.cardinality[name] = float(len(value))
                _collect_attr_stats(stats, name, value, instance, sample=sample)
            elif isinstance(value, DictValue):
                stats.cardinality[name] = float(len(value))
                entries = _capped(value.values(), sample)
                set_entries = [e for e in entries if isinstance(e, frozenset)]
                if set_entries:
                    total = sum(len(e) for e in set_entries)
                    stats.entry_cardinality[name] = total / len(set_entries)
                row_entries = [e for e in entries if isinstance(e, Row)]
                if row_entries:
                    # NDV extrapolation must scale by the *row* population,
                    # not the whole dict: for mixed set/row dicts estimate
                    # it from the sampled row fraction (exact when the
                    # sample covers the dict or the entries are all rows).
                    row_population = len(value) * len(row_entries) / len(entries)
                    _collect_attr_stats(
                        stats,
                        name,
                        frozenset(),
                        instance,
                        row_entries,
                        sample=sample,
                        population=row_population,
                    )
        return stats


def _capped(iterable, sample: Optional[int]) -> List:
    """The whole iterable, or a deterministic ``sample``-element subset.

    Set extents iterate in a per-process order (hash randomization) —
    ``islice`` alone would make sampled estimates, and everything
    downstream of them (advisor rankings, feedback estimates), differ run
    to run.  For sets the ``repr``-smallest elements are selected
    instead: order-free and O(n log sample) via a bounded heap, so the
    same instance always yields the same sampled catalog.  Ordered
    inputs (dict entry views, row lists) keep their own deterministic
    prefix.
    """

    if sample is None:
        return list(iterable)
    if isinstance(iterable, (set, frozenset)):
        items = list(iterable)
        if len(items) <= int(sample):
            return items
        return heapq.nsmallest(int(sample), items, key=repr)
    return list(islice(iterable, int(sample)))


#: Auto-observed statistics switch to sampling above this many rows in a
#: single extent, so feedback-driven re-observation after a mutation
#: stays cheap on large instances.
AUTO_SAMPLE_THRESHOLD = 10_000
AUTO_SAMPLE_SIZE = 2_000


def default_sample(
    instance: Optional[Instance], sample: Optional[int] = None
) -> Optional[int]:
    """The effective per-extent sample cap for auto-observed statistics:
    an explicit ``sample`` always wins; otherwise large instances (any
    extent over :data:`AUTO_SAMPLE_THRESHOLD` rows) default to
    :data:`AUTO_SAMPLE_SIZE` and small ones stay exact."""

    if sample is not None or instance is None:
        return sample
    for name in instance.names():
        value = instance[name]
        if (
            isinstance(value, (frozenset, DictValue))
            and len(value) > AUTO_SAMPLE_THRESHOLD
        ):
            return AUTO_SAMPLE_SIZE
    return None


def _collect_attr_stats(
    stats, name, collection, instance, rows=None, sample=None, population=None
):
    """NDV and fan-out per attribute of a set of rows/oids.

    With ``sample``, only that many elements are examined and observed NDVs
    are scaled by ``population / examined`` (capped at the population) —
    the standard linear extrapolation, cheap and good enough for ranking.
    """

    # cap BEFORE materializing: a sampled scan of a large extent must not
    # allocate a full-extent list just to truncate it
    source = rows if rows is not None else collection
    if population is None:
        population = len(source)
    elements = _capped(source, sample)
    examined = len(elements)
    scale = (
        population / examined
        if sample is not None and examined and population > examined
        else 1.0
    )
    per_attr_values: Dict[str, set] = {}
    per_attr_fanout: Dict[str, list] = {}
    for element in elements:
        row = element
        if isinstance(element, Oid):
            try:
                row = instance.deref(element)
            except ReproError:
                continue
        if not isinstance(row, Row):
            continue
        for attr, value in row.items():
            if isinstance(value, frozenset):
                per_attr_fanout.setdefault(attr, []).append(len(value))
            elif isinstance(value, (str, int, float, bool, Oid)):
                per_attr_values.setdefault(attr, set()).add(value)
    for attr, values in per_attr_values.items():
        if values:
            stats.ndv[f"{name}.{attr}"] = min(
                float(len(values)) * scale, float(population)
            )
    for attr, sizes in per_attr_fanout.items():
        if sizes:
            stats.fanout[f"{name}.{attr}"] = sum(sizes) / len(sizes)
