"""Candidate physical structures mined from a workload's queries.

The paper's central claim — materialized views, indexes, join indexes and
ASRs are all *uniformly* expressible as constraint pairs (section 2) —
means a design advisor needs no per-structure optimizer support: a
candidate is just an object with ``constraints()`` and ``install()``, and
the cost-bounded backchase prices it like any other physical structure.
This module enumerates the candidates:

* **full views** — each workload query's own materialization (the
  struct-ified :func:`repro.semcache.view.view_definition` capture the
  semantic cache uses for executed results);
* **join-core views** — the query with its constant selections stripped
  and every path the query still needs exported as a struct field, so one
  structure serves a whole family of selections over the same join.  For
  navigation chains (dependent bindings such as ``depts d, d.DProjs s``)
  this is exactly the paper's ASR/join-index shape materialized as a view
  relation;
* **index dictionaries** — a :class:`~repro.physical.indexes.SecondaryIndex`
  for every ``R.A`` that appears in an equality (selection or join), or a
  :class:`~repro.physical.indexes.PrimaryIndex` when the catalog says the
  attribute is unique (NDV == cardinality).

Enumeration is deterministic: candidates appear in workload order, views
before indexes per query, and duplicates (same canonical view definition,
same indexed attribute) are emitted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.constraints.epcd import EPCD
from repro.optimizer.cost import estimate_cost
from repro.optimizer.statistics import Statistics
from repro.physical.indexes import PrimaryIndex, SecondaryIndex
from repro.physical.views import MaterializedView
from repro.model.types import SetType, StructType
from repro.query.ast import PCQuery, StructOutput
from repro.query.paths import Attr, Const, Path, SName, Var
from repro.semcache.view import view_definition

#: deterministic name prefixes for advisor-generated structures
VIEW_PREFIX = "ADV_V"
INDEX_PREFIX = "ADV_IX"

#: candidate kinds (``Candidate.kind``)
KIND_VIEW = "view"
KIND_SECONDARY = "secondary-index"
KIND_PRIMARY = "primary-index"

#: hard cap on emitted candidates (the greedy search is quadratic in this)
MAX_CANDIDATES = 32


@dataclass(frozen=True)
class Candidate:
    """One tunable physical structure: a wrapper giving the advisor a
    uniform surface over :class:`MaterializedView` / :class:`PrimaryIndex`
    / :class:`SecondaryIndex` (all of which already speak ``constraints()``
    and ``install(instance, schema)``)."""

    kind: str
    structure: object
    estimated_tuples: float
    description: str

    @property
    def name(self) -> str:
        return self.structure.name

    def constraints(self) -> List[EPCD]:
        return self.structure.constraints()

    def schema_type(self, schema):
        """The schema entry this structure contributes (the per-kind
        ``schema_type`` signatures unified behind one call), or ``None``
        when ``schema`` cannot type it — e.g. the indexed relation or a
        view source lives only in the instance.  ``None`` means "install
        the extent without a schema entry", exactly like the structures'
        own ``install(instance)`` without a schema."""

        if self.kind == KIND_VIEW:
            definition = self.structure.definition
            if any(name not in schema for name in definition.schema_names()):
                return None
            return self.structure.schema_type(schema)
        if self.structure.relation not in schema:
            return None
        return self.structure.schema_type(
            schema.type_of(self.structure.relation)
        )

    def __str__(self) -> str:
        return (
            f"{self.name} [{self.kind}, ~{self.estimated_tuples:.0f} tuples]: "
            f"{self.description}"
        )


def source_map(query: PCQuery) -> Dict[str, Path]:
    """var → binding source (shared with the what-if statistics overlay)."""

    return {b.var: b.source for b in query.bindings}


def attribute_target(
    path: Path, sources: Dict[str, Path]
) -> Optional[Tuple[str, str]]:
    """``(relation, attribute)`` when ``path`` is ``v.A`` with ``v`` bound
    directly to a schema name — the pattern a dictionary index serves (and
    the pattern whose NDV the what-if overlay resolves)."""

    if isinstance(path, Attr) and isinstance(path.base, Var):
        source = sources.get(path.base.name)
        if isinstance(source, SName):
            return (source.name, path.attr)
    return None


def _row_relation(relation: str, schema) -> bool:
    """Can ``relation`` carry a row-keyed index?  With a schema, require a
    set-of-structs type — class extents (sets of *oids*) cannot be fed to
    ``PrimaryIndex``/``SecondaryIndex.materialize`` (``row[attr]`` on an
    ``Oid`` fails).  Without a schema entry there is nothing to check, so
    the candidate is emitted (the what-if never materializes anything)."""

    if schema is None or relation not in schema:
        return True
    relation_type = schema.type_of(relation)
    return isinstance(relation_type, SetType) and isinstance(
        relation_type.elem, StructType
    )


def _join_core(query: PCQuery) -> Optional[PCQuery]:
    """The query with constant selections stripped and every surviving
    need exported as a struct field; ``None`` when there is nothing to
    strip (the core would equal the full view)."""

    kept, dropped = [], []
    for cond in query.conditions:
        if isinstance(cond.left, Const) or isinstance(cond.right, Const):
            dropped.append(cond)
        else:
            kept.append(cond)
    if not dropped:
        return None
    fields: List[Tuple[str, Path]] = []
    seen: set = set()
    used_names: set = set()

    def add(name: str, path: Path) -> None:
        if isinstance(path, Const) or path in seen:
            return
        seen.add(path)
        used_names.add(name)
        fields.append((name, path))

    output = query.output
    if isinstance(output, StructOutput):
        for name, path in output.fields:
            add(name, path)
    else:
        add("value", output.path)
    # the stripped selections must stay answerable on top of the view;
    # export names must not collide with the query's own field names
    counter = 0

    def fresh_export_name() -> str:
        nonlocal counter
        while f"S{counter}" in used_names:
            counter += 1
        name = f"S{counter}"
        counter += 1
        return name

    for cond in dropped:
        for side in (cond.left, cond.right):
            add(fresh_export_name(), side)
    if not fields:
        return None
    return PCQuery(StructOutput(tuple(fields)), query.bindings, tuple(kept))


def _view_candidate(
    name: str, definition: PCQuery, statistics: Statistics, description: str
) -> Candidate:
    # the view's size: the cost walk's last level, its conditions applied
    record = []
    estimate_cost(definition, statistics, record=record)
    rows, factors = record[-1]
    return Candidate(
        kind=KIND_VIEW,
        structure=MaterializedView(name, definition),
        estimated_tuples=max(1.0, math.prod(factors, start=rows)),
        description=description,
    )


def _index_candidate(
    relation: str, attr: str, statistics: Statistics
) -> Candidate:
    """An index dictionary on ``relation.attr`` — primary when the catalog
    proves the attribute unique, secondary otherwise."""

    name = f"{INDEX_PREFIX}_{relation}_{attr}"
    card = statistics.cardinality.get(relation)
    ndv = statistics.ndv.get(f"{relation}.{attr}")
    unique = card is not None and ndv is not None and ndv >= card > 0
    if unique:
        structure: object = PrimaryIndex(name, relation, attr)
        kind = KIND_PRIMARY
    else:
        structure = SecondaryIndex(name, relation, attr)
        kind = KIND_SECONDARY
    return Candidate(
        kind=kind,
        structure=structure,
        estimated_tuples=statistics.card(relation),
        description=f"{kind} on {relation}.{attr}",
    )


def enumerate_candidates(
    queries: Sequence[PCQuery],
    statistics: Statistics,
    available_names: FrozenSet[str],
    max_candidates: int = MAX_CANDIDATES,
    schema=None,
) -> List[Candidate]:
    """Deterministically enumerate candidate structures for a workload.

    ``available_names`` is the current physical design (the names plans may
    already read); queries mentioning anything outside it are skipped, and
    generated names never collide with it.  ``schema`` (optional) vetoes
    index candidates on non-row relations such as oid class extents.
    """

    candidates: List[Candidate] = []
    seen_views: set = set()
    seen_indexes: set = set()
    seen_names: set = set()
    view_counter = 0

    def fresh_view_name() -> str:
        nonlocal view_counter
        while f"{VIEW_PREFIX}{view_counter}" in available_names:
            view_counter += 1
        name = f"{VIEW_PREFIX}{view_counter}"
        view_counter += 1
        return name

    def add_view(definition: PCQuery, description: str) -> None:
        key = definition.canonical_key()
        if key in seen_views:
            return
        seen_views.add(key)
        name = fresh_view_name()
        seen_names.add(name)
        candidates.append(
            _view_candidate(name, definition, statistics, description)
        )

    for query in queries:
        if not query.bindings or not (query.schema_names() <= available_names):
            continue
        add_view(view_definition(query), f"materialization of: {query}")
        core = _join_core(query)
        if core is not None:
            add_view(core, f"join core of: {query}")
        sources = source_map(query)
        for cond in query.conditions:
            for side in (cond.left, cond.right):
                target = attribute_target(side, sources)
                if target is None or target in seen_indexes:
                    continue
                relation = target[0]
                if relation not in available_names:
                    continue
                if not _row_relation(relation, schema):
                    continue
                seen_indexes.add(target)
                cand = _index_candidate(*target, statistics)
                # names are "_"-joined, so distinct (relation, attr) pairs
                # can collide when the identifiers themselves contain
                # underscores — first wins, later homonyms are dropped
                # (a duplicate name would corrupt what-if overlays and
                # installs alike)
                if cand.name in seen_names or cand.name in available_names:
                    continue
                seen_names.add(cand.name)
                candidates.append(cand)

    return candidates[:max_candidates]


def iter_constraints(design: Iterable[Candidate]) -> List[EPCD]:
    """The concatenated constraint pairs of a candidate set (EPCD objects
    shared, nothing re-derived — the same discipline as
    :meth:`OptimizeContext.override`)."""

    return [dep for cand in design for dep in cand.constraints()]
