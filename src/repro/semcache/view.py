"""Cached views: executed query results captured as materialized views.

The paper's Section 2 machinery captures a materialized view by the
constraint pair ``cV``/``c'V`` (:class:`repro.physical.views.MaterializedView`);
a cached result is exactly such a view whose extent happens to be the
result set of an already-executed query.  :func:`make_cached_view`
normalizes any executed query into that shape:

* struct-output queries are their own view definition and their result set
  is the extent;
* path-output queries (``select P ...``) are wrapped as
  ``select struct(value = P) ...`` — the extent wraps each result in a
  one-field row so the view is a legal relation, and rewritten plans
  project ``v.value`` back out automatically (the rewrite machinery keeps
  the *original* query's output shape).

A view with ``extent=None`` is **plan-only**: it contributes its
constraint pair to rewrites (the CLI's ``optimize --cache`` mode plans
across query files without any data) but can never serve results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.constraints.epcd import EPCD
from repro.optimizer.cost import observed_extent_ndvs
from repro.model.values import Row
from repro.physical.views import MaterializedView
from repro.query.ast import PCQuery, PathOutput, StructOutput

#: field name used when wrapping a path-output query into a struct view
VALUE_FIELD = "value"


def view_definition(query: PCQuery) -> PCQuery:
    """The struct-output view definition capturing ``query``."""

    if isinstance(query.output, StructOutput):
        return query
    return PCQuery(
        StructOutput(((VALUE_FIELD, query.output.path),)),
        query.bindings,
        query.conditions,
    )


def view_extent(query: PCQuery, results: FrozenSet) -> FrozenSet:
    """``results`` reshaped to rows of the struct-ified view definition."""

    if isinstance(query.output, StructOutput):
        return results
    return frozenset(Row({VALUE_FIELD: value}) for value in results)


@dataclass
class CachedView:
    """One entry of the semantic cache.

    ``query`` is the executed query in its original shape (used for exact
    hits), ``view`` the struct-output materialized-view capture whose
    ``cV``/``c'V`` pair drives rewrites, ``extent`` the view-shaped result
    rows served to rewritten plans, and ``result`` the original-shaped
    result set served on exact hits.  ``clock`` is the instance's write
    clock read before the request that computed it: the cache drops the
    view once any of its ``dependencies`` is written after it.
    """

    name: str
    query: PCQuery
    view: MaterializedView
    extent: Optional[FrozenSet]
    result: Optional[FrozenSet]
    sources: FrozenSet[str]
    #: names whose mutation must invalidate this view: the syntactic
    #: ``sources`` plus anything read implicitly at evaluation time (class
    #: dictionaries dereferenced through oids).  Invalidation keys on this;
    #: rewrite relevance keys on ``sources`` only.
    dependencies: FrozenSet[str]
    constraints: List[EPCD]
    registered_at: int
    hits: int = 0
    clock: int = 0
    last_used_at: int = field(default=0)
    #: accumulated *observed* benefit: for every rewrite or hybrid answer
    #: this view served, the estimated cost delta between the winning plan
    #: and the cold plan (clamped non-negative, split across the views the
    #: plan read).  The eviction policy adds it to the a-priori
    #: recomputation saving, so views that keep paying for themselves in
    #: partial hits stay resident.
    benefit: float = 0.0
    #: exact per-attribute NDVs of the extent, computed once at admission
    #: (:func:`repro.optimizer.cost.observed_extent_ndvs`) so per-request
    #: catalog overlays never rescan the stored rows.
    observed_ndv: Dict[str, float] = field(default_factory=dict)

    @property
    def plan_only(self) -> bool:
        return self.extent is None

    def tuples(self) -> int:
        return len(self.extent) if self.extent is not None else 0

    def relevant_to(self, query_names: FrozenSet[str]) -> bool:
        """Can this view possibly serve a query over ``query_names``?

        The forward constraint ``cV`` only fires when every source relation
        of the view matches into the query, so views mentioning names the
        query does not are filtered out before the per-request chase.
        """

        return self.sources <= query_names

    def __str__(self) -> str:
        size = "plan-only" if self.plan_only else f"{self.tuples()} tuples"
        return f"{self.name} ({size}, {self.hits} hits): {self.query}"


def make_cached_view(
    name: str,
    query: PCQuery,
    results: Optional[FrozenSet],
    registered_at: int,
    extra_dependencies: FrozenSet[str] = frozenset(),
    clock: int = 0,
) -> CachedView:
    """Capture an executed query (or, with ``results=None``, just its
    shape) as a cached view named ``name``.

    ``extra_dependencies`` are names the evaluation read without naming
    them syntactically — sessions pass the instance's class-dictionary
    names here, since any attribute access may dereference an oid through
    them and a mutation would otherwise go unnoticed.  ``clock`` is the
    write clock the results were computed at.
    """

    definition = view_definition(query)
    view = MaterializedView(name, definition)
    sources = query.schema_names()
    extent = None if results is None else view_extent(query, results)
    return CachedView(
        name=name,
        query=query,
        view=view,
        extent=extent,
        result=results,
        sources=sources,
        dependencies=sources | extra_dependencies,
        constraints=view.constraints(),
        registered_at=registered_at,
        clock=clock,
        last_used_at=registered_at,
        observed_ndv=observed_extent_ndvs(extent),
    )
