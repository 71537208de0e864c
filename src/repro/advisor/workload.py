"""Strip a built-in workload down to its logical core.

Every built-in workload (``repro.api.build_workload``) ships a
*hand-written* physical design: views, indexes, join indexes and ASRs
installed into the instance with their constraint pairs in the constraint
set.  Tuning experiments need the opposite starting point — the same data
with **no** tunable structures — so :func:`logical_database` rebuilds a
:class:`~repro.api.database.Database` holding only the base relations,
class encodings (oid dereference needs the class dictionaries — they are
the *representation* of the data, not a tunable access structure) and the
logical/encoding constraints.  The advisor then proposes a design from
scratch, and benchmarks can compare empty vs advisor-chosen vs
hand-written on identical data.
"""

from __future__ import annotations

from typing import List

from repro.api.workloads import build_workload
from repro.model.instance import Instance
from repro.physical.views import MaterializedView


def tunable_structures(workload) -> List[object]:
    """The workload's hand-written access structures — everything a design
    advisor could have chosen (views, indexes, join views, ASRs), read off
    the attributes the builders expose.  Class encodings are deliberately
    not included (see the module docstring).

    The attribute list below is the contract: a new workload builder must
    expose its tunable structures under one of these names (or extend the
    list) for :func:`logical_database` to strip them — an attribute-typed
    sweep is not used on purpose, since class encodings also speak
    ``constraints()``/``install()`` but are *not* tunable."""

    structures: List[object] = []
    for attr in ("views", "indexes"):
        structures.extend(getattr(workload, attr, ()) or ())
    for attr in ("primary_index", "secondary_index", "join_view", "asr"):
        structure = getattr(workload, attr, None)
        if structure is not None:
            structures.append(structure)
    return structures


def structure_views(workload) -> List[MaterializedView]:
    """The query-defined structures among :func:`tunable_structures`, each
    as the view it installs (an ASR or a join index through its
    ``view()``) — the definitions the workload's builder materialized."""

    views: List[MaterializedView] = []
    for structure in tunable_structures(workload):
        if hasattr(structure, "view"):
            structure = structure.view()
        if isinstance(structure, MaterializedView):
            views.append(structure)
    return views


def logical_database(
    name: str,
    *,
    strategy: str = "pruned",
    sample: int = None,
    **builder_kwargs,
):
    """A :class:`~repro.api.database.Database` over the named workload's
    data with the hand-written physical design stripped.

    The instance keeps only non-tunable names (base relations, class
    extents and dictionaries), the constraint set keeps only constraints
    not contributed by a tunable structure, and the physical filter is the
    surviving name set.  ``sample`` caps *every* statistics observation at
    that many rows per extent — the initial one, dirty refreshes and
    ``apply_design``'s re-observation alike
    (``Database(statistics_sample=...)``).  The built workload object
    stays reachable as ``db.workload``.
    """

    from repro.api.database import Database

    workload = build_workload(name, **builder_kwargs)
    structures = tunable_structures(workload)
    tunable_names = {structure.name for structure in structures}
    dropped_constraints = {
        dep.name for structure in structures for dep in structure.constraints()
    }

    instance = Instance(
        {
            schema_name: workload.instance[schema_name]
            for schema_name in workload.instance.names()
            if schema_name not in tunable_names
        }
    )
    for class_name, dict_name in workload.instance.class_registry().items():
        if dict_name in instance:
            instance.register_class(class_name, dict_name)

    constraints = [
        dep
        for dep in workload.constraints
        if dep.name not in dropped_constraints
    ]
    schema = getattr(workload, "logical", None) or getattr(
        workload, "schema", None
    )
    return Database(
        schema=schema,
        constraints=constraints,
        physical_names=frozenset(instance.names()),
        instance=instance,
        strategy=strategy,
        workload=workload,
        # auto-observed statistics, every observation capped at `sample`
        # rows per extent (including apply_design's refresh)
        statistics_sample=sample,
    )
