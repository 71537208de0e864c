"""What-if costing: price a candidate design without building it.

The AutoAdmin-style "what-if" step, done the paper's way: a hypothetical
design is nothing but extra constraint pairs plus names the physical
filter admits, so pricing it is one
:meth:`OptimizeContext.override(extra_constraints=…, physical_names=…,
statistics=…) <repro.api.context.OptimizeContext.override>` call followed
by the ordinary cost-bounded pruned backchase — no structure is ever
materialized.  The hypothetical catalog overlays *estimated* extent
statistics (view cardinalities from the last level of
:func:`~repro.optimizer.cost.estimate_cost`'s record, index domain sizes
from recorded NDVs) onto the base statistics, mirroring how the
semantic cache overlays *observed* extent statistics for real cached
results.

Results are retained in a :class:`~repro.api.plancache.PlanCache` keyed on
(canonical query form, candidate design fingerprint) — the same key
discipline as the :class:`~repro.api.database.Database` plan cache — so a
(query, design) subproblem shared between greedy rounds (the baseline, a
re-examined candidate set, the final report pass) is costed exactly once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.advisor.candidates import (
    KIND_PRIMARY,
    KIND_SECONDARY,
    KIND_VIEW,
    Candidate,
    attribute_target,
    iter_constraints,
    source_map,
)
from repro.api.context import OptimizeContext
from repro.api.plancache import PlanCache, PlanCacheInfo
from repro.errors import ReproError
from repro.optimizer.optimizer import Plan
from repro.optimizer.statistics import Statistics
from repro.query.ast import PCQuery

#: the (query, design) what-if plans the coster retains
WHATIF_CACHE_SIZE = 256


def estimated_design_statistics(
    base: Statistics, design: Sequence[Candidate]
) -> Statistics:
    """``base`` overlaid with estimated statistics for each hypothetical
    structure (``base`` itself is never mutated).

    Views get their estimated output cardinality plus per-field NDVs
    resolved through the definition's binding sources (capped at the view
    cardinality); secondary indexes a domain of NDV keys with
    ``cardinality/NDV`` rows per entry; primary indexes one row per key.
    """

    stats = base.copy()
    for cand in design:
        name = cand.name
        if cand.kind == KIND_VIEW:
            card = max(cand.estimated_tuples, 1.0)
            stats.cardinality[name] = card
            definition = cand.structure.definition
            sources = source_map(definition)
            for field, path in definition.output.fields:
                target = attribute_target(path, sources)
                if target is not None:
                    recorded = base.ndv.get(f"{target[0]}.{target[1]}")
                    if recorded is not None:
                        stats.ndv[f"{name}.{field}"] = min(recorded, card)
        elif cand.kind in (KIND_SECONDARY, KIND_PRIMARY):
            relation = cand.structure.relation
            attr = cand.structure.key_attr
            card = base.card(relation)
            if cand.kind == KIND_PRIMARY:
                stats.cardinality[name] = card
                stats.entry_cardinality[name] = 1.0
            else:
                ndv = base.ndv.get(f"{relation}.{attr}", base.default_ndv)
                ndv = max(min(ndv, card), 1.0)
                stats.cardinality[name] = ndv
                stats.entry_cardinality[name] = card / ndv
    return stats


class WhatIfCoster:
    """Price queries under hypothetical designs, memoizing per
    (query, design-fingerprint)."""

    def __init__(
        self, context: OptimizeContext, available_names: FrozenSet[str]
    ) -> None:
        self.base_context = context
        self.available_names = frozenset(available_names)
        self._plans = PlanCache(max_size=WHATIF_CACHE_SIZE)
        self._contexts: Dict[Tuple[str, ...], OptimizeContext] = {}

    def design_context(self, design: Sequence[Candidate]) -> OptimizeContext:
        """The optimization context of a hypothetical design: base context
        plus the candidates' constraint pairs, names and estimated
        statistics (memoized per design)."""

        key = tuple(cand.name for cand in design)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self.base_context.override(
                extra_constraints=iter_constraints(design),
                physical_names=(
                    self.available_names | frozenset(cand.name for cand in design)
                ),
                statistics=estimated_design_statistics(
                    self.base_context.statistics, design
                ),
            )
            self._contexts[key] = ctx
        return ctx

    def best_plan(
        self, query: PCQuery, design: Sequence[Candidate] = ()
    ) -> Optional[Plan]:
        """The winning plan of ``query`` under ``design``, or ``None`` when
        optimization under the hypothetical constraints fails (chase/node
        budgets) — a failing candidate simply offers no benefit, exactly
        like the semantic cache degrading a failed rewrite to cold."""

        ctx = self.design_context(design)
        key = (query.canonical_key(), ctx.fingerprint())
        entry = self._plans.get(key)
        if entry is None:
            try:
                result = ctx.optimizer().optimize(query)
            except ReproError:
                return None
            entry = self._plans.put(key, result, frozenset())
        return entry.result.best

    def cache_info(self) -> PlanCacheInfo:
        return self._plans.cache_info()
