"""Workload-driven physical design advisor.

The paper shows one chase & backchase engine optimizes against *any*
physical design, because views, indexes, join indexes and ASRs are all
captured as constraint pairs (section 2).  This package closes the loop:
it uses the plan space the backchase already enumerates to *choose* the
design — the AutoAdmin-style what-if tuning step.

* :mod:`~repro.advisor.candidates` — mine candidate views (full
  materializations, join cores / ASR-shaped navigation views) and index
  dictionaries from the workload's queries;
* :mod:`~repro.advisor.whatif` — price a hypothetical design with one
  ``OptimizeContext.override`` + pruned backchase per query, plan-cached
  per design fingerprint;
* :mod:`~repro.advisor.advisor` — greedy benefit-density knapsack under
  structure-count + tuple-space budgets, returning an
  :class:`AdvisorReport`;
* :mod:`~repro.advisor.workload` — strip a built-in workload to its
  logical core so designs can be proposed from scratch.

Front doors: ``Database.advise(workload, budget=…)`` /
``Database.apply_design(report)`` and ``python -m repro tune``.
"""

from repro.advisor.advisor import (
    AdvisorReport,
    DesignBudget,
    PhysicalDesignAdvisor,
    QueryDelta,
    normalize_workload,
)
from repro.advisor.candidates import (
    Candidate,
    KIND_PRIMARY,
    KIND_SECONDARY,
    KIND_VIEW,
    enumerate_candidates,
)
from repro.advisor.whatif import WhatIfCoster, estimated_design_statistics
from repro.advisor.workload import (
    logical_database,
    structure_views,
    tunable_structures,
)

__all__ = [
    "AdvisorReport",
    "Candidate",
    "DesignBudget",
    "KIND_PRIMARY",
    "KIND_SECONDARY",
    "KIND_VIEW",
    "PhysicalDesignAdvisor",
    "QueryDelta",
    "WhatIfCoster",
    "enumerate_candidates",
    "estimated_design_statistics",
    "logical_database",
    "normalize_workload",
    "structure_views",
    "tunable_structures",
]
