"""Greedy benefit-density selection of a physical design under budgets.

Algorithm (the classic workload-driven tuning loop, with the backchase as
the what-if oracle):

1. cost every workload query under the *current* design — the baseline;
2. enumerate candidates (:mod:`repro.advisor.candidates`);
3. greedily add the candidate with the highest **benefit density** —
   weighted workload cost saved per tuple of space it occupies, the same
   scoring shape as the semantic cache's
   :class:`~repro.semcache.policy.CostBenefitPolicy` — re-costing the
   workload under ``chosen + candidate`` each round
   (:class:`~repro.advisor.whatif.WhatIfCoster` memoizes shared
   subproblems), until the structure-count budget, the tuple-space budget
   or a round with no strictly positive benefit stops the loop.
   Candidates showing no marginal gain in a round are pruned from later
   rounds (the standard greedy approximation: a structure valuable only
   alongside a not-yet-chosen partner is missed, but the what-if count
   stays near-linear in the candidate pool).

Everything is deterministic for a fixed workload + budget: candidates are
enumerated in workload order, ties break on candidate name, and the cost
model is pure arithmetic — the report is golden-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.advisor.candidates import (
    Candidate,
    MAX_CANDIDATES,
    enumerate_candidates,
)
from repro.advisor.whatif import WhatIfCoster
from repro.api.context import OptimizeContext
from repro.api.plancache import PlanCacheInfo
from repro.errors import OptimizationError
from repro.query.ast import PCQuery

#: gains at or below this are noise, not benefit
MIN_GAIN = 1e-9

WorkloadItem = Union[str, PCQuery, Tuple[Union[str, PCQuery], float]]


@dataclass(frozen=True)
class DesignBudget:
    """Space budget for one advisor run: at most ``max_structures`` chosen
    structures occupying at most ``max_total_tuples`` estimated tuples —
    the same two-axis bound the semantic cache's eviction policy enforces
    on its view pool."""

    max_structures: int = 4
    max_total_tuples: float = 200_000.0


@dataclass
class QueryDelta:
    """Baseline vs tuned plan for one workload query."""

    query: PCQuery
    weight: float
    baseline_cost: float
    tuned_cost: float
    baseline_plan: str
    tuned_plan: str

    @property
    def benefit(self) -> float:
        return self.weight * (self.baseline_cost - self.tuned_cost)


@dataclass
class AdvisorReport:
    """The advisor's answer: the chosen design plus the evidence for it."""

    budget: DesignBudget
    chosen: List[Candidate]
    deltas: List[QueryDelta]
    baseline_total: float
    tuned_total: float
    candidates_considered: int
    rounds: int
    plan_cache: PlanCacheInfo
    chosen_tuples: float = field(default=0.0)

    @property
    def total_benefit(self) -> float:
        return self.baseline_total - self.tuned_total

    def chosen_names(self) -> List[str]:
        return [cand.name for cand in self.chosen]

    def report(self) -> str:
        """A printable summary (deterministic for a fixed workload +
        budget — the CLI output and the golden test both render this)."""

        lines = [
            f"physical design advisor: {len(self.deltas)} queries, "
            f"{self.candidates_considered} candidates considered, "
            f"{self.rounds} greedy rounds",
            f"budget: <= {self.budget.max_structures} structures, "
            f"<= {self.budget.max_total_tuples:.0f} tuples",
        ]
        if self.chosen:
            lines.append(
                f"chosen design ({len(self.chosen)} structures, "
                f"~{self.chosen_tuples:.0f} tuples):"
            )
            lines.extend(f"  {cand}" for cand in self.chosen)
        else:
            lines.append(
                "chosen design: (empty — no candidate beat the current design)"
            )
        lines.append("per-query deltas:")
        for i, delta in enumerate(self.deltas, start=1):
            ratio = (
                delta.baseline_cost / delta.tuned_cost
                if delta.tuned_cost
                else float("inf")
            )
            lines.append(
                f"  [{i}] weight {delta.weight:g}: cost {delta.baseline_cost:.1f}"
                f" -> {delta.tuned_cost:.1f} ({ratio:.1f}x): {delta.query}"
            )
            lines.append(f"      plan: {delta.tuned_plan}")
        ratio = (
            self.baseline_total / self.tuned_total
            if self.tuned_total
            else float("inf")
        )
        lines.append(
            f"total estimated workload cost: {self.baseline_total:.1f} -> "
            f"{self.tuned_total:.1f} "
            f"(benefit {self.total_benefit:.1f}, {ratio:.1f}x)"
        )
        return "\n".join(lines)


def normalize_workload(workload: Sequence[WorkloadItem]) -> List[Tuple[PCQuery, float]]:
    """``(query, weight)`` pairs from the accepted workload shapes: a
    query (or OQL text), or a ``(query, frequency)`` pair."""

    from repro.query.parser import parse_query

    entries: List[Tuple[PCQuery, float]] = []
    for item in workload:
        weight = 1.0
        if isinstance(item, tuple):
            item, weight = item
        if isinstance(item, str):
            item = parse_query(item)
        if not isinstance(item, PCQuery):
            raise OptimizationError(
                f"workload items must be queries, OQL text or (query, "
                f"frequency) pairs, got {type(item).__name__}"
            )
        entries.append((item, float(weight)))
    if not entries:
        raise OptimizationError("advise() needs a non-empty workload")
    return entries


class PhysicalDesignAdvisor:
    """Pick the best physical design for a workload under a space budget,
    using the backchase itself as the what-if oracle."""

    def __init__(
        self,
        context: OptimizeContext,
        available_names: FrozenSet[str],
        max_candidates: int = MAX_CANDIDATES,
        schema=None,
    ) -> None:
        self.context = context
        self.available_names = frozenset(available_names)
        self.max_candidates = max_candidates
        self.schema = schema  # vetoes index candidates on non-row relations
        self.coster = WhatIfCoster(context, self.available_names)

    # -- costing -----------------------------------------------------------

    def _workload_total(
        self,
        entries: List[Tuple[PCQuery, float]],
        design: Tuple[Candidate, ...],
    ) -> Optional[float]:
        """Weighted total cost of the workload under ``design``, or
        ``None`` when any query fails to optimize under it."""

        total = 0.0
        for query, weight in entries:
            plan = self.coster.best_plan(query, design)
            if plan is None:
                return None
            total += weight * plan.cost
        return total

    # -- the greedy loop ---------------------------------------------------

    def advise(
        self,
        workload: Sequence[WorkloadItem],
        budget: Optional[DesignBudget] = None,
    ) -> AdvisorReport:
        budget = budget or DesignBudget()
        entries = normalize_workload(workload)

        baseline_total = self._workload_total(entries, ())
        if baseline_total is None:
            raise OptimizationError(
                "advisor baseline failed: the workload does not optimize "
                "under the current design"
            )

        candidates = enumerate_candidates(
            [query for query, _ in entries],
            self.context.statistics,
            self.available_names,
            max_candidates=self.max_candidates,
            schema=self.schema,
        )

        chosen: List[Candidate] = []
        chosen_tuples = 0.0
        current_total = baseline_total
        remaining = list(candidates)
        rounds = 0
        while len(chosen) < budget.max_structures and remaining:
            rounds += 1
            best: Optional[Tuple[float, float, Candidate, float]] = None
            survivors: List[Candidate] = []
            for cand in remaining:
                # Exceeding the tuple budget is permanent (the occupied
                # space only grows), so budget-breakers drop for good.
                if chosen_tuples + cand.estimated_tuples > budget.max_total_tuples:
                    continue
                total = self._workload_total(entries, tuple(chosen) + (cand,))
                if total is None:
                    continue
                gain = current_total - total
                if gain <= MIN_GAIN:
                    # No marginal benefit on top of the current choice:
                    # prune from later rounds.  This is the standard greedy
                    # approximation — a candidate useful *only* in
                    # combination with a not-yet-chosen partner is lost —
                    # and it keeps the what-if count linear-ish instead of
                    # quadratic in the candidate pool.
                    continue
                survivors.append(cand)
                density = gain / (1.0 + cand.estimated_tuples)
                ranked = (density, gain, cand, total)
                if best is None or (density, gain) > (best[0], best[1]) or (
                    (density, gain) == (best[0], best[1])
                    and cand.name < best[2].name
                ):
                    best = ranked
            if best is None:
                break
            _, _, winner, total = best
            chosen.append(winner)
            chosen_tuples += winner.estimated_tuples
            current_total = total
            survivors.remove(winner)
            remaining = survivors

        final_design = tuple(chosen)
        deltas: List[QueryDelta] = []
        tuned_total = 0.0
        for query, weight in entries:
            baseline_plan = self.coster.best_plan(query, ())
            tuned_plan = self.coster.best_plan(query, final_design)
            if tuned_plan is None:  # pragma: no cover - chosen designs costed fine
                tuned_plan = baseline_plan
            deltas.append(
                QueryDelta(
                    query=query,
                    weight=weight,
                    baseline_cost=baseline_plan.cost,
                    tuned_cost=tuned_plan.cost,
                    baseline_plan=str(baseline_plan.query),
                    tuned_plan=str(tuned_plan.query),
                )
            )
            tuned_total += weight * tuned_plan.cost

        return AdvisorReport(
            budget=budget,
            chosen=chosen,
            deltas=deltas,
            baseline_total=baseline_total,
            tuned_total=tuned_total,
            candidates_considered=len(candidates),
            rounds=rounds,
            plan_cache=self.coster.cache_info(),
            chosen_tuples=chosen_tuples,
        )
