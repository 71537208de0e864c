"""E11 (ablation) — design choices the paper calls out.

* the cost-bounded search vs. the complete one (section 3: "the search
  space may not be explored exhaustively but rather pruned"): plan
  quality vs. candidates explored;
* join reordering on/off (Algorithm 1 step 3);
* one chase engine shared by a backchase search vs. a fresh one per
  decision (chase results, lookup-safety verdicts and proofs).
"""

from __future__ import annotations

import pytest

from repro.api.context import OptimizeContext
from repro.backchase import backchase
from repro.backchase.backchase import RootVerdicts, minimal_subqueries
from repro.chase.chase import ChaseEngine, chase
from repro.optimizer.optimizer import Optimizer


def test_e11_pruned_vs_full(benchmark, projdept_small):
    wl = projdept_small

    def optimize(strategy):
        result = Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                strategy=strategy,
            )
        ).optimize(wl.query)
        return result.best.cost, result.backchase_stats

    def compare():
        return optimize("pruned"), optimize("full")

    (cost_pruned, pruned), (cost_full, full) = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    # the bound cuts work and never the winner
    assert pruned.candidates_explored <= full.candidates_explored
    assert pruned.candidates_pruned > 0
    assert cost_pruned == cost_full


def test_e11_reordering_never_hurts(benchmark, projdept_small):
    wl = projdept_small

    def compare():
        with_reorder = Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                reorder=True,
            )
        ).optimize(wl.query)
        without = Optimizer(
            OptimizeContext(
                constraints=wl.constraints,
                physical_names=wl.physical_names,
                statistics=wl.statistics,
                reorder=False,
            )
        ).optimize(wl.query)
        return with_reorder.best.cost, without.best.cost

    cost_with, cost_without = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert cost_with <= cost_without


def test_e11_chase_cache_ablation(benchmark, rs_small):
    """What sharing one engine across a search buys: the same normal forms
    from strictly fewer chases than when every decision gets a fresh engine
    (no chase result, lookup-safety verdict or proof carried over)."""

    wl = rs_small
    universal = chase(wl.query, wl.constraints).query
    real_accept = backchase.accept_candidate

    def search(fresh_engine_per_decision):
        engines = [ChaseEngine(wl.constraints)]

        def accept_afresh(candidate, parent, _shared, *rest):
            engines.append(ChaseEngine(wl.constraints))
            return real_accept(candidate, parent, engines[-1], *rest)

        with pytest.MonkeyPatch.context() as patch:
            if fresh_engine_per_decision:
                patch.setattr(backchase, "accept_candidate", accept_afresh)
            forms = minimal_subqueries(RootVerdicts(universal, engines[0]))
        return [str(f) for f in forms], sum(e.cache_misses for e in engines)

    shared_forms, shared_chases = benchmark.pedantic(
        search, args=(False,), rounds=1, iterations=1
    )
    fresh_forms, fresh_chases = search(True)
    assert shared_forms == fresh_forms
    assert 0 < shared_chases < fresh_chases
