"""E12 — cost-bounded backchase: pruning vs the full enumeration.

On the E8 scaling workloads (self-join chains over ``R`` with ``k``
secondary indexes chased in, plus the paper's selective constant) the
pruned strategy must (a) return a best plan of exactly the full
enumeration's cost and (b) explore strictly fewer candidates; and (c) both
strategies — one search, with and without the bound — decide condition (3)
at most once per candidate shape thanks to the shape-keyed verdict memo
(``cache_misses`` counts the search's verdicts plus, under ``pruned``, the
``prune_conditions`` checks of its in-search coster, so the two strategies'
miss counts are not comparable with each other).

``run_comparison`` is importable — the tier-1 smoke test
(``tests/test_bench_smoke.py``) runs it once per workload and emits
``BENCH_e12.json``.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.optimizer.optimizer import Optimizer
from repro.optimizer.statistics import Statistics
from repro.physical.indexes import SecondaryIndex
from repro.query.parser import parse_query

R_CARD = 2000.0
B_NDV = 50.0


def build_scaling_workload(n_bindings: int, n_indexes: int):
    """A chain query R x0 ⋈ ... ⋈ R x(n-1) on B with a selective constant,
    plus ``k`` secondary indexes on R.B (the E8 shape)."""

    bindings = ", ".join(f"R x{i}" for i in range(n_bindings))
    chain = " and ".join(f"x{i}.B = x{i+1}.B" for i in range(n_bindings - 1))
    conditions = (chain + " and " if chain else "") + "x0.B = 9"
    query = parse_query(
        f"select struct(A = x0.A) from {bindings} where {conditions}"
    )
    deps = []
    stats = Statistics()
    stats.set_card("R", R_CARD).set_ndv("R", "B", B_NDV)
    for i in range(n_indexes):
        name = f"IX{i}"
        deps.extend(SecondaryIndex(name, "R", "B").constraints())
        stats.cardinality[name] = B_NDV
        stats.entry_cardinality[name] = R_CARD / B_NDV
    return query, deps, stats


def run_comparison(n_bindings: int, n_indexes: int) -> Dict:
    """Optimize one scaling workload under both strategies; return the
    counters and costs the acceptance criteria are asserted on."""

    query, deps, stats = build_scaling_workload(n_bindings, n_indexes)
    out: Dict = {"n_bindings": n_bindings, "n_indexes": n_indexes}
    for strategy in ("full", "pruned"):
        optimizer = Optimizer(
            deps,
            statistics=stats,
            strategy=strategy,
            max_backchase_nodes=100_000,
        )
        start = time.perf_counter()
        result = optimizer.optimize(query)
        elapsed = time.perf_counter() - start
        bc = result.backchase_stats
        out[strategy] = {
            "best_cost": result.best.cost,
            "plans": len(result.plans),
            "seconds": elapsed,
            **bc.as_dict(),
        }
    out["equal_cost"] = out["pruned"]["best_cost"] == out["full"]["best_cost"]
    out["explored_saved"] = (
        out["full"]["candidates_explored"] - out["pruned"]["candidates_explored"]
    )
    out["containment_computed_full"] = out["full"]["cache_misses"]
    out["containment_computed_pruned"] = out["pruned"]["cache_misses"]
    return out


def assert_verdicts_decided_once(result: Dict) -> None:
    """Neither strategy computes more verdicts than it explores candidates:
    a shape re-derived along another removal order is never re-decided."""

    for strategy in ("full", "pruned"):
        run = result[strategy]
        assert run["cache_misses"] <= run["candidates_explored"], result
        assert run["cache_hits"] > 0, result


def assert_pruning_wins(result: Dict) -> None:
    """The E12 acceptance criteria for one workload."""

    full, pruned = result["full"], result["pruned"]
    assert result["equal_cost"], result
    # strictly fewer candidates explored ...
    assert pruned["candidates_explored"] < full["candidates_explored"], result
    assert pruned["candidates_pruned"] > 0, result
    # ... and no shape decided twice, bound or no bound
    assert_verdicts_decided_once(result)
    # the pruned plan list is a subset, so never larger
    assert pruned["plans"] <= full["plans"], result


def test_e12_pruned_explores_fewer_small(benchmark):
    result = benchmark.pedantic(
        run_comparison, args=(2, 1), rounds=1, iterations=1
    )
    assert_pruning_wins(result)


def test_e12_verdict_cache_wins_even_without_pruning(benchmark):
    """On a workload too small for the cost bound to bite, the shape-keyed
    verdict memo still spares every re-derived shape its condition-(3)
    work — under either strategy."""

    result = benchmark.pedantic(
        run_comparison, args=(1, 2), rounds=1, iterations=1
    )
    full, pruned = result["full"], result["pruned"]
    assert result["equal_cost"], result
    assert pruned["candidates_explored"] <= full["candidates_explored"], result
    assert_verdicts_decided_once(result)


def test_e12_pruned_explores_fewer_scaled(benchmark):
    result = benchmark.pedantic(
        run_comparison, args=(2, 2), rounds=1, iterations=1
    )
    assert_pruning_wins(result)
    # on the larger workload the verdict memo removes most fresh checks
    for strategy in ("full", "pruned"):
        run = result[strategy]
        assert run["cache_misses"] * 2 < run["candidates_explored"], result


def test_e12_savings_grow_with_scale(benchmark):
    def sweep():
        return [run_comparison(2, 1), run_comparison(2, 2)]

    small, large = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert large["explored_saved"] >= small["explored_saved"]
    for result in (small, large):
        assert_pruning_wins(result)
