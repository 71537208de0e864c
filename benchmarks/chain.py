"""The scaling-wall yardstick: cold pruned optimizations of E8's chain shapes.

For each shape ``(n, k)`` — the chain ``R x0 ⋈ … ⋈ R x(n-1)`` on ``B`` with
a selective constant and ``k`` secondary indexes on ``R.B``
(``scaling_workload`` in ``tests/chain_shapes.py``) — runs one cold
``Optimizer(..., strategy="pruned").optimize`` under the default node
budget and prints its wall time, nodes visited, constructed candidates,
normal forms and best cost, or the ``BackchaseError`` it raised.  Single
runs, no repetitions: a trajectory to read across commits, not a gate.

    PYTHONPATH=src python benchmarks/chain.py [N,K ...]

The shapes default to (2,2) and (3,2).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.api.context import OptimizeContext
from repro.errors import BackchaseError
from repro.optimizer.optimizer import Optimizer

# The shapes are the tier-1 scaling tests' own.  This script's directory is
# first on sys.path, and its conftest.py shadows the tests' one: the shapes
# live in a module that imports no conftest.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from chain_shapes import scaling_workload  # noqa: E402

SHAPES = ((2, 2), (3, 2))


def run_shape(n_bindings: int, n_indexes: int) -> str:
    query, deps, stats = scaling_workload(n_bindings, n_indexes)
    optimizer = Optimizer(
        OptimizeContext(
            constraints=deps,
            statistics=stats,
            strategy="pruned",
        )
    )
    start = time.perf_counter()
    try:
        result = optimizer.optimize(query)
    except BackchaseError as exc:
        return f"{time.perf_counter() - start:7.2f} s  BackchaseError: {exc}"
    seconds = time.perf_counter() - start
    search = result.backchase_stats
    return (
        f"{seconds:7.2f} s  nodes {search.nodes_visited}  "
        f"constructed {search.candidates_explored}  "
        f"normal forms {search.normal_forms}  best {result.best.cost:g}"
    )


if __name__ == "__main__":
    shapes = [tuple(map(int, arg.split(","))) for arg in sys.argv[1:]] or SHAPES
    for n_bindings, n_indexes in shapes:
        result = run_shape(n_bindings, n_indexes)
        print(f"chain ({n_bindings},{n_indexes}): {result}", flush=True)
