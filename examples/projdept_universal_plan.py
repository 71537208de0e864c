"""The paper's running example, end to end (sections 1–3, figures 1–3).

Builds the ProjDept logical schema (class Dept + relation Proj with RIC /
INV / KEY constraints), the physical schema (class dictionary, primary
index I, secondary index SI, access structure JI), chases the query into
the universal plan, backchases into the minimal plans — among them the
paper's P1–P4 — and executes every plan to confirm agreement.

Run:  python examples/projdept_universal_plan.py
"""

from __future__ import annotations

import time

from repro import OptimizeContext, Optimizer, evaluate, execute, format_query
from repro.workloads.projdept import build_projdept


def main() -> None:
    wl = build_projdept(n_depts=20, projs_per_dept=10, citibank_share=0.08, seed=4)

    print("=== logical query Q (figure 2 schema) ===")
    print(format_query(wl.query), "\n")

    print("=== constraints in play ===")
    for dep in wl.constraints:
        print(" ", dep)
    print()

    optimizer = Optimizer(
        OptimizeContext(
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
        )
    )

    t0 = time.perf_counter()
    result = optimizer.optimize(wl.query)
    elapsed = time.perf_counter() - t0

    print("=== phase 1: universal plan (chase) ===")
    print(format_query(result.universal_plan))
    print(f"\nchase steps: {[s.constraint for s in result.chase_steps]}\n")

    print(f"=== phase 2+3: minimal plans, refined and costed ({elapsed:.2f}s) ===")
    for plan in result.plans:
        marker = "  → " if plan is result.best else "    "
        print(f"{marker}{plan}")
    print()

    print("=== execution: every plan returns Q's answer ===")
    reference = evaluate(wl.query, wl.instance)
    for plan in result.physical_plans():
        run = execute(plan.query, wl.instance)
        assert run.results == reference
        print(
            f"  tuples={run.counters.tuples:6d} probes={run.counters.probes:6d} "
            f" {plan.query}"
        )
    print(f"\n{len(reference)} CitiBank projects; all plans agree.")

    print("\n=== the paper's reference plans P1–P4 ===")
    for name, plan in wl.reference_plans.items():
        run = execute(plan, wl.instance)
        assert run.results == reference
        print(f"  {name}: tuples={run.counters.tuples:6d} probes={run.counters.probes:6d}")


if __name__ == "__main__":
    main()
