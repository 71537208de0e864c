"""Answering queries using views — and going further (section 4, ex. 2).

R ⋈ S with a materialized view V = π_A(R ⋈ S) and secondary indexes IR,
IS.  Classical answering-queries-using-views frameworks can only produce
Q itself or the non-minimal P (Q joined with V); because our language
expresses dictionary lookups, the backchase reaches the navigation-join
plan  ``from V v, IR[v.A] r', IS{r'.B} s'``  that scans only the (small)
view and probes the indexes.

Run:  python examples/materialized_views.py
"""

from __future__ import annotations

from repro import (
    OptimizeContext,
    Optimizer,
    evaluate,
    execute,
    is_equivalent,
    parse_query,
)
from repro.workloads.relational import build_rs


def main() -> None:
    wl = build_rs(n_r=3000, n_s=3000, b_values=800, join_hit_rate=0.08, seed=2)
    print(f"|R| = {len(wl.instance['R'])}, |S| = {len(wl.instance['S'])}, "
          f"|V| = {len(wl.instance['V'])}  (small view ⇒ navigation wins)\n")

    print("query Q:", wl.query, "\n")

    # The intermediate query P of section 4 — equivalent, but not minimal:
    p = parse_query(
        "select struct(A = r.A, B = s.B, C = s.C) from V v, R r, S s "
        "where v.A = r.A and r.B = s.B"
    )
    print("P (Q merged with V):", p)
    print("  equivalent to Q under the constraints:",
          is_equivalent(p, wl.query, wl.constraints))
    print("  ... but P is not minimal, so the backchase discards it and")
    print("  keeps reducing until the indexes take over.\n")

    optimizer = Optimizer(
        OptimizeContext(
            constraints=wl.constraints,
            physical_names=wl.physical_names,
            statistics=wl.statistics,
        )
    )
    result = optimizer.optimize(wl.query)
    print("minimal plans:")
    for plan in result.plans:
        marker = "  → " if plan is result.best else "    "
        print(f"{marker}{plan}")

    print("\nexecution comparison:")
    reference = evaluate(wl.query, wl.instance)
    # both compiled: the direct join probes S through its value index
    direct = execute(wl.query, wl.instance, mode="compiled")
    nav = execute(result.best.query, wl.instance, mode="compiled")
    assert direct.results == nav.results == reference
    print(f"  R ⋈ S, compiled      : {direct.counters.tuples:8d} tuples,"
          f" {direct.elapsed_seconds*1000:8.1f} ms")
    print(f"  best C&B plan        : {nav.counters.tuples:8d} tuples,"
          f" {nav.elapsed_seconds*1000:8.1f} ms")
    print(f"  ({len(reference)} join results)")


if __name__ == "__main__":
    main()
