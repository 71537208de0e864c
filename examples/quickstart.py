"""Quickstart: physical data independence in 60 lines.

We declare a logical relation, add a secondary index at the physical
level, and let the chase & backchase optimizer discover the index plan —
no rewrite rules, no heuristics: the index is *described by constraints*
and the plans fall out of the chase.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import (
    INT,
    Instance,
    OptimizeContext,
    Optimizer,
    Row,
    Schema,
    SecondaryIndex,
    Statistics,
    evaluate,
    execute,
    parse_query,
    relation,
)


def main() -> None:
    # -- 1. logical schema: one relation Emp(Dept, Salary, Name) ----------
    schema = Schema("quickstart")
    schema.add("Emp", relation(Dept=INT, Salary=INT, Name=INT))

    rng = random.Random(1)
    emp = frozenset(
        Row(Dept=rng.randrange(50), Salary=rng.randrange(100), Name=i)
        for i in range(5000)
    )
    instance = Instance({"Emp": emp})

    # -- 2. physical schema: Emp stored directly + index on Dept ----------
    by_dept = SecondaryIndex("EmpByDept", "Emp", "Dept")
    by_dept.install(instance, schema)

    # -- 3. the logical query knows nothing about the index ---------------
    query = parse_query("select e.Name from Emp e where e.Dept = 7")

    optimizer = Optimizer(
        OptimizeContext(
            constraints=by_dept.constraints(),
            physical_names={"Emp", "EmpByDept"},
            statistics=Statistics.from_instance(instance),
        )
    )
    result = optimizer.optimize(query)
    print(result.report())

    # -- 4. run the winner and compare against the logical query ----------
    best = result.best
    run = execute(best.query, instance)
    reference = evaluate(query, instance)
    assert run.results == reference
    print(
        f"\nbest plan scanned {run.counters.tuples} tuples "
        f"(full scan would read {len(emp)}); "
        f"{len(run.results)} results, identical to the logical query."
    )


if __name__ == "__main__":
    main()
