"""Cross-module integration: DDL → structures → optimize → execute, plus
failure injection (the optimizer must never be fed an inconsistent
implementation mapping silently).
"""

import pytest

from backchase_oracle import rule_normal_forms
from repro import (
    Instance,
    OptimizeContext,
    Optimizer,
    Row,
    SecondaryIndex,
    Statistics,
    check_all,
    evaluate,
    execute,
    parse_ddl,
    parse_query,
)
from repro.model.values import DictValue


DDL = """
relation Orders {
    OId: int, Cust: string, Total: int
    primary key (OId)
}
relation Customers {
    Name: string, City: string
    primary key (Name)
}
"""


@pytest.fixture
def pipeline():
    ddl = parse_ddl(DDL)
    orders = frozenset(
        Row(OId=i, Cust=f"C{i % 6}", Total=i * 10) for i in range(60)
    )
    customers = frozenset(Row(Name=f"C{i}", City=f"City{i % 3}") for i in range(6))
    instance = Instance({"Orders": orders, "Customers": customers})
    index = SecondaryIndex("ByCust", "Orders", "Cust")
    index.install(instance, ddl.schema)
    constraints = list(ddl.constraints) + index.constraints()
    return ddl, instance, index, constraints


class TestFullPipeline:
    def test_constraints_hold(self, pipeline):
        _, instance, _, constraints = pipeline
        assert check_all(constraints, instance) == []

    def test_optimize_and_execute(self, pipeline):
        _, instance, _, constraints = pipeline
        query = parse_query(
            'select o.Total from Orders o where o.Cust = "C3"'
        )
        opt = Optimizer(
            OptimizeContext(
                constraints=constraints,
                physical_names={"Orders", "Customers", "ByCust"},
                statistics=Statistics.from_instance(instance),
            )
        )
        result = opt.optimize(query)
        assert "ByCust" in str(result.best.query)
        assert execute(result.best.query, instance).results == evaluate(
            query, instance
        )

    def test_join_query_with_fk_semantics(self, pipeline):
        ddl, instance, _, constraints = pipeline
        # add the FK Orders.Cust -> Customers.Name and use it for join
        # elimination when only order attributes are projected
        from repro.constraints.builders import foreign_key

        deps = constraints + [
            foreign_key("orders_fk", "Orders", "Cust", "Customers", "Name")
        ]
        query = parse_query(
            "select struct(T = o.Total) from Orders o, Customers c "
            "where o.Cust = c.Name"
        )
        opt = Optimizer(
            OptimizeContext(
                constraints=deps,
                physical_names={"Orders", "Customers", "ByCust"},
                statistics=Statistics.from_instance(instance),
            )
        )
        result = opt.optimize(query)
        # the FK makes the Customers join removable
        assert any(
            "Customers" not in p.query.schema_names() for p in result.plans
        )
        reference = evaluate(query, instance)
        for plan in result.plans:
            assert evaluate(plan.query, instance) == reference

    def test_rule_based_agrees_with_algorithm1(self, pipeline):
        _, instance, _, constraints = pipeline
        query = parse_query('select o.Total from Orders o where o.Cust = "C3"')
        stats = Statistics.from_instance(instance)
        # full enumeration: the count comparison below needs every normal form
        direct = Optimizer(
            OptimizeContext(
                constraints=constraints,
                physical_names={"Orders", "Customers", "ByCust"},
                statistics=stats,
                reorder=False,
                strategy="full",
            )
        ).optimize(query)
        # same normal-form count modulo refinement variants
        unrefined = [p for p in direct.plans if not p.refined]
        assert len(rule_normal_forms(query, constraints)) == len(unrefined)


class TestFailureInjection:
    def test_stale_index_detected(self, pipeline):
        _, instance, index, constraints = pipeline
        instance["Orders"] = instance["Orders"] | {
            Row(OId=999, Cust="C0", Total=1)
        }
        failures = check_all(constraints, instance)
        assert any(name == "ByCust_si1" for name, _ in failures)

    def test_corrupt_bucket_detected(self, pipeline):
        _, instance, index, constraints = pipeline
        data = dict(instance["ByCust"].items())
        data["C0"] = data["C0"] | {Row(OId=777, Cust="C0", Total=-1)}
        instance["ByCust"] = DictValue(data)
        failures = check_all(constraints, instance)
        assert any(name == "ByCust_si2" for name, _ in failures)

    def test_plan_on_inconsistent_instance_diverges(self, pipeline):
        """Demonstrates why the checker matters: with a stale index the
        index plan and the scan disagree — the constraints were the only
        thing making them interchangeable."""

        _, instance, _, constraints = pipeline
        query = parse_query('select o.Total from Orders o where o.Cust = "C3"')
        index_plan = parse_query('select t.Total from ByCust{"C3"} t')
        assert evaluate(index_plan, instance) == evaluate(query, instance)
        instance["Orders"] = instance["Orders"] | {
            Row(OId=998, Cust="C3", Total=123456)
        }
        assert evaluate(index_plan, instance) != evaluate(query, instance)

    def test_key_violation_detected(self, pipeline):
        _, instance, _, constraints = pipeline
        instance["Orders"] = instance["Orders"] | {
            Row(OId=0, Cust="CX", Total=-5)  # duplicate OId
        }
        failures = check_all(constraints, instance)
        assert any("key" in name for name, _ in failures)
