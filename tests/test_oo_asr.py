"""Access-support-relation rewriting end to end (§2's ASR story)."""

import pytest

from repro import OptimizeContext, Optimizer, check_all, evaluate, execute
from repro.workloads.oo_asr import build_oo_asr


@pytest.fixture(scope="module")
def workload():
    return build_oo_asr(n_depts=4, staff_per_dept=3, seed=17)


@pytest.fixture(scope="module")
def optimized(workload):
    # Full enumeration: the tests below assert specific (non-winning)
    # plans are present, which the pruned default does not guarantee.
    opt = Optimizer(
        OptimizeContext(
            constraints=workload.constraints,
            physical_names=workload.physical_names,
            statistics=workload.statistics,
            strategy="full",
        )
    )
    return opt.optimize(workload.query)


class TestWorkload:
    def test_instance_consistent(self, workload):
        assert check_all(workload.constraints, workload.instance) == []

    def test_instance_well_typed(self, workload):
        assert workload.instance.validate(workload.schema) == []

    def test_asr_stores_oid_pairs(self, workload):
        from repro.model.values import Oid

        for row in workload.instance["ASR"]:
            assert isinstance(row["O0"], Oid) and row["O0"].class_name == "Dept"
            assert isinstance(row["O1"], Oid) and row["O1"].class_name == "Emp"


class TestASRRewriting:
    def test_asr_plan_discovered(self, optimized):
        """The navigation query rewrites to a single ASR scan with oid
        dereferences through the class dictionaries."""

        asr_plans = [
            p
            for p in optimized.plans
            if p.query.schema_names() == frozenset({"ASR"})
            and len(p.query.bindings) == 1
        ]
        assert asr_plans, [str(p) for p in optimized.plans]

    def test_asr_plan_wins_on_cost(self, optimized):
        assert optimized.best.query.schema_names() == frozenset({"ASR"})

    def test_dictionary_navigation_plan_also_found(self, optimized):
        assert any(
            "dom(Dept)" in str(b.source)
            for p in optimized.plans
            for b in p.query.bindings
        )

    def test_all_plans_agree(self, workload, optimized):
        reference = evaluate(workload.query, workload.instance)
        for plan in optimized.plans:
            assert evaluate(plan.query, workload.instance) == reference, str(plan)

    def test_executor_runs_asr_plan(self, workload, optimized):
        reference = evaluate(workload.query, workload.instance)
        run = execute(optimized.best.query, workload.instance)
        assert run.results == reference
        # one scan of the ASR: exactly |ASR| tuples touched
        assert run.counters.tuples == len(workload.instance["ASR"])


class TestStaleASR:
    def test_stale_asr_detected_and_divergent(self):
        wl = build_oo_asr(n_depts=3, staff_per_dept=2, seed=5)
        from repro.model.values import DictValue, Oid, Row

        # hire someone into D0 without refreshing the ASR
        new_emp = Oid("Emp", 999)
        emp_dict = dict(wl.instance["Emp"].items())
        emp_dict[new_emp] = Row(EName="E999", Salary=1)
        wl.instance["Emp"] = DictValue(emp_dict)
        wl.instance["emps"] = wl.instance["emps"] | {new_emp}
        d0 = next(iter(sorted(wl.instance["depts"])))
        dept_dict = dict(wl.instance["Dept"].items())
        old = dept_dict[d0]
        dept_dict[d0] = old.replace(Staff=old["Staff"] | {new_emp})
        wl.instance["Dept"] = DictValue(dept_dict)

        failures = check_all(wl.constraints, wl.instance)
        assert any("ASR" in name for name, _ in failures)
