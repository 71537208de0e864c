"""Compiled execution (``repro.exec.compile``) and the executor
instrumentation fixes that shipped with it.

Three layers of coverage:

* pinned counter regressions — short-circuiting :class:`Filter` counts
  only the condition probes it actually evaluated, and ``execute`` with a
  caller-reused :class:`Counters` reports *per-run* counts in the
  :class:`ExecutionResult` while the caller's object accumulates, and
  a compiled equi-join probes a value index that belongs to its extent,
  not to the artifact;
* differential checks — for every golden workload plan (the canonical
  queries, E9's reference plans P1–P4, and each workload's optimized
  winner) the compiled function, the interpreted pipeline and the
  reference evaluator produce identical answers, including overlay
  (hybrid semantic-cache) execution and ``$param`` substitution into an
  already-compiled artifact, for silent and feedback artifacts alike;
* mode plumbing — ``exec_mode`` validation, the engine artifact LRU (the
  one memo every caller shares; a refusal raises wherever a compiled run
  starts and is not memoized), the column store that frees a dead
  database's extents, EXPLAIN ANALYZE's documented interpreted run, and
  the CLI flag.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Database
from repro.api.context import OptimizeContext
from repro.errors import (
    OptimizationError,
    ParameterBindingError,
    QueryExecutionError,
    ReproError,
)
from repro.exec import compile as compile_module
from repro.exec.columnar import COLUMNS
from repro.exec.compile import PlanCompilationError, compile_plan, generate_plan
from repro.exec.engine import compiled_for, execute
from repro.exec.operators import (
    Counters,
    Filter,
    ScanBind,
    Singleton,
)
from repro.model.instance import Instance
from repro.model.values import DictValue, Row
from repro.physical.views import MaterializedView
from repro.query.ast import Eq
from repro.query.evaluator import evaluate
from repro.query.parser import parse_path, parse_query
from repro.query.paths import Attr, Const, SName, Var


def q(text):
    return parse_query(text)


@pytest.fixture
def instance():
    return Instance(
        {
            "R": frozenset({Row(A=1, B=10), Row(A=2, B=20), Row(A=3, B=30)}),
            "S": frozenset({Row(B=10, C="x"), Row(B=20, C="y"), Row(B=30, C="z")}),
            "D": DictValue({1: 10, 2: 20, 3: 99}),
            "IS": DictValue(
                {
                    10: frozenset({Row(B=10, C="x")}),
                    20: frozenset({Row(B=20, C="y")}),
                    30: frozenset({Row(B=30, C="z")}),
                }
            ),
        }
    )


def count_compilations(monkeypatch):
    """Record every ``compile_plan`` call the engine memo makes."""

    calls = []
    original = compile_module.compile_plan

    def counting(query, **flags):
        calls.append((query, flags))
        return original(query, **flags)

    monkeypatch.setattr(compile_module, "compile_plan", counting)
    return calls


class TestFilterShortCircuitProbes:
    """Satellite 1: ``Filter.rows`` used to bump the *total* probe count
    of all conditions per input env, even when an early condition failed
    and the rest were never evaluated."""

    def test_probes_count_only_evaluated_conditions(self, instance):
        counters = Counters()
        scan = ScanBind(Singleton(counters), "r", SName("R"), counters)
        filt = Filter(
            scan,
            [
                # 1 probe: fails for the A=3 row (D[3]=99 != r.B=30)
                Eq(parse_path("D[r.A]", scope={"r"}), parse_path("r.B", scope={"r"})),
                # 2 probes: only reached when the first condition held
                Eq(parse_path("D[r.A]", scope={"r"}), parse_path("D[r.A]", scope={"r"})),
            ],
            counters,
        )
        survivors = list(filt.rows(instance))
        assert len(survivors) == 2
        assert counters.filtered == 1
        # A=1 and A=2 evaluate both conditions (3 probes each); A=3
        # short-circuits after the first (1 probe).  The pre-fix code
        # charged 3 probes per env = 9.
        assert counters.probes == 7

    def test_all_pass_counts_every_condition(self, instance):
        counters = Counters()
        scan = ScanBind(Singleton(counters), "r", SName("R"), counters)
        filt = Filter(
            scan,
            [Eq(parse_path("D[r.A]", scope={"r"}), parse_path("D[r.A]", scope={"r"}))],
            counters,
        )
        assert len(list(filt.rows(instance))) == 3
        assert counters.probes == 6  # 2 lookups x 3 envs, nothing filtered
        assert counters.filtered == 0


class TestCompiledJoinProbe:
    """A compiled equi-join probes the inner extent's value index, which
    belongs to the extent in :data:`COLUMNS`: built once per extent, kept
    out of the artifact, and never served for a replaced extent."""

    JOIN = "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"

    def test_artifact_holds_no_index(self, instance, fresh_memo):
        plan = compile_plan(q(self.JOIN))
        assert len(plan.run(instance)) == 3
        assert "_x1 = _e1.index('B', instance)" in plan.source
        data = [
            value
            for name, value in plan.fn.__globals__.items()
            if name not in ("__builtins__", "_cols") and not callable(value)
        ]
        assert data == []
        assert "B" in COLUMNS.get(instance, "S")._indexes

    def test_index_is_built_once_per_extent(self, instance, fresh_memo):
        plan = compile_plan(q(self.JOIN))
        plan.run(instance)
        extent = COLUMNS.get(instance, "S")
        index = extent.index("B", instance)
        counters = Counters()
        assert len(plan.run(instance, counters)) == 3
        assert COLUMNS.get(instance, "S") is extent
        assert extent.index("B", instance) is index
        # one probe per R row, one tuple per R row and per match
        assert (counters.probes, counters.tuples) == (3, 6)

    def test_probe_sees_mutation(self, instance, fresh_memo):
        plan = compile_plan(q(self.JOIN))
        assert len(plan.run(instance)) == 3
        instance["S"] = frozenset({Row(B=10, C="only")})
        assert plan.run(instance) == frozenset({Row(A=1, C="only")})


class TestPerRunCounters:
    """Satellite 3: a caller-reused ``Counters`` accumulates, but every
    ``ExecutionResult`` reports that run alone."""

    def test_result_counters_are_per_run(self, instance):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        shared = Counters()
        first = execute(query, instance, counters=shared)
        second = execute(query, instance, counters=shared)
        assert first.counters.tuples == second.counters.tuples
        assert first.counters.filtered == second.counters.filtered
        assert second.counters is not shared
        # the caller's object accumulates both runs
        assert shared.tuples == 2 * first.counters.tuples
        assert shared.filtered == 2 * first.counters.filtered

    def test_compiled_mode_same_contract(self, instance):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        shared = Counters()
        first = execute(query, instance, counters=shared, mode="compiled")
        second = execute(query, instance, counters=shared, mode="compiled")
        assert first.counters.tuples == second.counters.tuples
        assert shared.tuples == 2 * first.counters.tuples


DIFFERENTIAL_QUERIES = [
    "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
    "select r.A from R r where r.B = 10",
    "select r.A from R r where r.B = 10 and r.A = 1",
    "select struct(A = r.A) from R r",
    "select struct(C = t.C) from dom(IS) k, IS[k] t where k = 10",
    "select struct(C = t.C) from IS{10} t",
    "select struct(C = t.C) from IS{999} t",
    "select struct(C = t.C) from R r, IS{r.B} t",
    "select struct(A = r.A, X = s.C) from R r, S s where r.B = s.B and s.C = \"y\"",
    "select struct(A = x.A, B = y.B) from R x, R y where x.A = y.A",
]


class TestCompiledDifferential:
    @pytest.mark.parametrize("text", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("feedback", [False, True])
    def test_matches_interpreted_and_reference(self, instance, text, feedback):
        # feedback=True compiles the other artifact variant (per-level row
        # counters, a fourth parameter): it must answer the same, and
        # count the same level rows as the interpreted chain
        query = q(text)
        reference = evaluate(query, instance)
        interpreted = execute(query, instance, mode="interpret", feedback=feedback)
        compiled = execute(query, instance, mode="compiled", feedback=feedback)
        assert compiled.mode == "compiled"
        assert compiled.results == interpreted.results == reference
        assert compiled.level_rows == interpreted.level_rows
        assert (compiled.level_rows is None) == (not feedback)

    def test_failing_lookup_error_parity(self, instance):
        query = q("select struct(C = t.C) from IS[99] t")
        with pytest.raises(QueryExecutionError, match="failing lookup"):
            execute(query, instance, mode="interpret")
        with pytest.raises(QueryExecutionError, match="failing lookup"):
            execute(query, instance, mode="compiled")

    def test_non_set_source_error_parity(self, instance):
        query = q("select struct(X = t) from D t")
        with pytest.raises(QueryExecutionError, match="not a set"):
            execute(query, instance, mode="interpret")
        with pytest.raises(QueryExecutionError, match="not a set"):
            execute(query, instance, mode="compiled")

    def test_overlay_execution_matches(self, instance):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        overlays = {"S": frozenset({Row(B=10, C="cached"), Row(B=20, C="cached2")})}
        interpreted = execute(query, instance, overlays=overlays)
        compiled = execute(query, instance, overlays=overlays, mode="compiled")
        assert compiled.results == interpreted.results
        assert evaluate(query, instance.overlay(dict(overlays))) == compiled.results
        # the base instance stays authoritative for non-overlaid names
        assert any(row["C"] == "cached" for row in compiled.results)

    def test_mutation_invalidates_columnar_cache(self, instance):
        query = q("select r.A from R r where r.B = 10")
        plan = compile_plan(query)
        assert plan.run(instance) == frozenset({1})
        instance["R"] = frozenset({Row(A=7, B=10), Row(A=8, B=20)})
        assert plan.run(instance) == frozenset({7})


WORKLOADS = ["rs", "rabc", "projdept", "oo_asr"]


class TestGoldenWorkloadPlans:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_canonical_and_winner_agree(self, name, optimized_workloads):
        wl = optimized_workloads.workload(name)
        reference = evaluate(wl.query, wl.instance)
        for plan_query in (wl.query, optimized_workloads.winner(name)):
            interpreted = execute(plan_query, wl.instance, mode="interpret")
            compiled = execute(plan_query, wl.instance, mode="compiled")
            assert compiled.mode == "compiled"
            assert compiled.results == interpreted.results == reference

    def test_projdept_reference_plans(self, projdept):
        wl = projdept
        reference = evaluate(wl.query, wl.instance)
        for name, plan in wl.reference_plans.items():
            interpreted = execute(plan, wl.instance, mode="interpret")
            compiled = execute(plan, wl.instance, mode="compiled")
            assert compiled.results == interpreted.results == reference, name


class TestCompiledTemplates:
    def test_params_are_runtime_arguments(self, instance):
        template = q("select struct(A = r.A) from R r where r.B = $b")
        plan = compile_plan(template)
        assert plan.run(instance, params={"b": 10}) == frozenset({Row(A=1)})
        assert plan.run(instance, params={"b": 20}) == frozenset({Row(A=2)})
        assert plan.run(instance, params={"b": 999}) == frozenset()

    def test_missing_param_raises(self, instance):
        plan = compile_plan(q("select struct(A = r.A) from R r where r.B = $b"))
        with pytest.raises(ParameterBindingError, match=r"\$b"):
            plan.run(instance)

    def test_const_values_unwrapped(self, instance):
        plan = compile_plan(q("select struct(A = r.A) from R r where r.B = $b"))
        assert plan.run(instance, params={"b": Const(10)}) == frozenset({Row(A=1)})

    def test_prepared_template_uses_one_artifact(self, fresh_memo):
        builds = count_compilations(fresh_memo)
        db = Database.from_workload("rs", exec_mode="compiled")
        db_ref = Database.from_workload("rs")
        # both builds materialize V through the one memo: one artifact
        assert [query for query, _ in builds] == [db.workload.views[0].definition]
        # counted from here on: the template's artifact alone
        calls = count_compilations(fresh_memo)
        template = q(
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and s.C = $c"
        )
        prepared = db.prepare(template)
        reference = db_ref.prepare(template)
        for c in (3, 4, 5, 999):
            got = prepared.run(c=c)
            want = reference.run(c=c)
            assert got.mode == "compiled"
            assert got.results == want.results, c
            bound = template.bind_params({"c": Const(c)})
            assert got.results == evaluate(bound, db.instance), c
        # four bindings, one compiled function: the memo's key is the
        # plan with its $ markers
        assert len(calls) == 1
        db.close()
        db_ref.close()

    @pytest.mark.parametrize("exec_mode", ["interpret", "compiled"])
    def test_a_path_binding_is_rejected_before_anything_runs(
        self, exec_mode, fresh_memo
    ):
        """A ``$`` marker is a ground value.  On ``rs`` this template's
        winner renames its variables (``… from IS{$c} _x3, dom(IR) _x0``),
        so ``c = r.B`` used to fail inside the run — an unbound variable,
        interpreted or compiled; it is now refused by the binding check,
        before any optimize or compile."""

        db = Database.from_workload("rs", exec_mode=exec_mode)
        calls = count_compilations(fresh_memo)
        template = q("select struct(A = r.A, C = s.C) from R r, S s where s.B = $c")
        path = Attr(Var("r"), "B")
        with pytest.raises(ParameterBindingError, match=r"\$c .*path r\.B"):
            db.execute(template, params={"c": path})
        assert db.plan_cache_info().misses == 0  # nothing was optimized
        prepared = db.prepare(template)
        with pytest.raises(ParameterBindingError, match=r"\$c .*path r\.B"):
            prepared.run(c=path)
        assert calls == []
        assert prepared.run(c=20).mode == exec_mode
        db.close()

    @pytest.mark.parametrize("feedback", [False, True])
    def test_a_path_bound_beside_a_value_is_rejected_by_the_engine(
        self, instance, feedback, fresh_memo
    ):
        """The engine and the artifact read a path binding the way the
        façade does, whatever value it is bound beside: nothing is
        substituted, compiled or run.  Plain values share one artifact
        and agree with the interpreter, level rows included."""

        calls = count_compilations(fresh_memo)
        template = q(
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = $b and s.C = $c"
        )
        params = {"b": Attr(Var("s"), "B"), "c": "x"}
        messages = set()
        for mode in ("interpret", "compiled"):
            with pytest.raises(ParameterBindingError) as caught:
                execute(template, instance, mode=mode, params=params, feedback=feedback)
            messages.add(str(caught.value))
        assert calls == []
        plan = compile_plan(template, feedback=feedback)
        with pytest.raises(ParameterBindingError) as caught:
            plan.run(instance, params=params)
        messages.add(str(caught.value))
        assert messages == {
            "$b is bound to the path s.B — a $-marker takes a value "
            "(or a Const), never a path"
        }
        for b in (10, 20, 99):
            params = {"b": b, "c": Const("x")}
            got = execute(
                template, instance, mode="compiled", params=params, feedback=feedback
            )
            want = execute(
                template, instance, mode="interpret", params=params, feedback=feedback
            )
            assert got.mode == "compiled"
            assert got.results == want.results == evaluate(
                template.bind_params(params), instance
            )
            assert got.level_rows == want.level_rows
        assert len(calls) == 1

    def test_database_execute_compiled_matches_interpreted(self):
        compiled_db = Database.from_workload("rs", exec_mode="compiled")
        interp_db = Database.from_workload("rs")
        query = compiled_db.workload.query
        got = compiled_db.execute(query)
        want = interp_db.execute(query)
        assert got.results == want.results
        assert got.results == evaluate(query, compiled_db.instance)
        compiled_db.close()
        interp_db.close()


class TestModePlumbing:
    def test_context_validates_exec_mode(self):
        with pytest.raises(OptimizationError, match="unknown exec mode"):
            OptimizeContext(exec_mode="bogus")

    def test_engine_validates_mode(self, instance):
        with pytest.raises(ReproError, match="unknown exec mode"):
            execute(q("select r.A from R r"), instance, mode="bogus")

    def test_exec_mode_not_in_fingerprint(self):
        interp = OptimizeContext(exec_mode="interpret")
        compiled = OptimizeContext(exec_mode="compiled")
        assert interp.fingerprint() == compiled.fingerprint()

    def test_no_runtime_verify_switch(self):
        """Artifacts are verified statically — by ``make lint``'s sweeps
        and the suite's ``compile_plan`` hook — never by a runtime switch."""

        import repro.errors

        with pytest.raises(TypeError):
            compile_plan(q("select r.A from R r"), verify=True)
        assert not hasattr(compile_module, "VERIFY_ENV")
        assert not hasattr(repro.errors, "CodegenVerificationError")

    def test_engine_lru_reuses_artifact(self):
        query = q("select struct(A = r.A) from R r where r.B = 2")
        first = compiled_for(query)
        second = compiled_for(query)
        assert first is second

    def test_plan_text_matches_interpreted_explain(self, instance):
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        interpreted = execute(query, instance, mode="interpret")
        compiled = execute(query, instance, mode="compiled")
        assert compiled.plan_text == interpreted.plan_text

    def test_generate_source_is_valid_python(self):
        for text in DIFFERENTIAL_QUERIES:
            for feedback in (False, True):
                source = generate_plan(q(text), feedback=feedback).source
                compile(source, "<test>", "exec")  # must not raise

    def test_explain_analyze_under_compiled_mode(self):
        db = Database.from_workload("rs", exec_mode="compiled")
        report = db.explain(db.workload.query, analyze=True)
        rendered = report.render()
        # the interpreted instrumentation ran: per-operator actual rows
        assert "EXPLAIN ANALYZE" in rendered
        assert "rows in" in rendered
        db.close()

    def test_cli_exec_mode_flag(self, capsys):
        from repro.cli import main

        assert main(["optimize", "--workload", "rs", "--exec-mode", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "executed (compiled):" in out

    def test_cli_exec_mode_requires_workload(self, tmp_path, capsys):
        from repro.cli import main

        query = tmp_path / "q.oql"
        query.write_text("select r.A from R r where r.B = 5\n")
        assert (
            main(
                ["optimize", "--query", str(query), "--exec-mode", "compiled"]
            )
            == 1
        )
        assert "needs an instance" in capsys.readouterr().err


class TestOneMemoOneColumnStore:
    """A compiled artifact is code only, memoized once per plan and flags
    (a refusal raises, and is not memoized); its columns belong to the extent, so nothing a plan
    ran over outlives the database that held it."""

    def test_a_dead_databases_extents_are_freed(self, fresh_memo):
        db = Database.from_workload("rs", exec_mode="compiled")
        query = db.workload.query
        session = db.session()
        assert session.run(query).results == evaluate(query, db.instance)
        best = db.optimize(query).best.query
        assert execute(best, db.instance, mode="compiled").mode == "compiled"
        extent = weakref.ref(db.instance["R"])
        session.close()
        db.close()
        del db, session
        gc.collect()
        assert extent() is None

    def test_a_refused_plan_raises_at_every_entry_point(self, fresh_memo):
        """Compiled means compiled: a plan the generator refuses raises
        ``PlanCompilationError`` wherever a compiled run starts — the
        engine, the façade's two request paths and a structure build —
        instead of running some other way."""

        db = Database.from_workload("rs", exec_mode="compiled")
        query = db.workload.query
        best = db.optimize(query).best.query
        template = q("select struct(A = r.A, B = r.B) from R r where r.B = $c")
        prepared = db.prepare(template)
        view = MaterializedView(
            "W", q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        )
        attempts = []

        def refuse(plan, **flags):
            attempts.append(plan)
            raise PlanCompilationError("refused")

        fresh_memo.setattr(compile_module, "generate_plan", refuse)
        for run in (
            lambda: execute(best, db.instance, mode="compiled"),
            lambda: db.execute(query),
            lambda: prepared.run(c=37),
            lambda: view.install(db.instance),
        ):
            with pytest.raises(PlanCompilationError, match="refused"):
                run()
        assert len(attempts) == 4
        assert "W" not in db.instance
        db.close()

    def test_a_refusal_is_not_remembered(self, fresh_memo):
        db = Database.from_workload("rs", exec_mode="compiled")
        query = db.workload.query
        best = db.optimize(query).best.query
        original = compile_module.generate_plan

        def refuse(plan, **flags):
            raise PlanCompilationError("refused")

        fresh_memo.setattr(compile_module, "generate_plan", refuse)
        for _ in range(2):
            with pytest.raises(PlanCompilationError):
                execute(best, db.instance, mode="compiled")
            with pytest.raises(PlanCompilationError):
                db.execute(query)
        # the patch lifted, the same key compiles and runs compiled
        fresh_memo.setattr(compile_module, "generate_plan", original)
        want = evaluate(query, db.instance)
        for got in (execute(best, db.instance, mode="compiled"), db.execute(query)):
            assert got.mode == "compiled"
            assert got.results == want
        assert compiled_for(best) is compiled_for(best)
        db.close()

    def test_the_facade_and_the_engine_share_one_artifact(self, fresh_memo):
        db = Database.from_workload("rs", exec_mode="compiled")
        # counted after the build, which compiles V's definition
        calls = count_compilations(fresh_memo)
        query = db.workload.query
        best = db.optimize(query).best.query
        want = evaluate(query, db.instance)
        for _ in range(2):
            assert db.execute(query).results == want
            assert execute(best, db.instance, mode="compiled").results == want
        assert len(calls) == 1
        db.close()
