"""Units and integration tests for the physical design advisor
(``src/repro/advisor/``): candidate mining, what-if costing, greedy
selection under budgets, the ``Database.advise``/``apply_design`` front
door, the logical-core strip, and report determinism (with a golden
snapshot in ``tests/golden/advisor_rs.txt``)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import E5_MIX, SERVING_MIXES, executed_cost
from repro import evaluate
from repro.advisor import (
    DesignBudget,
    KIND_PRIMARY,
    KIND_SECONDARY,
    KIND_VIEW,
    PhysicalDesignAdvisor,
    enumerate_candidates,
    estimated_design_statistics,
    logical_database,
    normalize_workload,
    tunable_structures,
)
from repro.advisor.whatif import WhatIfCoster
from repro.api import build_workload
from repro.errors import OptimizationError
from repro.optimizer.statistics import Statistics
from repro.query.parser import parse_query

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "advisor_rs.txt"
REGEN = os.environ.get("GOLDEN_REGEN") == "1"

def rs_db(**kwargs):
    params = dict(n_r=80, n_s=80, b_values=40, seed=5)
    params.update(kwargs)
    return logical_database("rs", **params)


@pytest.fixture(scope="module")
def rs_advised():
    """One advised rs database + report, shared by the read-only tests."""

    db = rs_db()
    report = db.advise(
        E5_MIX, budget=DesignBudget(max_structures=3, max_total_tuples=10_000)
    )
    return db, report


class TestCandidateGeneration:
    def test_rs_join_query_candidates(self):
        stats = Statistics()
        stats.set_card("R", 100).set_card("S", 100)
        stats.set_ndv("R", "B", 10).set_ndv("S", "B", 10)
        query = parse_query(
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and s.C = 3"
        )
        cands = enumerate_candidates([query], stats, frozenset({"R", "S"}))
        kinds = {c.name: c.kind for c in cands}
        # full view, join core, and one index per equality side rooted in
        # a schema name (R.B, S.B from the join; S.C from the selection)
        assert kinds == {
            "ADV_V0": KIND_VIEW,
            "ADV_V1": KIND_VIEW,
            "ADV_IX_R_B": KIND_SECONDARY,
            "ADV_IX_S_B": KIND_SECONDARY,
            "ADV_IX_S_C": KIND_SECONDARY,
        }
        full, core = cands[0], cands[1]
        assert str(full.structure.definition) == str(query)
        # the join core drops the constant selection but exports the
        # selected path so the selection stays answerable on top
        assert "3" not in str(core.structure.definition)
        assert "s.C" in str(core.structure.definition)

    def test_primary_index_when_catalog_proves_uniqueness(self):
        stats = Statistics()
        stats.set_card("Proj", 200).set_ndv("Proj", "PName", 200)
        stats.set_ndv("Proj", "CustName", 8)
        query = parse_query(
            'select struct(B = p.Budg) from Proj p, Proj q '
            'where p.PName = q.PName and p.CustName = "x"'
        )
        cands = enumerate_candidates([query], stats, frozenset({"Proj"}))
        by_name = {c.name: c for c in cands}
        assert by_name["ADV_IX_Proj_PName"].kind == KIND_PRIMARY
        assert by_name["ADV_IX_Proj_CustName"].kind == KIND_SECONDARY

    def test_queries_outside_available_names_are_skipped(self):
        query = parse_query("select struct(A = t.A) from T t")
        assert enumerate_candidates([query], Statistics(), frozenset({"R"})) == []

    def test_duplicate_views_and_indexes_emitted_once(self):
        query = parse_query(
            "select struct(A = r.A) from R r, S s where r.B = s.B"
        )
        cands = enumerate_candidates(
            [query, query], Statistics(), frozenset({"R", "S"})
        )
        assert len(cands) == len({c.name for c in cands})
        assert [c.name for c in cands if c.kind == KIND_VIEW] == ["ADV_V0"]

    def test_underscore_homonym_index_names_not_duplicated(self):
        # "R_A".B and "R".A_B both render as ADV_IX_R_A_B; the first wins
        # and the homonym is dropped (a duplicate name would corrupt
        # what-if overlays and installs alike)
        stats = Statistics()
        stats.set_card("R_A", 10).set_card("R", 10)
        queries = [
            parse_query("select struct(X = r.B) from R_A r where r.B = 1"),
            parse_query("select struct(Y = t.A_B) from R t where t.A_B = 2"),
        ]
        cands = enumerate_candidates(
            queries, stats, frozenset({"R", "R_A"})
        )
        names = [c.name for c in cands]
        assert len(names) == len(set(names))
        assert names.count("ADV_IX_R_A_B") == 1
        winner = next(c for c in cands if c.name == "ADV_IX_R_A_B")
        assert winner.structure.relation == "R_A"  # first emitted wins

    def test_candidate_cap(self):
        queries = [
            parse_query(f"select struct(A = r.A) from R r where r.A = {i}")
            for i in range(40)
        ]
        cands = enumerate_candidates(
            queries, Statistics(), frozenset({"R"}), max_candidates=5
        )
        assert len(cands) == 5

    def test_join_core_export_names_avoid_output_field_collisions(self):
        # an output field literally named S0 must not collide with the
        # synthesized selection-export names
        query = parse_query(
            "select struct(S0 = r.A) from R r, S s "
            "where r.B = s.B and s.C = 3"
        )
        cands = enumerate_candidates([query], Statistics(), frozenset({"R", "S"}))
        core = next(c for c in cands if "join core" in c.description)
        field_names = [name for name, _ in core.structure.definition.output.fields]
        assert len(field_names) == len(set(field_names))
        assert "S0" in field_names  # the original output field survives

    def test_path_output_query_wrapped_like_semcache_views(self):
        query = parse_query("select r.A from R r where r.B = 5")
        cands = enumerate_candidates([query], Statistics(), frozenset({"R"}))
        full = cands[0]
        assert full.kind == KIND_VIEW
        assert "value = r.A" in str(full.structure.definition)

    def test_no_index_candidates_on_oid_class_extents(self):
        # depts is a set of *oids*: a row-keyed index cannot be built on
        # it, so with a schema in hand the candidate is vetoed (views are
        # still mined — the ASR-style navigation view is the right shape)
        db = logical_database("oo_asr")
        query = parse_query(
            'select struct(D = d.DName) from depts d where d.DName = "D1"'
        )
        cands = enumerate_candidates(
            [query], db.statistics, db.physical_names, schema=db.schema
        )
        assert cands, "view candidates still expected"
        assert not any("ADV_IX_depts" in c.name for c in cands)
        # without a schema there is nothing to check: candidate emitted
        unchecked = enumerate_candidates(
            [query], db.statistics, db.physical_names
        )
        assert any("ADV_IX_depts" in c.name for c in unchecked)
        # the Database front door threads its schema through
        report = db.advise([query], budget=DesignBudget(max_structures=4))
        db.apply_design(report)  # nothing unbuildable was chosen
        assert not any("ADV_IX_depts" in name for name in report.chosen_names())


class TestWhatIfCosting:
    def test_design_statistics_overlay(self):
        stats = Statistics()
        stats.set_card("R", 1000).set_ndv("R", "B", 50)
        query = parse_query("select struct(A = r.A, B = r.B) from R r")
        cands = enumerate_candidates(
            [parse_query("select struct(B = r.B) from R r where r.B = 1")],
            stats,
            frozenset({"R"}),
        )
        by_name = {c.name: c for c in cands}
        overlay = estimated_design_statistics(stats, list(by_name.values()))
        ix = by_name["ADV_IX_R_B"]
        assert overlay.card(ix.name) == 50  # dom size = NDV
        assert overlay.entry_card(ix.name) == 1000 / 50
        # the base catalog is untouched
        assert ix.name not in stats.cardinality
        core = by_name["ADV_V1"]  # join core: select struct(B, S0=...) hmm
        assert overlay.card(core.name) >= 1.0

    def test_view_design_beats_empty_design(self):
        db = rs_db()
        query = parse_query(E5_MIX[0])
        coster = WhatIfCoster(db.context, db.physical_names)
        empty = coster.best_plan(query, ())
        cands = enumerate_candidates([query], db.statistics, db.physical_names)
        full_view = cands[0]
        tuned = coster.best_plan(query, (full_view,))
        assert tuned.cost < empty.cost
        assert full_view.name in str(tuned.query)

    def test_shared_subproblems_costed_once(self):
        db = rs_db()
        query = parse_query(E5_MIX[0])
        coster = WhatIfCoster(db.context, db.physical_names)
        coster.best_plan(query, ())
        coster.best_plan(query, ())
        info = coster.cache_info()
        assert info.misses == 1 and info.hits == 1


class TestGreedySelection:
    def test_respects_structure_budget(self):
        db = rs_db()
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=1))
        assert len(report.chosen) == 1
        assert report.tuned_total < report.baseline_total

    def test_zero_tuple_budget_chooses_nothing(self):
        db = rs_db()
        report = db.advise(
            E5_MIX,
            budget=DesignBudget(max_structures=4, max_total_tuples=0.0),
        )
        assert report.chosen == []
        assert report.tuned_total == report.baseline_total
        assert "empty" in report.report()

    def test_weighted_queries_steer_the_choice(self):
        db = rs_db()
        # all weight on the full join: its materialization (or the index
        # serving it) must be chosen first
        workload = [(E5_MIX[0], 100.0)] + [(q, 0.001) for q in E5_MIX[1:]]
        report = db.advise(
            workload, budget=DesignBudget(max_structures=1)
        )
        delta = report.deltas[0]
        assert delta.weight == 100.0
        assert delta.tuned_cost < delta.baseline_cost

    def test_normalize_workload_shapes(self):
        q = parse_query("select struct(A = r.A) from R r")
        entries = normalize_workload(["select struct(A = r.A) from R r", (q, 3)])
        assert entries[0][0] == q and entries[0][1] == 1.0
        assert entries[1] == (q, 3.0)
        with pytest.raises(OptimizationError):
            normalize_workload([])
        with pytest.raises(OptimizationError):
            normalize_workload([42])

    def test_report_is_deterministic(self, rs_advised):
        db, report = rs_advised
        again = rs_db().advise(
            E5_MIX, budget=DesignBudget(max_structures=3, max_total_tuples=10_000)
        )
        assert again.report() == report.report()
        assert again.chosen_names() == report.chosen_names()


class TestDatabaseIntegration:
    # (that an applied design answers like the cold database — and like the
    # evaluator — is TestAdvisedMixes below, on both mixes)

    def test_apply_design_adopts_the_design(self):
        db = rs_db()
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=2))
        db.apply_design(report)
        for name in report.chosen_names():
            assert name in db.instance
            assert name in db.physical_names
        constraint_names = {dep.name for dep in db.constraints}
        for cand in report.chosen:
            for dep in cand.constraints():
                assert dep.name in constraint_names
        # the adopted design actually changes the winning plans
        best = db.optimize(parse_query(E5_MIX[0])).best
        assert any(name in str(best.query) for name in report.chosen_names())

    def test_apply_design_invalidates_plan_cache(self):
        db = rs_db()
        query = parse_query(E5_MIX[0])
        db.execute(query)  # park a plan under the empty design
        assert db.plan_cache_info().size == 1
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=1))
        db.apply_design(report)
        info = db.plan_cache_info()
        assert info.invalidations > 0
        assert info.size == 0

    def test_apply_design_is_idempotent(self):
        db = rs_db()
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=2))
        installed = db.apply_design(report)
        constraints_after = len(db.constraints)
        names_after = sorted(db.instance.names())
        # re-applying the same report changes nothing: no re-install, no
        # duplicated constraint pairs, same physical design
        assert db.apply_design(report) == []
        assert len(db.constraints) == constraints_after
        assert sorted(db.instance.names()) == names_after
        constraint_names = [dep.name for dep in db.constraints]
        assert len(constraint_names) == len(set(constraint_names))
        assert installed  # the first application really did install

    def test_apply_design_preserves_explicit_statistics(self):
        from repro.api import Database

        source = rs_db()
        catalog = Statistics()
        catalog.set_card("R", 12345.0).set_card("S", 54321.0)
        catalog.set_ndv("R", "B", 40).set_ndv("S", "B", 40)
        db = Database(
            constraints=[],
            physical_names=frozenset({"R", "S"}),
            instance=source.instance.copy(),
            statistics=catalog,
        )
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=1))
        db.execute(parse_query(E5_MIX[0]))  # park a plan
        db.apply_design(report)
        # the caller's catalog survives (no silent re-observation) ...
        assert db.statistics.card("R") == 12345.0
        assert db.statistics.card("S") == 54321.0
        # ... while the retained plans under the old design are dropped
        assert db.plan_cache_info().size == 0
        assert db.plan_cache_info().invalidations > 0

    def test_apply_design_with_schema_missing_instance_names(self):
        """A schema that types only part of the instance must not make the
        advised design uninstallable: structures the schema cannot type
        install without a schema entry (like ``install(instance)``)."""

        from repro.api import Database
        from repro.model.schema import Schema
        from repro.model.types import INT, relation

        source = rs_db()
        schema = Schema("partial")
        schema.add("R", relation(A=INT, B=INT))  # S only in the instance
        db = Database(
            schema=schema,
            constraints=[],
            physical_names=frozenset({"R", "S"}),
            instance=source.instance.copy(),
        )
        report = db.advise(E5_MIX, budget=DesignBudget(max_structures=2))
        installed = db.apply_design(report)
        assert installed == report.chosen_names()
        for name in installed:
            assert name in db.instance  # extent present either way

    def test_apply_empty_report_is_a_noop(self):
        db = rs_db()
        report = db.advise(
            E5_MIX, budget=DesignBudget(max_structures=4, max_total_tuples=0.0)
        )
        before = sorted(db.instance.names())
        assert db.apply_design(report) == []
        assert sorted(db.instance.names()) == before

    def test_advise_requires_design_context(self):
        from repro.api import Database
        from repro.errors import ReproError

        db = Database()
        with pytest.raises(ReproError):
            db.advise(E5_MIX)

    def test_apply_design_is_atomic_on_install_failure(self):
        """A failing structure (here: a primary index on a non-unique
        attribute, the sampled-statistics misclassification case) must
        leave the instance, schema and context untouched — no orphan
        half-installed design."""

        from types import SimpleNamespace

        from repro.advisor.candidates import (
            Candidate,
            _view_candidate,
        )
        from repro.errors import InstanceError
        from repro.physical.indexes import PrimaryIndex

        db = rs_db()
        good_view = _view_candidate(
            "ADV_V0",
            parse_query("select struct(A = r.A) from R r"),
            db.statistics,
            "test view",
        )
        bad_primary = Candidate(
            kind=KIND_PRIMARY,
            structure=PrimaryIndex("ADV_IX_R_B", "R", "B"),  # B not unique
            estimated_tuples=1.0,
            description="misclassified primary index",
        )
        report = SimpleNamespace(chosen=[good_view, bad_primary])
        names_before = sorted(db.instance.names())
        constraints_before = len(db.constraints)
        with pytest.raises(InstanceError):
            db.apply_design(report)
        assert sorted(db.instance.names()) == names_before
        assert len(db.constraints) == constraints_before
        assert "ADV_V0" not in db.physical_names

    def test_refresh_statistics_honors_sample_cap(self, monkeypatch):
        db = logical_database("rs", sample=7)
        assert db.statistics_sample == 7
        calls = []
        original = Statistics.from_instance

        def spy(instance, sample=None):
            calls.append(sample)
            return original(instance, sample=sample)

        monkeypatch.setattr(Statistics, "from_instance", staticmethod(spy))
        db.refresh_statistics()
        assert calls == [7]


# -- empty vs advised vs hand-written on the repeated mixes (formerly E16) -----


@pytest.fixture(scope="module", params=sorted(SERVING_MIXES))
def advised_mix(request, serving_mixes):
    """``(mix, report, installed names, budget, advised instance, executions
    per arm)`` of one serving mix: the mix once through the logical core
    as-is (*empty*), through a second one after ``advise`` +
    ``apply_design`` (*advised*), and through the paper's own design
    (*hand*); three structures and 200 000 tuples of budget."""

    workload, params, _ = SERVING_MIXES[request.param]
    mix = serving_mixes[request.param]
    budget = DesignBudget(max_structures=3, max_total_tuples=200_000.0)
    empty = logical_database(workload, **params)
    advised = logical_database(workload, **params)
    report = advised.advise(mix.queries, budget=budget)
    installed = advised.apply_design(report)
    _, statements, _ = mix.prepared
    arms = {
        "empty": [empty.execute(q) for q in mix.queries],
        "advised": [advised.execute(q) for q in mix.queries],
        "hand": [statement.run() for statement in statements],
    }
    empty.close()
    advised.close()
    return mix, report, installed, budget, advised.instance, arms


class TestAdvisedMixes:
    def test_every_design_gives_the_evaluators_answers(self, advised_mix):
        mix, *_, arms = advised_mix
        expected = [evaluate(q, mix.instance) for q in mix.queries]
        for arm, executions in arms.items():
            assert [run.results for run in executions] == expected, arm

    def test_the_design_is_in_budget_and_estimated_to_pay(self, advised_mix):
        _, report, installed, budget, *_ = advised_mix
        assert report.chosen and report.chosen_names() == installed
        assert len(report.chosen) <= budget.max_structures
        assert report.chosen_tuples <= budget.max_total_tuples
        assert report.tuned_total < report.baseline_total
        # shared subproblems are costed once: the final report pass re-reads
        # every greedy winner from the what-if plan cache
        assert report.plan_cache.hits > 0

    def test_installed_views_are_the_evaluators_extents(self, advised_mix):
        """``apply_design`` materializes through the compiled executor; each
        view it installed holds what the reference evaluator computes."""

        _, report, _, _, instance, _ = advised_mix
        views = [cand for cand in report.chosen if cand.kind == KIND_VIEW]
        assert views
        for cand in views:
            want = evaluate(cand.structure.definition, instance)
            assert instance[cand.name] == want, cand.name

    def test_the_advised_design_executes_less_than_the_empty_one(self, advised_mix):
        """Why the advised arm is faster (every arm serves plan-cache hits
        after its first pass, so the difference is execution): its plans do
        less work, as the estimates said — and not an order of magnitude
        more than the paper's hand-written design's."""

        *_, arms = advised_mix
        work = {
            arm: sum(executed_cost(run.counters) for run in executions)
            for arm, executions in arms.items()
        }
        assert work["advised"] < work["empty"]
        assert work["advised"] <= 5 * work["hand"]


class TestLogicalDatabase:
    @pytest.mark.parametrize(
        "name, kept, stripped",
        [
            ("rs", {"R", "S"}, {"V", "IR", "IS"}),
            ("rabc", {"R"}, {"SA", "SB"}),
            ("projdept", {"Proj", "Dept", "depts"}, {"I", "SI", "JI"}),
            ("oo_asr", {"Dept", "Emp", "depts", "emps"}, {"ASR"}),
        ],
    )
    def test_strips_hand_written_design(self, name, kept, stripped):
        db = logical_database(name)
        names = set(db.instance.names())
        assert kept <= names
        assert not (stripped & names)
        assert db.physical_names == frozenset(names)
        constraint_names = {dep.name for dep in db.constraints}
        for structure_name in stripped:
            assert not any(
                cname.startswith(f"{structure_name}_")
                for cname in constraint_names
            ), (structure_name, constraint_names)

    def test_tunable_structures_cover_the_hand_design(self):
        wl = build_workload("projdept")
        assert {s.name for s in tunable_structures(wl)} == {"I", "SI", "JI"}

    def test_class_registry_survives_the_strip(self):
        db = logical_database("projdept", n_depts=4, projs_per_dept=3, seed=3)
        # oid dereference works: the canonical query runs on the logical core
        result = db.execute(db.workload.query)
        assert result.results == db.execute(db.workload.query).results
        assert db.instance.class_registry() == {"Dept": "Dept"}

    def test_sampled_statistics_pass_through(self):
        db = logical_database("rs", sample=10)
        assert db.statistics.card("R") == 500  # exact despite sampling

    def test_zero_sample_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            logical_database("rs", sample=0)


@pytest.mark.golden
def test_golden_advisor_report(rs_advised):
    """The rs advisor report, byte-for-byte (regenerate: ``make golden``).

    Locks the acceptance criterion that the advisor is deterministic for
    a fixed workload + budget: chosen design, per-query plans and
    estimated costs all live in the rendered report."""

    _, report = rs_advised
    text = report.report() + "\n"
    if REGEN:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text)
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden file missing at {GOLDEN_PATH}; generate it with `make golden`"
    )
    assert text == GOLDEN_PATH.read_text(), (
        "advisor report drifted from the golden snapshot "
        "(if intentional, regenerate with `make golden` and review the diff)"
    )
