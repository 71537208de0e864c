"""The seeded-fault matrix: each row breaks the program on purpose and
names the tests that must catch it.

Run it with ``make mutants`` (or ``python tests/mutants.py [ROW ...]``,
rows by number).  The script copies ``src/``, ``tests/``,
``benchmarks/perf/`` (whose workloads some tests read) and ``pytest.ini``
into a throwaway directory; for each row it replaces the
row's old text — which must occur exactly once in its file, or the run
stops loudly before anything runs — with its new text, runs the named
tests there and restores the file.  A row
passes only if every named test fails within ``TIMEOUT`` seconds.  A
control pass first runs every named test on the unmutated copy; they
must all pass, or no row's failure would mean anything.

pytest does not collect this file (it is not ``test_*.py``).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60
COPIED = ("src", "tests", "benchmarks/perf", "pytest.ini")


class Row(NamedTuple):
    fault: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


ROWS: Tuple[Row, ...] = (
    # -- compiled execution ---------------------------------------------------
    Row(
        "the column store keys by content",
        "src/repro/exec/columnar.py",
        "        key = id(source)\n",
        "        key = source\n",
        (
            "tests/test_exec_compile.py::TestOneMemoOneColumnStore::"
            "test_a_dead_databases_extents_are_freed",
        ),
    ),
    Row(
        "a column-store entry keeps a strong reference to its extent",
        "src/repro/exec/columnar.py",
        '    __slots__ = ("name", "elements", "_columns", "_indexes", "_deps")\n'
        "\n"
        "    def __init__(self, name: str, source: frozenset) -> None:\n"
        "        self.name = name\n",
        "    __slots__ = "
        '("name", "source", "elements", "_columns", "_indexes", "_deps")\n'
        "\n"
        "    def __init__(self, name: str, source: frozenset) -> None:\n"
        "        self.name = name\n"
        "        self.source = source\n",
        (
            "tests/test_exec_compile.py::TestOneMemoOneColumnStore::"
            "test_a_dead_databases_extents_are_freed",
        ),
    ),
    Row(
        "compiled_for catches PlanCompilationError and returns an "
        "interpreted run",
        "src/repro/exec/engine.py",
        "        plan = compile_plan(query, cached_names=cached_names, "
        "feedback=feedback)\n",
        "        from repro.exec.compile import PlanCompilationError\n"
        "\n"
        "        try:\n"
        "            plan = compile_plan(query, cached_names=cached_names, "
        "feedback=feedback)\n"
        "        except PlanCompilationError:\n"
        "            tree = compile_query(query, cached_names=cached_names)\n"
        "\n"
        "            class Interpreted:\n"
        "                plan_text = tree.explain()\n"
        "\n"
        "                def run(self, target, counters, params=None, "
        "feedback_out=None):\n"
        "                    bound = query.bind_params(dict(params)) "
        "if params else query\n"
        "                    return frozenset(\n"
        "                        compile_query(bound, counters).results(target)\n"
        "                    )\n"
        "\n"
        "            return Interpreted()\n",
        (
            "tests/test_exec_compile.py::TestOneMemoOneColumnStore::"
            "test_a_refused_plan_raises_at_every_entry_point",
        ),
    ),
    Row(
        "compiled_for memoizes a refusal",
        "src/repro/exec/engine.py",
        "        plan = compile_plan(query, cached_names=cached_names, "
        "feedback=feedback)\n",
        "        from repro.exec.compile import PlanCompilationError\n"
        "\n"
        "        try:\n"
        "            plan = compile_plan(query, cached_names=cached_names, "
        "feedback=feedback)\n"
        "        except PlanCompilationError:\n"
        "            _COMPILED_CACHE.put(key, False)\n"
        "            raise\n",
        (
            "tests/test_exec_compile.py::TestOneMemoOneColumnStore::"
            "test_a_refusal_is_not_remembered",
        ),
    ),
    Row(
        "the generator stops declaring a generic scan's loop local",
        "src/repro/exec/compile.py",
        "        self.declared.add(local)\n"
        "        self.line(\n"
        '            f"for {local} in _setof(',
        "        self.line(\n"
        '            f"for {local} in _setof(',
        (
            "tests/test_exec_compile.py::TestGoldenWorkloadPlans::"
            "test_canonical_and_winner_agree[projdept]",
        ),
    ),
    # -- structures are built by the compiled executor ---------------------
    Row(
        "materialize runs the definition without its conditions",
        "src/repro/physical/views.py",
        '        return execute(self.definition, instance, mode="compiled").results\n',
        "        return execute(PCQuery(self.definition.output, "
        'self.definition.bindings, ()), instance, mode="compiled").results\n',
        (
            "tests/test_materialize.py::"
            "test_workload_structures_are_the_evaluators_extents[rs-default]",
            "tests/test_materialize.py::"
            "test_join_index_view_is_the_evaluators_extent",
            "tests/test_prop_materialize.py::"
            "test_installed_view_is_the_evaluators_extent",
        ),
    ),
    Row(
        "GMap.materialize groups by the value fields instead of the key "
        "fields",
        "src/repro/physical/gmap.py",
        "            key = _rebuild(self.key_output, values[:split])\n"
        "            buckets.setdefault(key, set()).add(\n"
        "                _rebuild(self.value_output, values[split:])\n",
        "            key = _rebuild(self.value_output, values[split:])\n"
        "            buckets.setdefault(key, set()).add(\n"
        "                _rebuild(self.key_output, values[:split])\n",
        (
            "tests/test_materialize.py::"
            "test_gmap_is_the_evaluators_grouping[struct-key]",
            "tests/test_prop_materialize.py::"
            "test_gmap_is_the_evaluators_grouping",
        ),
    ),
    # -- writes are pulled, not pushed ---------------------------------------
    Row(
        "written_since always answers False (no write ever invalidates)",
        "src/repro/model/instance.py",
        "        if self.clock == clock:\n",
        "        if True:\n",
        (
            "tests/test_database_api.py::TestPlanCache::"
            "test_mutation_invalidates_only_dependents",
            "tests/test_database_api.py::TestExecuteAndPrepare::"
            "test_mutation_reoptimizes_prepared_plan",
        ),
    ),
    Row(
        "the session skips its sweep",
        "src/repro/semcache/session.py",
        "        if cache.clock != self.instance.clock:\n",
        "        if False:\n",
        (
            "tests/test_semcache.py::TestInvalidation::"
            "test_mutation_drops_dependent_views",
            "tests/test_semcache.py::TestHybridSession::"
            "test_base_mutation_never_serves_stale_hybrid",
        ),
    ),
    # -- one way in --------------------------------------------------------
    Row(
        "the session runs interpreted instead of reading its context's "
        "exec_mode",
        "src/repro/semcache/session.py",
        "            mode=context.exec_mode,\n",
        '            mode="interpret",\n',
        (
            "tests/test_semcache.py::TestSessionExecMode::"
            "test_a_standalone_session_runs_what_its_context_says[compiled]",
            "tests/test_semcache.py::TestSessionExecMode::"
            "test_cold_miss_and_hybrid_rewrite[compiled]",
        ),
    ),
    Row(
        "accept a path binding",
        "src/repro/query/ast.py",
        "    if not isinstance(value, Path):\n",
        "    if not isinstance(value, P.Const):\n",
        (
            "tests/test_params.py::TestSessionTemplates::"
            "test_a_binding_mistake_reads_the_same_everywhere[params2]",
            "tests/test_exec_compile.py::TestCompiledTemplates::"
            "test_a_path_binding_is_rejected_before_anything_runs[interpret]",
            "tests/test_exec_compile.py::TestCompiledTemplates::"
            "test_a_path_binding_is_rejected_before_anything_runs[compiled]",
            "tests/test_exec_compile.py::TestCompiledTemplates::"
            "test_a_path_bound_beside_a_value_is_rejected_by_the_engine[True]",
        ),
    ),
    Row(
        "_serve formats its own unbound-parameter message",
        "src/repro/api/database.py",
        "        values = query.check_bindings(bindings)\n",
        "        if set(query.param_names()) - set(bindings): raise "
        'ParameterBindingError("unbound parameter(s) in this template")\n'
        "        values = query.check_bindings(bindings)\n",
        (
            "tests/test_params.py::TestSessionTemplates::"
            "test_a_binding_mistake_reads_the_same_everywhere[params0]",
        ),
    ),
    Row(
        "the engine skips the marker-name check",
        "src/repro/exec/engine.py",
        "    values = query.check_bindings(params or {})\n",
        "    values = dict(params or {})\n",
        (
            "tests/test_params.py::TestSessionTemplates::"
            "test_a_binding_mistake_reads_the_same_everywhere[params0]",
            "tests/test_params.py::TestSessionTemplates::"
            "test_a_binding_mistake_reads_the_same_everywhere[params1]",
        ),
    ),
    # -- the backchase search ------------------------------------------------
    Row(
        "accept_candidate reverses the containment direction, no `accepted`",
        "src/repro/backchase/backchase.py",
        "    if not engine.contained_in(candidate, parent, accepted, refuted or ()):\n",
        "    if not engine.contained_in(parent, candidate, (), refuted or ()):\n",
        (
            "tests/test_bottomup.py::TestCrossValidation::"
            "test_matches_backchase_on_rs_workload",
            "tests/test_bottomup.py::TestCrossValidation::"
            "test_matches_backchase_on_tableau_minimization",
        ),
    ),
    Row(
        "accept_candidate skips plan_lookups_safe",
        "src/repro/backchase/backchase.py",
        "    return plan_lookups_safe(candidate, engine)\n",
        "    return True\n",
        (
            "tests/test_prop_checker.py::TestLookupSafetyByAnswers::"
            "test_every_normal_form_returns_the_answer",
        ),
    ),
    Row(
        "the search settles a binding set whatever its verdict",
        "src/repro/backchase/backchase.py",
        "                if type(edge) is not RemovalNode:\n",
        "                if settled is not None and candidate is not None:\n"
        "                    settled.add(frozenset(candidate.binding_vars()))\n"
        "                if type(edge) is not RemovalNode:\n",
        (
            "tests/test_pruned_backchase.py::TestPrunedAgainstFull::"
            "test_unbounded_pruned_search_is_the_full_enumeration",
            "tests/test_pruned_backchase.py::TestScalingShapes::"
            "test_equal_cost_no_more_work_each_shape_decided_once[shape1]",
        ),
    ),
    Row(
        "the full search settles binding sets too",
        "src/repro/backchase/backchase.py",
        '            set() if strategy == "pruned" else None\n',
        "            set()\n",
        (
            "tests/test_pruned_backchase.py::TestEachBindingSetOnce::"
            "test_full_keeps_every_spelling_of_projdept",
            "tests/test_pruned_backchase.py::TestEachBindingSetOnce::"
            "test_pruned_accepts_each_binding_set_once",
        ),
    ),
    # -- the verdict store ----------------------------------------------------
    Row(
        "abstract a constant a dependency mentions",
        "src/repro/backchase/backchase.py",
        "        for c in own - kept\n",
        "        for c in own\n",
        (
            "tests/test_verdict_store.py::TestTheKey::"
            "test_a_constant_a_dependency_mentions_stays_literal",
        ),
    ),
    Row(
        "give two equal constants two markers",
        "src/repro/backchase/backchase.py",
        "                sorted((self._mark_eq(c) for c in conditions), key=Eq.key)\n",
        "                sorted((Eq(*[P.transform(side, lambda t, i=i: Param(f'#{i}') "
        "if t in self.markers else t) for side in (c.left, c.right)]).normalized() "
        "for i, c in enumerate(conditions)), key=Eq.key)\n",
        (
            "tests/test_verdict_store.py::TestTheKey::"
            "test_equal_constants_share_a_marker",
        ),
    ),
    Row(
        "read the store across a constraint change",
        "src/repro/backchase/backchase.py",
        "            store_key = (context.constraints_fingerprint(), self.root_key)\n",
        "            store_key = self.root_key\n",
        (
            "tests/test_verdict_store.py::TestTheKey::"
            "test_the_store_is_not_read_across_a_constraint_change",
        ),
    ),
    Row(
        "key a pruning verdict by its trial side alone",
        "src/repro/backchase/backchase.py",
        "        key = (self.key_of(q1), self.key_of(q2))\n",
        "        key = self.key_of(q1)\n",
        (
            "tests/test_verdict_store.py::TestPairVerdicts::"
            "test_a_pair_is_keyed_by_both_sides",
        ),
    ),
    Row(
        "decide a pruning verdict under another root's markers",
        "src/repro/backchase/backchase.py",
        "        key = (self.key_of(q1), self.key_of(q2))\n",
        "        key_of = self.memo.setdefault(\"markers\", self.key_of)\n"
        "        key = (key_of(q1), key_of(q2))\n",
        (
            "tests/test_verdict_store.py::TestARepeatedShape::"
            "test_a_fresh_constant_prunes_no_condition_again",
        ),
    ),
    Row(
        "a served pair verdict is not counted",
        "src/repro/backchase/backchase.py",
        "        else:\n"
        "            self.hits += 1\n",
        "        else:\n"
        "            pass\n",
        (
            "tests/test_pruned_backchase.py::TestCountersPinnedAcrossTheMerge::"
            "test_pruned_counters_plans_and_cost[projdept]",
            "tests/test_verdict_store.py::TestPairVerdicts::"
            "test_a_twin_request_asks_the_pairs_its_first_asked[C]",
        ),
    ),
    Row(
        "replay the graph across a renaming of the root's variables",
        "src/repro/backchase/backchase.py",
        "        name = (key, query.binding_vars())\n",
        "        name = (key,)\n",
        (
            "tests/test_verdict_store.py::TestTheRemovalGraph::"
            "test_a_root_spelled_over_other_variables_plans_as_a_fresh_optimize",
        ),
    ),
    Row(
        "replay a recorded rejection as FAILS",
        "src/repro/backchase/backchase.py",
        "verdicts.node(ckey, candidate) if verdict else ckey\n",
        "verdicts.node(ckey, candidate) if verdict else FAILS\n",
        (
            "tests/test_verdict_store.py::TestARepeatedShape::"
            "test_a_fresh_constant_decides_no_verdict_and_plans_the_same",
            "tests/test_verdict_store.py::TestTheRemovalGraph::"
            "test_a_recorded_spelling_holds_markers_and_shares_its_parts",
            "tests/test_verdict_store.py::"
            "test_every_later_request_is_a_store_less_optimize[cold_projdept]",
        ),
    ),
    Row(
        "share one private entry across store-less searches",
        "src/repro/backchase/backchase.py",
        "        self.memo, self.removals, self._parts = entry or StoreEntry({}, {}, {})\n",
        "        private = RootVerdicts.__dict__.get('private') or {}\n"
        "        RootVerdicts.private = private\n"
        "        self.memo, self.removals, self._parts = entry or private.setdefault(\n"
        "            (str(engine.deps), self.root_key), StoreEntry({}, {}, {})\n"
        "        )\n",
        (
            "tests/test_verdict_store.py::TestTheRemovalGraph::"
            "test_a_store_less_graph_stays_private",
        ),
    ),
    Row(
        "store an accepted child's spelling unmarked",
        "src/repro/backchase/backchase.py",
        "self.key_of.spell(query, self._parts)\n",
        "query\n",
        (
            "tests/test_prop_optimizer.py::"
            "test_workload_normal_forms_are_generic_in_the_constants[projdept-pruned]",
            "tests/test_verdict_store.py::TestARepeatedShape::"
            "test_a_fresh_constant_decides_no_verdict_and_plans_the_same",
        ),
    ),
    Row(
        "record a node's floor value, not its terms",
        "src/repro/backchase/backchase.py",
        "        return price(verdicts.floor_terms(node, q)), q\n",
        "        if type(node.terms) is float:\n"
        "            return node.terms, q\n"
        "        node.terms = price(verdicts.floor_terms(node, q))\n"
        "        return node.terms, q\n",
        (
            "tests/test_verdict_store.py::TestACatalogChange::"
            "test_refreshed_statistics_price_the_terms_afresh",
        ),
    ),
    Row(
        "drop the free-variable clamp from the terms",
        "src/repro/optimizer/cost.py",
        "        (_statistic_read(member), bool(member._fvs))\n",
        "        (_statistic_read(member), False)\n",
        (
            "tests/test_prop_pruning.py::"
            "test_the_split_floor_is_the_one_pass_floor_bit_for_bit",
        ),
    ),
    Row(
        "order the drops by the literal text",
        "src/repro/optimizer/refine.py",
        "            sorted((blind(c.left), blind(c.right))),\n",
        "            c.key(),\n",
        (
            "tests/test_verdict_store.py::TestPairVerdicts::"
            "test_a_twin_request_asks_the_pairs_its_first_asked[C]",
        ),
    ),
    Row(
        "the cost floor is not admissible (ten times its value)",
        "src/repro/optimizer/cost.py",
        "        return model.scan_startup + m0 * n_first * model.tuple_cost\n",
        "        return 10 * (model.scan_startup + m0 * n_first * model.tuple_cost)\n",
        (
            "tests/test_pruned_backchase.py::TestTheFloorIsAdmissible::"
            "test_no_floor_exceeds_a_bounding_cost[projdept]",
        ),
    ),
    # -- lookup safety on the key's part of a scope ----------------------------
    Row(
        "a cartesian premise counts as separable",
        "src/repro/chase/chase.py",
        "    return len(set(premise[1])) == 1 and len(set(whole[1])) == 1\n",
        "    return True\n",
        (
            "tests/test_chase_differential.py::TestTheKeysPart::"
            "test_a_cartesian_premise_keeps_the_whole_scope",
        ),
    ),
    Row(
        "constants stop linking a scope's parts",
        "src/repro/chase/chase.py",
        "isinstance(t, (Var, Const, Param))}\n",
        "isinstance(t, Var)}\n",
        (
            "tests/test_chase_differential.py::TestTheKeysPart::"
            "test_a_shared_constant_links",
        ),
    ),
    Row(
        "dependency constants are ignored",
        "src/repro/chase/chase.py",
        "    if any(isinstance(t, (Const, Param)) for p in paths "
        "for t in P.subterms(p)):\n",
        "    if False:\n",
        (
            "tests/test_chase_differential.py::TestTheKeysPart::"
            "test_a_dependency_constant_keeps_the_whole_scope",
        ),
    ),
    Row(
        "a condition side without a link links nothing",
        "src/repro/chase/chase.py",
        "        if not (left and right):\n",
        "        if False:\n",
        (
            "tests/test_chase_differential.py::TestTheKeysPart::"
            "test_a_schema_term_equated_as_a_whole_keeps_the_whole_scope",
        ),
    ),
    # -- the early stop ------------------------------------------------------
    Row(
        "the containment goal's pattern may remap shared variables",
        "src/repro/chase/containment.py",
        "pattern = Pattern(free, q2.conditions, fixed)",
        "pattern = Pattern(q2.bindings, q2.conditions, fixed)",
        (
            "tests/test_early_stop_differential.py::TestTheContainmentGoal::"
            "test_a_shared_variable_is_not_remapped",
            "tests/test_early_stop_differential.py::"
            "test_generated_goals_are_their_definition",
        ),
    ),
    # -- interned paths and the kept closures ----------------------------------
    Row(
        "NFLookup gets an operator of its own",
        "src/repro/query/paths.py",
        "        # ``Lookup``'s operator: the two are congruent wherever both "
        "are defined\n"
        '        text = f"{base._str}{{{key._str}}}"\n'
        "        obj._describe(k, text, base._fvs | key._fvs, (base, key), "
        '("lookup",))\n',
        "        # ``Lookup``'s operator: the two are congruent wherever both "
        "are defined\n"
        '        text = f"{base._str}{{{key._str}}}"\n'
        "        obj._describe(k, text, base._fvs | key._fvs, (base, key), "
        '("nflookup",))\n',
        (
            "tests/test_paths.py::TestTheFieldsAreTheLadders::"
            "test_generated_paths",
            "tests/test_paths.py::TestTheFieldsAreTheLadders::"
            "test_a_nonfailing_lookup_is_congruent_to_the_failing_one",
        ),
    ),
    Row(
        "the cost floor adds a term to the kept closure",
        "src/repro/optimizer/cost.py",
        "    cc = query_congruence(query)  # read, never extended: binding "
        "sources are in it\n",
        "    cc = query_congruence(query)  # read, never extended: binding "
        "sources are in it\n"
        '    cc.members(Var("_absent"))\n',
        (
            "tests/test_backchase_differential.py::TestTheWorkloadSearches::"
            "test_the_kept_closure_stays_as_built[projdept-pruned]",
        ),
    ),
    Row(
        "the name supply is not seeded with the query's own names",
        "src/repro/query/ast.py",
        "    used = set(query.binding_vars()) | set(query.free_vars())\n",
        "    used = set()\n",
        (
            "tests/test_chase_differential.py::TestTheNameSupply::"
            "test_straight_through",
        ),
    ),
    # -- the kernel ------------------------------------------------------------
    Row(
        "the matcher walks its last level's candidates in reverse",
        "src/repro/chase/homomorphism.py",
        "                stack.append(iter(found))\n",
        "                stack.append(iter(found) if index + 1 < last "
        "else reversed(found))\n",
        (
            "tests/test_kernel_differential.py::"
            "test_every_workload_match_is_the_oracles[rs-pruned]",
            "tests/test_kernel_differential.py::"
            "test_generated_matches_are_the_oracles",
        ),
    ),
    Row(
        "_merge_roots drops the absorbed root's parent set",
        "src/repro/chase/congruence.py",
        "            use.setdefault(rx, set()).update(moved)\n",
        "            pass\n",
        (
            "tests/test_kernel_differential.py::"
            "test_a_root_without_parents_takes_over_the_absorbed_ones",
        ),
    ),
    Row(
        "drop the chase's satisfied trigger-set soundness condition (a "
        "trigger is skipped when its first premise binding's image is that "
        "of a satisfied one)",
        "src/repro/chase/chase.py",
        "        image = tuple(hom[b.var] for b in dep.premise_bindings)\n",
        "        image = tuple(hom[b.var] for b in dep.premise_bindings[:1])\n",
        (
            "tests/test_chase_differential.py::"
            "test_generated_chases_equal_the_oracle",
            "tests/test_chase_differential.py::TestAgainstTheNaiveChase::"
            "test_every_chase_of_a_search[projdept]",
        ),
    ),
    Row(
        "let bindings_in_class go stale across a union",
        "src/repro/chase/congruence.py",
        "                self._indexed = None  # its bindings now belong under rx\n",
        "                pass\n",
        (
            "tests/test_kernel_differential.py::"
            "test_an_index_is_rebuilt_after_a_union_moves_it",
            "tests/test_chase_differential.py::TestThePieces::"
            "test_class_index_survives_a_union",
        ),
    ),
    # -- the skew guard and plan-quality feedback ------------------------------
    Row(
        "the skew guard assumes 1/distinct instead of the costed selectivity",
        "src/repro/api/database.py",
        "                planned = _selectivity(cond, sources, stats)\n",
        "                planned = 1.0 / max(stats.distinct(rel, attr), 1.0)\n",
        (
            "tests/test_params.py::TestSkewGuard::"
            "test_the_guard_reads_the_selectivity_the_plan_was_costed_with"
            "[20-1]",
        ),
    ),
    Row(
        "the feedback store never flags the entry",
        "src/repro/obs/feedback.py",
        "                entry.flagged = True\n",
        "                pass\n",
        (
            "tests/test_feedback.py::TestDriftFlagReplan::"
            "test_drift_is_flagged_and_replanned",
            "tests/test_feedback.py::TestRegressionVerdict::"
            "test_latency_drift_flags_the_entry",
        ),
    ),
    Row(
        "the feedback variant optimizes under the base statistics",
        "src/repro/obs/feedback.py",
        '        return "#fb:" + self.fingerprint(), '
        "self.corrected_statistics(statistics)\n",
        '        return "#fb:" + self.fingerprint(), statistics\n',
        (
            "tests/test_feedback.py::TestDriftFlagReplan::"
            "test_replan_optimizes_under_the_corrected_catalog",
        ),
    ),
    # -- the constraint checker ------------------------------------------------
    Row(
        "drop the conclusion's conditions from the second query",
        "src/repro/constraints/checker.py",
        "        dep.premise_conditions + dep.conclusion_conditions,\n",
        "        dep.premise_conditions,\n",
        (
            "tests/test_prop_checker.py::TestTheOracle::"
            "test_verdicts_and_witnesses_are_the_nested_loops",
        ),
    ),
    Row(
        "take the first witness in set order",
        "src/repro/constraints/checker.py",
        "    ordered = sorted(missing, key=lambda row: "
        "[sort_key(row[n]) for n in names])\n",
        "    ordered = list(missing)\n",
        (
            "tests/test_builders_checker.py::TestItemOnesWrite::"
            "test_the_broken_pairs_and_their_witnesses_are_pinned",
        ),
    ),
)


def copy_tree(target: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, target / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(source, target / name)


def run_tests(
    tree: Path, tests: Tuple[str, ...], timeout: float = TIMEOUT
) -> Tuple[str, List[str], str]:
    """Run ``tests`` in ``tree``: ``(outcome, failed ids, output tail)``,
    the outcome one of ``passed`` / ``failed`` / ``timeout`` / ``error``."""

    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            [*command, *tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout", [], ""
    output = done.stdout + done.stderr
    failed = re.findall(r"^FAILED (\S+)", output, flags=re.MULTILINE)
    tail = "\n".join(output.strip().splitlines()[-5:])
    outcome = {0: "passed", 1: "failed"}.get(done.returncode, "error")
    return outcome, failed, tail


def mutated(text: str, row: Row) -> str:
    """``text`` with the row's fault seeded; exits loudly unless the old
    text occurs exactly once."""

    count = text.count(row.old)
    if count != 1:
        raise SystemExit(
            f"mutants: row {row.fault!r}: its old text occurs {count} times in "
            f"{row.path} (expected exactly once) — update the row"
        )
    return text.replace(row.old, row.new)


def main(argv: List[str]) -> int:
    rows = [(int(i), ROWS[int(i) - 1]) for i in argv] or list(enumerate(ROWS, 1))
    for _, row in rows:  # every row applies before anything runs
        mutated((ROOT / row.path).read_text(), row)
    named = tuple(dict.fromkeys(test for _, row in rows for test in row.tests))
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        start = time.perf_counter()
        outcome, _, tail = run_tests(tree, named, timeout=TIMEOUT * len(rows))
        print(
            f"control: the {len(named)} named tests unmutated: {outcome} "
            f"({time.perf_counter() - start:.0f} s)"
        )
        if outcome != "passed":
            print(tail)
            return 1
        status = 0
        for number, row in rows:
            path = tree / row.path
            original = path.read_text()
            path.write_text(mutated(original, row))
            start = time.perf_counter()
            try:
                outcome, failed, tail = run_tests(tree, row.tests)
            finally:
                path.write_text(original)
            missed = [test for test in row.tests if test not in failed]
            caught = outcome == "failed" and not missed
            print(
                f"{'ok  ' if caught else 'MISS'} {number:2d} {row.fault} "
                f"({outcome}, {time.perf_counter() - start:.0f} s)"
            )
            if not caught:
                status = 1
                print(f"     not failed: {missed}\n{tail}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
