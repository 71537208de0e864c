"""Regression tests for the cost-bounded backchase and its verdicts.

Covers: monotone `BackchaseStats` counters, `ChaseEngine.contained_in`
verdict parity with the uncached decision procedure on the paper's E1
(ProjDept) and E5 (R ⋈ S with views) examples, the search's memo as the
only store of its verdicts, pruned-vs-full agreement on the workload
scenarios, and the strategy plumbing.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from backchase_oracle import restrict_to_bindings
from chain_shapes import scaling_workload
from conftest import recording
from repro import Database
from repro.api.context import OptimizeContext
from repro.backchase import backchase as backchase_module
from repro.backchase.backchase import (
    BackchaseStats,
    RootVerdicts,
    accept_candidate,
    build_candidate,
    minimal_subqueries,
)
from repro.chase.chase import ChaseEngine, chase
from repro.chase.containment import is_contained_in
from repro.errors import BackchaseError, OptimizationError
from repro.lru import LRU
from repro.optimizer.cost import estimate_cost, plan_cost_floor
from repro.optimizer.optimizer import Optimizer
from repro.query.parser import parse_constraint, parse_query


def q(text):
    return parse_query(text)


REDUNDANT = (
    "select struct(A = p.A, B = r.B) from R p, R q, R r "
    "where p.B = q.A and q.B = r.B"
)


class TestStatsCounters:
    def test_counters_monotone_across_searches(self):
        """A stats object threaded through several enumerations only ever
        accumulates: every counter is non-decreasing run over run."""

        stats = BackchaseStats()
        previous = stats.as_dict()
        for _ in range(3):
            minimal_subqueries(q(REDUNDANT), [], stats=stats)
            current = stats.as_dict()
            for name, value in current.items():
                assert value >= previous[name], name
            previous = current

    def test_counter_invariants_full(self):
        stats = BackchaseStats()
        minimal_subqueries(q(REDUNDANT), [], stats=stats)
        assert stats.nodes_visited >= 1
        assert stats.normal_forms >= 1
        assert stats.steps_attempted >= stats.candidates_explored
        assert stats.candidates_explored >= stats.steps_applied
        assert stats.candidates_pruned == 0  # full mode never prunes
        assert min(stats.as_dict().values()) >= 0

    def test_counter_invariants_pruned(self):
        stats = BackchaseStats()
        minimal_subqueries(q(REDUNDANT), [], stats=stats, strategy="pruned")
        assert stats.nodes_visited >= 1
        assert stats.normal_forms >= 1
        assert stats.steps_attempted >= stats.candidates_explored
        assert stats.candidates_explored >= stats.steps_applied
        assert min(stats.as_dict().values()) >= 0

    def test_pruned_never_explores_more(self):
        full_stats, pruned_stats = BackchaseStats(), BackchaseStats()
        minimal_subqueries(q(REDUNDANT), [], stats=full_stats)
        minimal_subqueries(
            q(REDUNDANT), [], stats=pruned_stats, strategy="pruned"
        )
        assert (
            pruned_stats.candidates_explored <= full_stats.candidates_explored
        )
        assert pruned_stats.nodes_visited <= full_stats.nodes_visited


class TestContainmentCacheParity:
    """A served verdict is exactly the decided one (E1 and E5)."""

    def _assert_parity(self, workload):
        deps = workload.constraints
        universal = chase(workload.query, deps).query
        verdicts = RootVerdicts(universal, ChaseEngine(deps))
        forms = minimal_subqueries(verdicts)
        assert forms
        pairs = [(form, universal) for form in forms]
        pairs += [(universal, form) for form in forms]
        pairs.append((workload.query, universal))
        # `is_contained_in` is the raw decision procedure: it shares the
        # engine's chase memo, and no verdict memo is consulted.
        for q1, q2 in pairs:
            first = verdicts.contained_in(q1, q2)
            hits_before = verdicts.hits
            second = verdicts.contained_in(q1, q2)  # served
            assert verdicts.hits == hits_before + 1
            decided = verdicts.engine.contained_in(q1, q2)
            uncached = is_contained_in(q1, q2, deps, verdicts.engine)
            assert first == second == decided == uncached, f"{q1} vs {q2}"

    def test_the_engine_remembers_no_verdict(self):
        """``ChaseEngine.contained_in`` decides every pair it is asked;
        ``RootVerdicts`` is the one memo of verdicts."""

        engine = ChaseEngine([])
        q1 = parse_query("select struct(A = r.A) from R r")
        assert engine.contained_in(q1, q1) is True
        assert engine.contained_in(q1, q1) is True
        assert sum(engine.containment_decisions.values()) == 2

    def test_e1_projdept_verdicts(self, projdept):
        self._assert_parity(projdept)

    def test_e5_views_verdicts(self, rs_workload):
        self._assert_parity(rs_workload)


class TestTheSearchKeepsItsOwnVerdicts:
    @pytest.mark.parametrize("name", ["projdept", "rabc", "rs", "oo_asr"])
    def test_a_full_search_decides_each_verdict_once(
        self, name, optimized_workloads
    ):
        """The search's memo is the only store of its condition-(3)
        verdicts, and an unbounded search (no coster inside it) asks no
        pair: it decides at most one verdict per candidate explored."""

        wl = optimized_workloads.workload(name)
        universal = optimized_workloads.result(name, "full").universal_plan
        verdicts = RootVerdicts(universal, ChaseEngine(wl.constraints))
        stats = BackchaseStats()
        minimal_subqueries(verdicts, stats=stats)
        assert verdicts.hits == verdicts.misses == 0
        assert 0 < stats.cache_misses <= stats.candidates_explored

    def test_a_bounded_verdict_store_only_recomputes(self, rs_workload):
        """``prune_conditions`` asks its pairs inside a pruned search through
        the search's verdicts, in the root's store entry; bounding the store
        to one entry evicts it when another root is searched, yet the root
        searched again returns the same plans, explores the same candidates
        and decides its verdicts again — its pairs among them."""

        wl = rs_workload
        roots = [
            chase(parse_query(text), wl.constraints).query
            for text in (
                "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
                "select r.A from R r where r.B = 2",
            )
        ]
        store, runs = LRU(max_size=1), []
        for root in (roots[0], roots[1], roots[0]):
            # a fresh optimizer each time: it remembers each form's variants
            opt = Optimizer(
                OptimizeContext(
                    constraints=wl.constraints,
                    physical_names=wl.physical_names,
                    statistics=wl.statistics,
                ),
                verdict_store=store,
            )
            verdicts = RootVerdicts(root, ChaseEngine(wl.constraints), opt.context, store)
            stats = BackchaseStats()
            plans = opt.minimal_plans(verdicts, stats)
            assert verdicts.misses > 0
            runs.append((stats.as_dict(), [p.canonical_key() for p in plans]))
        assert store.evictions == 2  # the bound really bit
        assert runs[2] == runs[0] and runs[0][0]["cache_misses"] > 0


class TestPrunedAgainstFull:
    @pytest.mark.parametrize("workload", ["projdept", "rabc", "rs"])
    def test_equal_best_cost_on_workloads(self, workload, optimized_workloads):
        full = optimized_workloads.result(workload, "full")
        pruned = optimized_workloads.result(workload, "pruned")
        assert pruned.best.cost == pytest.approx(full.best.cost)
        assert pruned.best.physical_only == full.best.physical_only
        full_keys = {p.query.canonical_key() for p in full.plans}
        pruned_keys = {p.query.canonical_key() for p in pruned.plans}
        assert pruned_keys <= full_keys
        assert (
            pruned.backchase_stats.candidates_explored
            <= full.backchase_stats.candidates_explored
        )

    def test_unbounded_pruned_search_is_the_full_enumeration(self, rs_workload):
        """With no eligible complete plan the bound never tightens and the
        pruned search must return every normal form — one spelling per
        binding set, which on ``rs`` is every one there is."""

        wl = rs_workload
        universal = chase(wl.query, wl.constraints).query
        full = minimal_subqueries(universal, wl.constraints)
        unbounded = minimal_subqueries(
            universal,
            wl.constraints,
            strategy="pruned",
            plan_cost=lambda form: None,
        )
        assert [f.canonical_key() for f in unbounded] == [
            f.canonical_key() for f in full
        ]

    def test_pruned_keeps_a_cheapest_form(self, rs_workload):
        wl = rs_workload
        universal = chase(wl.query, wl.constraints).query
        full = minimal_subqueries(universal, wl.constraints)
        pruned = minimal_subqueries(
            universal, wl.constraints, strategy="pruned", statistics=wl.statistics
        )
        best_full = min(estimate_cost(f, wl.statistics) for f in full)
        best_pruned = min(estimate_cost(f, wl.statistics) for f in pruned)
        assert best_pruned == pytest.approx(best_full)


class TestScalingShapes:
    """One search, with and without the bound, on the scaling shapes: the
    bound never costs plan quality nor work, and the shape-keyed verdict
    memo decides condition (3) at most once per candidate shape under
    either strategy (``cache_misses`` also counts the in-search coster's
    ``prune_conditions`` checks under ``pruned``, so the two strategies'
    miss counts are not comparable with each other)."""

    @pytest.fixture(scope="class")
    def runs(self):
        def both(n_bindings, n_indexes):
            query, deps, stats = scaling_workload(n_bindings, n_indexes)
            return {
                strategy: Optimizer(
                    OptimizeContext(
                        constraints=deps,
                        statistics=stats,
                        strategy=strategy,
                        max_backchase_nodes=100_000,
                    )
                ).optimize(query)
                for strategy in ("full", "pruned")
            }

        return {shape: both(*shape) for shape in ((2, 1), (1, 2))}

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
    def test_equal_cost_no_more_work_each_shape_decided_once(self, runs, shape):
        full, pruned = runs[shape]["full"], runs[shape]["pruned"]
        assert pruned.best.cost == full.best.cost
        assert len(pruned.plans) <= len(full.plans)  # a subset, never larger
        assert (
            pruned.backchase_stats.candidates_explored
            <= full.backchase_stats.candidates_explored
        )
        for result in (full, pruned):
            stats = result.backchase_stats
            # a shape re-derived along another removal order is a hit
            assert stats.cache_misses <= stats.candidates_explored
            assert stats.cache_hits > 0

    def test_the_bound_bites_on_the_two_binding_chain(self, runs):
        full, pruned = runs[(2, 1)]["full"], runs[(2, 1)]["pruned"]
        assert (
            pruned.backchase_stats.candidates_explored
            < full.backchase_stats.candidates_explored
        )
        assert pruned.backchase_stats.candidates_pruned > 0
        assert full.backchase_stats.candidates_pruned == 0

    def test_memo_and_bound_pay_more_on_the_deep_search(
        self, runs, optimized_workloads
    ):
        """What the larger scaling shapes showed, read off the run's shared
        ProjDept optimizations (the deepest search tier-1 has): the memo
        spares most candidates a fresh verdict, and the bound saves at
        least what it saves on the small chain.  Under ``pruned`` a removal
        onto an accepted binding set reuses its node unbuilt, so the repeats
        never reach the memo: there the verdicts are held to the removals
        tried (920 < 1 740 on the default build)."""

        full = optimized_workloads.result("projdept", "full").backchase_stats
        pruned = optimized_workloads.result("projdept", "pruned").backchase_stats
        assert full.cache_misses * 2 < full.candidates_explored
        assert pruned.cache_misses * 2 < pruned.steps_attempted
        small = runs[(2, 1)]
        assert full.candidates_explored - pruned.candidates_explored >= (
            small["full"].backchase_stats.candidates_explored
            - small["pruned"].backchase_stats.candidates_explored
        )

    def test_make_chain_runs_the_shapes_script(self):
        """``make chain`` runs ``benchmarks/chain.py`` as a script, so the
        benchmarks' ``conftest.py`` comes first on its ``sys.path``: the
        shapes must import without the tests' one.  Run the same way, on
        the smallest shape (the (2,1) pruned search of ``runs``)."""

        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1"
        )
        done = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "chain.py"), "2,1"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("chain (2,1): ")
        assert done.stdout.rstrip().endswith(
            "nodes 37  constructed 52  normal forms 2  best 83"
        )


class TestTheFloorIsAdmissible:
    """What ``pruned`` rests on: ``plan_cost_floor`` never exceeds the cost
    the bound compares it with.  For every normal form F of the unbounded
    search, the floor of the universal plan (the root, whose subtree holds
    F) and the floor of F itself are both at most F's bounding cost — the
    best eligible cost of F's costed variants, ``Optimizer._bounding_cost``.
    On the default workload builds and E8's chain shapes."""

    @staticmethod
    def _optimizer(case):
        if isinstance(case, tuple):
            query, deps, stats = scaling_workload(*case)
            return query, Optimizer(
                OptimizeContext(
                    constraints=deps,
                    statistics=stats,
                    strategy="full",
                    max_backchase_nodes=100_000,
                )
            )
        db = Database.from_workload(case)
        try:
            return db.workload.query, Optimizer(
                context=db.context.override(strategy="full")
            )
        finally:
            db.close()

    @pytest.mark.parametrize(
        "case",
        ["projdept", "rabc", "rs", "oo_asr", (2, 1), (1, 2), (2, 2)],
        ids=lambda case: case if isinstance(case, str) else "chain-%d-%d" % case,
    )
    def test_no_floor_exceeds_a_bounding_cost(self, case):
        query, optimizer = self._optimizer(case)
        with recording(Optimizer, "minimal_plans") as searches:
            optimizer.optimize(query)
        (forms,) = searches
        universal = optimizer.universal_plan(query).query
        # over the universal plan's own verdicts: a form the run's memo does
        # not hold is priced, not looked up
        bounding_cost = optimizer._bounding_cost(optimizer._root_verdicts(universal))
        context = optimizer.context

        def floor(plan):
            return plan_cost_floor(plan, context.statistics, context.cost_model)

        root = floor(universal)
        bounded = 0
        for form in forms:
            cost = bounding_cost(form)
            if cost is None:  # no eligible variant: it never sets the bound
                continue
            bounded += 1
            assert root <= cost, form
            assert floor(form) <= cost, form
        assert bounded > 0


class TestLookupSafetyDecisions:
    def test_most_scopes_are_decided_without_a_chase(self, optimized_workloads):
        """Where the decisions went, read off the shared ProjDept search:
        335 scopes reach a decision (the memo serves the repeats), and a
        chase decides 30 of them.  Before each question past the guard was
        cut down to the part of its scope linked to the key, 414 reached
        one — guard 203, inferred 112, chased 99 — and 430 before the search
        built each accepted binding set once; a chase decided 210 before
        verdicts were inferred from the scopes already chased."""

        decisions = optimized_workloads.result("projdept").lookup_decisions
        decided = sum(decisions.values()) - decisions["memo"]
        assert decided == 335
        assert (decisions["guard"], decisions["inferred"], decisions["chased"]) == (
            203, 102, 30)


class TestContainmentDecisions:
    @pytest.mark.parametrize("strategy", ["pruned", "full"])
    def test_few_verdicts_need_the_fixpoint(self, optimized_workloads, strategy):
        """Where ProjDept's computed containment verdicts went, read off the
        program's own counters: every one is counted once, subsumption
        settles most, and of those a chase settles, most stop at their
        mapping.  The chases took 463 / 537 steps and left 98 / 107 states
        short of their fixpoint, ~175 / ~290 steps short on the default
        build (``tests/test_early_stop_differential.py`` finishes them).
        Subsumption's part is a share of the computed verdicts: the pruned
        search builds each accepted binding set once, so it computes fewer
        (381 of 460 subsumed; 422 of 505 before, when ``> 400`` — a share
        of 0.79 — was the bar)."""

        result = optimized_workloads.result("projdept", strategy)
        decided = result.containment_decisions
        # every computed verdict is counted once: the search's own, and
        # the engine's `contained_in` misses — inside the pruned search,
        # whose coster prunes conditions as it goes; after the full one
        computed = result.backchase_stats.cache_misses
        if strategy == "full":
            computed += result.containment.misses
        assert sum(decided.values()) == computed
        assert decided["subsumed"] > 0.8 * computed and decided["refuted"] > 0
        assert decided["early"] > 5 * decided["fixpoint"] > 0
        # lookup-safety chases included: 1 098 / 1 221 steps and 143 / 154
        # stopped before they ran on the part of the scope linked to the key
        assert result.chase_counts == {
            "pruned": {"steps": 463, "stopped": 98},
            "full": {"steps": 537, "stopped": 107},
        }[strategy]


# Recorded from the commit before the two search loops became one (the
# default `Database.from_workload(name)` build, optimising its canonical
# query).  Pinned, not re-baselined: the unbounded run visits the same node
# set, and only the number of containment verdicts `full` computes was
# allowed to fall.  The bounded run's counters moved once, when it began
# building each accepted binding set once: a removal onto a set already
# accepted reuses that node, so fewer candidates are constructed (and
# fewer spellings visited), while every plan count and best cost held.
PRUNED_BASELINE = {
    # as_dict() order: nodes_visited, steps_attempted, steps_applied,
    # normal_forms, candidates_explored, candidates_pruned, cache_hits,
    # cache_misses, candidates_replayed (0: a cold search replays
    # nothing); then plan count and best cost
    "projdept": ((369, 1804, 1549, 4, 510, 18, 1224, 461, 0), 4, 15.5),
    "rs": ((55, 245, 140, 6, 98, 0, 104, 96, 0), 9, 5901.0),
    "rabc": ((18, 57, 40, 2, 34, 4, 26, 34, 0), 4, 25.0),
    "oo_asr": ((22, 65, 49, 4, 24, 0, 30, 27, 0), 3, 161.0),
}
FULL_BASELINE = {
    # nodes_visited, steps_attempted, steps_applied, candidates_explored,
    # normal_forms; then plan count and the parent's containment misses
    "projdept": ((422, 1970, 1643, 1791, 9), 7, 1804),
    "rs": ((58, 258, 145, 195, 6), 9, 211),
    "rabc": ((22, 65, 44, 57, 3), 5, 66),
    "oo_asr": ((22, 65, 49, 49, 4), 3, 52),
}


class TestCountersPinnedAcrossTheMerge:
    # Private runs, not conftest's shared optimizations: the baselines were
    # recorded on the default builds, and what is pinned is the search's
    # own counters (`make determinism` re-runs them under three hash seeds).
    @staticmethod
    def _optimize(name, strategy):
        db = Database.from_workload(name, strategy=strategy)
        try:
            return db.optimize(db.workload.query)
        finally:
            db.close()

    @pytest.mark.parametrize("name", sorted(PRUNED_BASELINE))
    def test_pruned_counters_plans_and_cost(self, name):
        counters, plan_count, best_cost = PRUNED_BASELINE[name]
        result = self._optimize(name, "pruned")
        assert tuple(result.backchase_stats.as_dict().values()) == counters
        assert len(result.plans) == plan_count
        assert result.best.cost == best_cost

    @pytest.mark.parametrize("name", sorted(FULL_BASELINE))
    def test_full_visits_the_same_nodes_with_no_more_verdicts(self, name):
        counters, plan_count, parent_misses = FULL_BASELINE[name]
        result = self._optimize(name, "full")
        stats = result.backchase_stats
        assert (
            stats.nodes_visited,
            stats.steps_attempted,
            stats.steps_applied,
            stats.candidates_explored,
            stats.normal_forms,
        ) == counters
        assert stats.candidates_pruned == 0
        assert len(result.plans) == plan_count
        assert result.containment.misses <= parent_misses


class TestEachBindingSetOnce:
    """Two spellings of one binding set can get different verdicts, so only
    an accepted one settles its set, and only under the bound: ``pruned``
    reuses the node a removal lands on once its binding set is accepted,
    while ``full`` keeps every spelling (Theorem 2)."""

    @pytest.fixture(scope="class")
    def searches(self, optimized_workloads):
        """ProjDept's universal plan searched under both strategies, with
        the binding set of every candidate ``accept_candidate`` accepted."""

        wl = optimized_workloads.workload("projdept")
        universal = optimized_workloads.result("projdept", "full").universal_plan
        runs = {}
        with pytest.MonkeyPatch.context() as patch:
            for strategy, options in (
                ("full", {}),
                ("pruned", {"statistics": wl.statistics}),
            ):
                accepted = []

                def recording(candidate, *args, accepted=accepted, **kwargs):
                    verdict = accept_candidate(candidate, *args, **kwargs)
                    if verdict:
                        accepted.append(frozenset(candidate.binding_vars()))
                    return verdict

                patch.setattr(backchase_module, "accept_candidate", recording)
                forms = minimal_subqueries(
                    universal, wl.constraints, strategy=strategy, **options
                )
                runs[strategy] = forms, Counter(accepted)
        return runs

    def test_full_keeps_every_spelling_of_projdept(self, searches):
        forms, _ = searches["full"]
        spellings = Counter(frozenset(f.binding_vars()) for f in forms)
        assert len(forms) == 9
        assert sorted((sorted(names), n) for names, n in spellings.items()) == [
            (["_x0", "_x1"], 1),
            (["_x0", "s"], 1),
            (["_x1", "d"], 1),
            (["_x2"], 1),
            (["_x3", "_x4"], 1),
            (["_x5"], 2),  # JI, its DN read through I or off the object
            (["p"], 2),  # Proj, with and without I[p.PName] = p
        ]

    def test_pruned_accepts_each_binding_set_once(self, searches):
        _, full_accepted = searches["full"]
        pruned_forms, pruned_accepted = searches["pruned"]
        assert max(full_accepted.values()) > 1  # the spellings are there
        assert set(pruned_accepted.values()) == {1}
        full_keys = {f.canonical_key() for f in searches["full"][0]}
        assert {f.canonical_key() for f in pruned_forms} <= full_keys


class TestSharedConstructor:
    """`build_candidate` is what `restrict_to_bindings` builds through: on
    the bottom-up reference's own fixtures the two agree subset by subset,
    so the constructor cannot drift from the reference's expectations."""

    VIEW_DEPS = (
        "forall (r in R, s in S) where r.B = s.B -> exists (v in V) "
        "v.A = r.A and v.C = s.C",
        "forall (v in V) -> exists (r in R, s in S) r.B = s.B and "
        "v.A = r.A and v.C = s.C",
    )

    def _assert_agree(self, universal, deps):
        all_vars = universal.binding_vars()
        for mask in range(1, 2 ** len(all_vars) - 1):  # proper, non-empty
            kept = frozenset(
                v for i, v in enumerate(all_vars) if mask >> i & 1
            )
            dropped = frozenset(all_vars) - kept
            built = build_candidate(universal, dropped)
            restricted = restrict_to_bindings(universal, kept, deps, check=False)
            assert (built is None) == (restricted is None), kept
            if built is not None:
                assert built == restricted, kept
                assert set(built.binding_vars()) == kept

    def test_view_scenario(self):
        deps = [
            parse_constraint(text, name)
            for text, name in zip(self.VIEW_DEPS, ("cV", "cV'"))
        ]
        query = q("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
        self._assert_agree(chase(query, deps).query, deps)

    def test_rs_workload(self, rs_workload):
        wl = rs_workload
        self._assert_agree(chase(wl.query, wl.constraints).query, wl.constraints)

    def test_tableau_minimization(self):
        self._assert_agree(q(REDUNDANT), [])

    def test_unbound_variable_rejected(self):
        assert build_candidate(q(REDUNDANT), frozenset(("ghost",))) is None


class TestStrategyPlumbing:
    def test_minimal_subqueries_dispatches(self):
        query = q(REDUNDANT)
        full = minimal_subqueries(query, [], strategy="full")
        pruned = minimal_subqueries(query, [], strategy="pruned")
        assert {f.canonical_key() for f in pruned} <= {
            f.canonical_key() for f in full
        }

    def test_unknown_strategy_rejected(self):
        with pytest.raises(BackchaseError, match="unknown backchase strategy"):
            minimal_subqueries(q(REDUNDANT), [], strategy="greedy")
        with pytest.raises(OptimizationError, match="unknown strategy"):
            Optimizer(OptimizeContext(strategy="greedy"))

    def test_pruned_options_rejected_for_full(self):
        with pytest.raises(BackchaseError, match="strategy='pruned'"):
            minimal_subqueries(
                q(REDUNDANT), [], strategy="full", plan_cost=lambda f: None
            )

    def test_node_budget_enforced_in_pruned_mode(self):
        query = q(
            "select struct(A = a.A) from R a, R b, R c, R d "
            "where a.A = b.A and b.A = c.A and c.A = d.A"
        )
        with pytest.raises(BackchaseError, match="exceeded"):
            minimal_subqueries(query, [], max_nodes=1, strategy="pruned")

    def test_optimizer_reports_strategy(self, rabc):
        opt = Optimizer(
            OptimizeContext(
                constraints=rabc.constraints,
                physical_names=rabc.physical_names,
                statistics=rabc.statistics,
            )
        )
        result = opt.optimize(rabc.query)
        assert result.strategy == "pruned"
        assert "backchase[pruned]" in result.report()
        assert "candidates explored" in result.report()
