"""The verdict store: the backchase's verdicts outlive the search.

A :class:`~repro.api.database.Database` keeps the verdicts its searches
decide per (constraint set, root shape up to its constants)
(``backchase.RootVerdicts``): condition (3) and lookup safety per
candidate shape, and step 3's condition-pruning containments per (trial,
reference) pair.  So a request whose universal plan differs from an
earlier one only in constants decides none of them again.  Sound because
a verdict is generic in the constants no dependency mentions
(``tests/test_prop_optimizer.py`` holds the search and the pruning pairs
to that); these tests hold the store to its key: a constant a dependency
mentions stays literal, equal constants share a marker, a constraint
change reads other entries, and a pair is keyed by both its sides.  The
entry also keeps the root's removal graph, so a later request builds no
candidate: these tests hold its replay to a store-less optimize on the
cold workloads, and its nodes to one spelling of the binding variables.
Each node keeps its floor terms, not its floor, so a later request builds
no closure but its root's and prices the terms under its own catalog:
these tests hold that to a store-less optimize after a refresh of the
statistics and under a skew variant's adjusted ones.
"""

from __future__ import annotations

import importlib.util
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import GOLDEN_WORKLOADS
from repro import Database, Instance, Row
from repro.advisor.candidates import Candidate
from repro.api.context import OptimizeContext
from repro.api.database import CacheConfig
from repro.backchase.backchase import (
    FAILS,
    RemovalNode,
    RootVerdicts,
    ShapeKeys,
    constant_markers,
    minimal_subqueries,
)
from repro.chase.chase import ChaseEngine
from repro.errors import BackchaseError
from repro.lru import LRU
from repro.optimizer.optimizer import Optimizer
from repro.physical.indexes import SecondaryIndex
from repro.query.parser import parse_constraint, parse_query
from repro.query.paths import Const, Param

PROJDEPT_Q = (
    "select struct(PN = s, PB = p.Budg, DN = d.DName) "
    "from depts d, d.DProjs s, Proj p where s = p.PName and p.CustName = {}"
)


def plan_texts(result):
    return [(str(plan.query), plan.cost) for plan in result.plans]


def search_counts(result):
    stats = result.backchase_stats
    return stats.candidates_explored, stats.candidates_pruned, stats.normal_forms


def walk(result):
    """The counters of the search's walk (what a served search shares with
    a store-less one: not its verdict hits, misses or replays)."""

    stats = result.backchase_stats
    return (
        stats.nodes_visited,
        stats.steps_attempted,
        stats.steps_applied,
        stats.normal_forms,
        stats.candidates_explored,
        stats.candidates_pruned,
    )


def built(result):
    """The candidates the request built: explored less replayed."""

    stats = result.backchase_stats
    return stats.candidates_explored - stats.candidates_replayed


def computed(result):
    """The containment verdicts the request decided: condition (3)'s and
    condition pruning's (``containment_decisions`` counts each computed
    one once; a verdict the store served is a hit, not a decision)."""

    return sum(result.containment_decisions.values())


class TestARepeatedShape:
    def test_a_fresh_constant_decides_no_verdict_and_plans_the_same(self):
        """The second ProjDept-Q request, with a CustName the first never
        saw, decides no condition-(3) verdict, runs no lookup-safety chase
        and builds no candidate (it replays the first request's removals),
        walks the same search and returns the plans a store-less optimize
        returns."""

        db = Database.from_workload("projdept", **GOLDEN_WORKLOADS["projdept"])
        first = db.optimize(PROJDEPT_Q.format('"CitiBank"'))
        assert computed(first) > 0
        query = parse_query(PROJDEPT_Q.format('"Initech"'))
        second = db.optimize(query)
        alone = Optimizer(db.context).optimize(query)

        assert computed(second) == 0 and computed(alone) > 0
        assert second.lookup_decisions["chased"] == 0
        assert built(second) == 0 < second.backchase_stats.candidates_replayed
        assert built(first) == built(alone) > 0
        assert walk(second) == walk(alone)
        assert search_counts(second) == search_counts(alone) == search_counts(first)
        assert plan_texts(second) == plan_texts(alone)
        assert str(second.best.query) == str(alone.best.query)
        metrics = db.metrics()
        info = metrics["sources"]["verdict_store"]
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        assert metrics["counters"]["backchase.candidates_replayed"] == (
            second.backchase_stats.candidates_replayed
        )

    def test_the_store_is_bounded_like_the_plan_cache(self):
        deps = [parse_constraint("forall (x in R, y in R) where x.A = y.A -> x = y", "k")]
        texts = [
            "select r.C from R r, R r2 where r.A = 3 and r2.A = 3",
            "select r.C from R r, R r2 where r.A = 3 and r2.B = r.B",
            "select r.C from R r, R r2 where r.A = 4 and r2.A = 4",
        ]
        db = Database(constraints=deps, cache_config=CacheConfig(plan_cache_size=1))
        for text in texts:
            db.optimize(text)
        info = db.metrics()["sources"]["verdict_store"]
        assert (info["size"], info["max_size"], info["evictions"]) == (1, 1, 2)

        uncached = Database(constraints=deps, cache_config=CacheConfig(plan_cache_size=0))
        results = [uncached.optimize(texts[0]), uncached.optimize(texts[2])]
        assert [computed(r) > 0 for r in results] == [True, True]
        assert "verdict_store" not in uncached.metrics()["sources"]

    def test_a_store_needs_the_context_its_key_reads(self):
        query = parse_query("select r.C from R r")
        dep = parse_constraint("forall (r in R) -> r.A = r.B", "d")
        context = OptimizeContext(constraints=(dep,))
        with pytest.raises(BackchaseError, match="verdict store"):
            RootVerdicts(query, ChaseEngine([dep]), store=LRU())
        with pytest.raises(BackchaseError, match="verdict store"):
            RootVerdicts(query, ChaseEngine([]), context, LRU())
        verdicts = RootVerdicts(query, ChaseEngine(context.constraints), context, LRU())
        # a search takes its root and its constraint set once: its verdicts
        # carry both, so no constraint set is passed beside them, and a bare
        # query comes with its own
        with pytest.raises(BackchaseError, match="carry their constraint set"):
            minimal_subqueries(verdicts, [dep])
        with pytest.raises(BackchaseError, match="needs a constraint set"):
            minimal_subqueries(query)
        assert minimal_subqueries(verdicts) == [query]
        assert minimal_subqueries(query, [dep]) == [query]

    def test_a_fresh_constant_prunes_no_condition_again(self):
        """The second ProjDept-Q request, with a fresh CustName, runs no
        containment test from ``prune_conditions`` — every pair is served
        from the store, and counted as a hit — and returns the plans of a
        store-less optimize."""

        from repro.chase import containment
        from repro.optimizer import optimizer as optimizer_module

        pruning, tested = [False], []
        real_prune = optimizer_module.prune_conditions
        real_test = containment.is_contained_in

        def prune(*args, **kwargs):
            pruning[0] = True
            try:
                return real_prune(*args, **kwargs)
            finally:
                pruning[0] = False

        def test(*args, **kwargs):
            tested.append(pruning[0])
            return real_test(*args, **kwargs)

        db = Database.from_workload("projdept", **GOLDEN_WORKLOADS["projdept"])
        query = parse_query(PROJDEPT_Q.format('"Initech"'))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer_module, "prune_conditions", prune)
            patch.setattr(containment, "is_contained_in", test)
            first = db.optimize(PROJDEPT_Q.format('"CitiBank"'))
            from_pruning = tested.count(True)
            del tested[:]
            second = db.optimize(query)
            assert tested.count(True) == 0 < from_pruning
            alone = Optimizer(db.context).optimize(query)
            assert tested.count(True) == from_pruning

        assert plan_texts(second) == plan_texts(alone)
        assert str(second.best.query) == str(alone.best.query)
        # every verdict the first request asked, decided or not, is a hit
        stats, before = second.backchase_stats, first.backchase_stats
        assert stats.cache_misses == second.containment.misses == 0
        assert stats.cache_hits == before.cache_hits + before.cache_misses
        assert second.containment.hits == (
            first.containment.hits + first.containment.misses
        )


class TestACatalogChange:
    """The removal graph keeps each node's floor terms, not its floor, so
    a later request of a shape prices them under its own catalog: the
    store is shared across a refresh of the statistics and a skew
    variant's adjusted ones."""

    def test_refreshed_statistics_price_the_terms_afresh(self):
        """A catalog with other cards and NDVs (a larger ProjDept's)
        moves the bound, so the search prunes other branches than the
        first request's: a fresh constant then walks and plans as a
        store-less optimize under the new catalog."""

        from repro.api.workloads import build_workload

        db = Database.from_workload("projdept", **GOLDEN_WORKLOADS["projdept"])
        first = db.optimize(PROJDEPT_Q.format('"CitiBank"'))
        larger = build_workload("projdept", n_depts=25, projs_per_dept=15, seed=9)
        db.refresh_statistics(larger.statistics)
        query = parse_query(PROJDEPT_Q.format('"Initech"'))
        later = db.optimize(query)
        alone = Optimizer(db.context).optimize(query)

        assert walk(alone) != walk(first)
        assert later.backchase_stats.candidates_replayed > 0
        assert walk(later) == walk(alone)
        assert plan_texts(later) == plan_texts(alone)
        assert str(later.best.query) == str(alone.best.query)

    def test_a_skew_variant_prices_the_terms_under_its_statistics(self):
        """The skew guard's adjusted statistics for a CustName no project
        has, through the variant entry's optimize: a fresh constant plans
        as a store-less optimize under them."""

        db = Database.from_workload("projdept", n_depts=10, projs_per_dept=6, seed=3)
        first = db.optimize(PROJDEPT_Q.format('"CitiBank"'))
        template = parse_query(PROJDEPT_Q.format("$c"))
        order = template.canonical().param_names()
        tag, adjusted = db._skew_variant(template, order, {"c": "Nobody"})
        context = db.context.override(statistics=adjusted)
        query = parse_query(PROJDEPT_Q.format('"Initech"'))
        later, _ = db._optimize_entry(query, tag, context)
        alone = Optimizer(context=context).optimize(query)

        assert tag.startswith("#skew:") and adjusted != db.context.statistics
        assert later.backchase_stats.candidates_replayed > 0
        assert walk(later) == walk(alone)
        assert plan_texts(later) == plan_texts(alone)
        assert plan_texts(later) != plan_texts(first)
        assert str(later.best.query) == str(alone.best.query)


#: a request's shape: its text with every constant written ``?``
CONSTANT = re.compile(r'"[^"]*"|(?<![\w.])-?\d+(?:\.\d+)?')


def cold_workload(name):
    """``benchmarks/perf``'s cold workload ``name`` (seed 1), set up."""

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = {"cold_projdept": module.ColdProjDept, "cold_mix": module.ColdMix}[name](1)
    workload.setup()
    return workload


def counting(patch, owner, name, calls):
    """Count the calls of ``owner.<name>`` in ``calls[name]`` while ``patch``
    holds."""

    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    patch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("name", ["cold_projdept", "cold_mix"])
def test_every_later_request_is_a_store_less_optimize(name):
    """Over the first two cycles of a cold workload's shapes, a shape's
    later request builds no candidate and no closure but its root's, and
    spells back with its own constants only its normal forms (the floors
    are the recorded terms, priced); its plans, their costs, the best
    plan's text and the search's walk are a store-less optimize's."""

    from repro.backchase import backchase
    from repro.chase import congruence

    workload = cold_workload(name)
    shapes = workload.SHAPES
    count = 2 * len(shapes) - sum(1 for *_, names in shapes if not names)
    requests = [req for block in workload.blocks() for req in block][:count]
    seen, later = set(), 0
    for req in requests:
        db = workload.databases[req.target]
        calls = dict.fromkeys(("build_congruence", "unspell"), 0)
        with pytest.MonkeyPatch.context() as patch:
            counting(patch, backchase, "build_congruence", calls)
            # a closure a reader builds for a query that keeps none
            counting(patch, congruence, "build_congruence", calls)
            counting(patch, ShapeKeys, "unspell", calls)
            result = db.optimize(req.text)
        shape = (req.target, CONSTANT.sub("?", req.text))
        if shape not in seen:
            seen.add(shape)
            continue
        later += 1
        alone = Optimizer(db.context).optimize(parse_query(req.text))
        assert built(result) == 0, req.text
        assert calls == {
            "build_congruence": 1,
            "unspell": result.backchase_stats.normal_forms,
        }, req.text
        assert plan_texts(result) == plan_texts(alone), req.text
        assert str(result.best.query) == str(alone.best.query), req.text
        assert walk(result) == walk(alone), req.text
    assert later == count - len(seen) > 0
    workload.close()


class TestTheRemovalGraph:
    """A removal is recorded per node and removed variable, a node being
    its key and its binding variables."""

    #: one root key on ``rs``, two namings: ``x`` is ``R`` in the first
    #: and ``S`` in the second
    NAMINGS = (
        "select struct(A = x.A, C = y.C) from R x, S y where x.B = y.B and y.C = 3",
        "select struct(A = y.A, C = x.C) from R y, S x where y.B = x.B and x.C = 5",
    )
    #: the first with its from clause permuted: another root key
    PERMUTED = (
        "select struct(A = x.A, C = y.C) from S y, R x where x.B = y.B and y.C = 7"
    )

    def test_a_root_spelled_over_other_variables_plans_as_a_fresh_optimize(self):
        """The second naming shares the first's entry, but a removal is
        replayed only at a node of the same key and binding variables:
        keyed by the removed variable's name alone, R's removal would come
        back as S's, and the plans would spell ``S y`` where a fresh
        optimize spells ``S x``."""

        db = Database.from_workload("rs")
        first = db.optimize(self.NAMINGS[0])
        query = parse_query(self.NAMINGS[1])
        second = db.optimize(query)
        alone = Optimizer(db.context).optimize(query)
        info = db.metrics()["sources"]["verdict_store"]
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        assert computed(first) > 0
        assert plan_texts(second) == plan_texts(alone)
        assert str(second.best.query) == str(alone.best.query)
        assert "S x" in str(alone.best.query)
        assert walk(second) == walk(alone)

        permuted = db.optimize(self.PERMUTED)
        info = db.metrics()["sources"]["verdict_store"]
        assert (info["hits"], info["misses"], info["size"]) == (1, 2, 2)
        assert computed(permuted) > 0 and permuted.backchase_stats.candidates_replayed == 0

    def test_a_store_less_graph_stays_private(self):
        """A search without a store records into a graph of its own, dropped
        with it: a second store-less optimize of the root replays nothing
        and decides every verdict again, and a first optimize into a store
        counts the search a store-less one counts."""

        db = Database.from_workload("rs")
        query = parse_query(self.NAMINGS[0])
        optimizer = Optimizer(db.context)
        first, second = optimizer.optimize(query), optimizer.optimize(query)
        assert second.backchase_stats.candidates_replayed == 0
        assert computed(second) == computed(first) > 0
        assert second.backchase_stats == first.backchase_stats
        stored = Optimizer(context=db.context, verdict_store=LRU()).optimize(query)
        assert stored.backchase_stats == first.backchase_stats

    def test_a_recorded_spelling_holds_markers_and_shares_its_parts(self):
        """Each accepted removal keeps its child's node, spelled with the
        root's markers, not its constants; a rejected one its child's key;
        and the entry holds one object per distinct binding and
        condition."""

        db = Database.from_workload("rs")
        db.optimize(self.NAMINGS[0])
        ((_, entry),) = db._verdicts.items()
        edges = [e for node in entry.removals.values() for e in node.edges if e]
        assert {type(e) for e in edges} == {str, RemovalNode}
        rejected = [e for e in edges if type(e) is str and e is not FAILS]
        assert rejected and all(entry.verdicts[key] is False for key in rejected)
        spellings = [node.spelling for node in entry.removals.values() if node.spelling]
        texts = [str(spelling) for spelling in spellings]
        assert any("$#0" in text for text in texts)
        assert not any(" 3" in text for text in texts)
        parts = [p for spelling in spellings for p in spelling.bindings + spelling.conditions]
        assert len({id(p) for p in parts}) == len(set(parts))


def stored_then_alone(deps, first_text, then_text, strategy="full"):
    """The normal forms of ``then_text`` searched after ``first_text``
    through one store, and searched alone."""

    context = OptimizeContext(constraints=tuple(deps), strategy=strategy)
    store = LRU()
    stored = Optimizer(context=context, verdict_store=store)
    stored.optimize(parse_query(first_text))
    then = parse_query(then_text)
    return (
        plan_texts(stored.optimize(then)),
        plan_texts(Optimizer(context=context).optimize(then)),
    )


class TestTheKey:
    def test_a_constant_a_dependency_mentions_stays_literal(self):
        """The EGD writes ``s.B = r.B`` where ``r.A = 5``: on 5 the ``S``
        binding goes (the RIC's ``s`` gets its ``B``), on 6 it stays.  The
        two universal plans differ only in that constant."""

        deps = [
            parse_constraint("forall (r in R) -> exists (s in S) s.C = r.C", "ric"),
            parse_constraint(
                "forall (r in R, s in S) where r.A = 5 and s.C = r.C -> s.B = r.B",
                "egd5",
            ),
        ]
        text = "select r.C from R r, S s where r.A = {} and s.C = r.C and s.B = r.B"
        stored, alone = stored_then_alone(deps, text.format(5), text.format(6))
        assert stored == alone
        assert len(alone) == 1 and "S s" in alone[0][0]

    def test_equal_constants_share_a_marker(self):
        """On (5, 5) ``r2`` maps onto ``r``; on (7, 8) it does not."""

        text = "select r.C from R r, R r2 where r.A = {} and r2.A = {}"
        stored, alone = stored_then_alone([], text.format(5, 5), text.format(7, 8))
        assert stored == alone
        assert len(alone) == 1 and "R r2" in alone[0][0]

    def test_the_store_is_not_read_across_a_constraint_change(self):
        """A query that already spells the index has one universal plan
        before the index's constraints are adopted and after; only after
        may it drop ``R`` (or the index)."""

        instance = Instance(
            {"R": frozenset(Row(A=a, B=a % 3, C=10 * a) for a in range(12))}
        )
        db = Database(instance=instance)
        text = (
            "select t.C from R r, dom(IXB) k, IXB[k] t "
            "where k = r.B and r = t and r.A = {}"
        )
        db.optimize(text.format(1))
        index = Candidate("index", SecondaryIndex("IXB", "R", "B"), 0.0, "")
        db.apply_design(SimpleNamespace(chosen=[index]))
        query = parse_query(text.format(2))
        after = db.optimize(query)
        assert plan_texts(after) == plan_texts(Optimizer(db.context).optimize(query))
        assert any(len(plan.query.bindings) == 1 for plan in after.plans)

    def test_markers(self):
        """One marker per constant, numbered by first occurrence; literal
        where renaming could change a verdict."""

        query = parse_query(
            'select struct(A = r.A, B = r.B) from R r, R r2 where r.A = "x" '
            'and r2.A = "x" and r.B = 7.0 and r2.B = 9 and r2.C = 4'
        )
        dep = parse_constraint("forall (r in R) where r.C = 4 -> r.A = r.B", "d")
        markers = constant_markers(query, ChaseEngine([dep]).constants)
        assert markers == {Const("x"): Param("#0"), Const(7): Param("#1"), Const(9): Param("#2")}
        assert Const(7.0) is Const(7)
        key = ShapeKeys(markers)(query)
        assert key.count("$#0") == 2 and '"x"' not in key and " 4" in key

        twins = parse_query("select r.A from R r where r.A = 1 and r.B = true and r.C = 3")
        assert constant_markers(twins, frozenset()) == {Const(3): Param("#0")}
        nan = parse_query("select r.A from R r where r.A = 3")
        nan = nan.with_fresh_conditions(
            [type(nan.conditions[0])(nan.conditions[0].left, Const(math.nan))]
        )
        assert constant_markers(nan, frozenset()) == {Const(3): Param("#0")}


def test_stats_count_this_searchs_verdicts():
    """``cache_misses`` counts the verdicts this search decided, not the
    size of a memo other searches share."""

    context = OptimizeContext()
    store = LRU()
    optimizer = Optimizer(context=context, verdict_store=store)
    text = "select r.C from R r, R r2 where r.A = {} and r2.A = {}"
    first = optimizer.optimize(parse_query(text.format(5, 5)))
    second = optimizer.optimize(parse_query(text.format(6, 6)))
    assert computed(first) > 0
    assert computed(second) == 0
    assert second.backchase_stats.cache_hits >= computed(first)


class TestPairVerdicts:
    """Condition pruning's verdicts, in the root's entry."""

    @pytest.mark.parametrize(
        "text",
        [
            "select r.C from R r where r.A = {} and r.B = {}",
            "select struct(B = r.B, C = r.C) from R r where r.A = {} and r.B = {}",
        ],
        ids=["C", "BC"],
    )
    def test_a_twin_request_asks_the_pairs_its_first_asked(self, text):
        """Condition pruning orders its drops blind to the constants, so
        (13, 7) tries the drops (34, 26) tried, in the same order, and
        every pair it asks is served — by their text "13" sorts before
        "7" but "34" after "26"."""

        db = Database.from_workload("rabc")
        first = db.optimize(text.format(34, 26))
        second = db.optimize(text.format(13, 7))
        assert first.containment.misses > 0
        assert second.containment.misses == 0
        assert second.containment.hits == (
            first.containment.hits + first.containment.misses
        )

    def test_a_pair_is_keyed_by_both_sides(self):
        """One trial against two references: transitivity implies
        ``r.A = r.C``, nothing implies ``r.A = r.D``."""

        trial = "select r.C from R r where r.A = r.B and r.B = r.C and r.E = 5"
        verdicts = RootVerdicts(parse_query(trial), ChaseEngine([]))
        implied = parse_query(trial + " and r.A = r.C")
        free = parse_query(trial + " and r.A = r.D")
        trial = parse_query(trial)
        assert verdicts.contained_in(trial, implied) is True
        assert verdicts.contained_in(trial, free) is False
        assert verdicts.contained_in(trial, implied) is True
        assert (verdicts.hits, verdicts.misses) == (1, 2)
        keys = [key for key in verdicts.memo if isinstance(key, tuple)]
        assert len(keys) == 2 and all("$#0" in side for key in keys for side in key)

    def test_a_store_less_optimize_keeps_its_pairs_in_its_search(self):
        """No second path: without a store the pairs go where a stored
        search keeps them — its verdict dict, beside condition (3)'s
        shapes — under the same keys, one per pair decided."""

        from repro.api.workloads import build_workload

        workload = build_workload("rabc")
        kept = []
        optimizer = Optimizer(
            OptimizeContext(
                constraints=workload.constraints,
                statistics=workload.statistics,
            )
        )
        real = optimizer._root_verdicts

        def keeping(*args):
            kept.append(real(*args))
            return kept[-1]

        optimizer._root_verdicts = keeping
        optimizer.optimize(workload.query)
        (verdicts,) = kept
        assert {type(key) for key in verdicts.memo} == {str, tuple}
        pairs = [key for key in verdicts.memo if isinstance(key, tuple)]
        assert len(pairs) == verdicts.misses > 0

        store = LRU()
        Optimizer(context=optimizer.context, verdict_store=store).optimize(workload.query)
        ((_, stored),) = store.items()
        assert stored.verdicts.keys() == verdicts.memo.keys()
