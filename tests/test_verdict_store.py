"""The verdict store: the backchase's verdicts outlive the search.

A :class:`~repro.api.database.Database` keeps the verdicts its searches
decide per (constraint set, root shape up to its constants)
(``backchase.minimal_subqueries``' ``verdict_store``), so a request whose
universal plan differs from an earlier one only in constants decides none
of them again.  Sound because a verdict is generic in the constants no
dependency mentions (``tests/test_prop_optimizer.py`` holds the search to
that); these tests hold the store to its key: a constant a dependency
mentions stays literal, equal constants share a marker, and a constraint
change reads other entries.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from conftest import GOLDEN_WORKLOADS
from repro import Database, Instance, Row
from repro.advisor.candidates import Candidate
from repro.api.context import OptimizeContext
from repro.api.database import CacheConfig
from repro.backchase.backchase import ShapeKeys, constant_markers
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


def computed(result):
    """Condition-(3) verdicts the search decided (its ``cache_misses`` less
    the engine's ``contained_in`` traffic, which is the coster's)."""

    return result.backchase_stats.cache_misses - result.containment.misses


class TestARepeatedShape:
    def test_a_fresh_constant_decides_no_verdict_and_plans_the_same(self):
        """The second ProjDept-Q request, with a CustName the first never
        saw, decides no condition-(3) verdict and runs no lookup-safety
        chase, walks the same search and returns the plans a store-less
        optimize returns."""

        db = Database.from_workload("projdept", **GOLDEN_WORKLOADS["projdept"])
        first = db.optimize(PROJDEPT_Q.format('"CitiBank"'))
        assert computed(first) > 0
        query = parse_query(PROJDEPT_Q.format('"Initech"'))
        second = db.optimize(query)
        alone = db.context.optimizer().optimize(query)

        assert computed(second) == 0 and computed(alone) > 0
        assert second.lookup_decisions["chased"] == 0
        assert search_counts(second) == search_counts(alone) == search_counts(first)
        assert plan_texts(second) == plan_texts(alone)
        assert str(second.best.query) == str(alone.best.query)
        info = db.metrics()["sources"]["verdict_store"]
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)

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
        from repro.backchase.backchase import minimal_subqueries

        query = parse_query("select r.C from R r")
        with pytest.raises(BackchaseError, match="verdict store"):
            minimal_subqueries(query, [], verdict_store=LRU())


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
        assert plan_texts(after) == plan_texts(db.context.optimizer().optimize(query))
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
