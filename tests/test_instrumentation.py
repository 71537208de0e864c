"""The interpreted pipeline's own instrumentation, and the one engine run
EXPLAIN ANALYZE and plan-quality feedback read it from.

``exec/operators.py`` counts everything natively — empty probes included
— and owns the chain helpers; ``obs/analyze.py`` only interposes clocks.
Pinned here:

* the actuals columns of ANALYZE (rows / loops / probes / empty /
  filtered) on the four golden-workload winners and on the default
  ``rs`` build, recorded from the commit where ANALYZE still ran its own
  copies of the operators' ``rows`` behind row-counting proxies — the
  columns must not know the difference (the tables end in the hash-build
  column of that commit, 0 on every winner: no operator builds a hash
  table any more);
* a plain ``execute`` reports the same empty probes ANALYZE's column sums
  to (they are one counter now);
* the chain helpers against an operator chain drained by hand.
"""

from __future__ import annotations

import pytest

from conftest import recording
from repro import Database, Instance, Row, execute, parse_query
from repro.errors import ReproError
from repro.exec import engine
from repro.exec.operators import (
    Counters,
    Filter,
    ScanBind,
    binding_levels,
    chain,
    level_rows,
    own_counters,
    rows_out,
)
from repro.exec.planner import compile_query
from repro.obs.analyze import analyze_query
from repro.obs.trace import Tracer

COLUMNS = ("rows", "loops", "probes", "empty_probes", "filtered")

#: label, then COLUMNS and the retired hash-build column — the default
#: ``rs`` build, recorded at 42e568b
RS_WINNER = [
    ("unit", 1, 1, 0, 0, 0, 0),
    ("scan V as _x0", 150, 1, 0, 0, 0, 0),
    ("scan IR[_x0.A] as _x2", 150, 150, 150, 0, 0, 0),
    ("scan IS{_x2.B} as _x4", 2521, 150, 150, 0, 0, 0),
    ("project struct(A = _x0.A, B = _x2.B, C = _x4.C)", 2521, 2521, 0, 0, 0, 0),
]
#: the golden builds (``conftest.GOLDEN_WORKLOADS``, whose winners the
#: test run optimizes once) — recorded at 42e568b too and equal at
#: cc65e04: same plans as the default builds', smaller extents
WINNERS = {
    "rs": [
        ("unit", 1, 1, 0, 0, 0, 0),
        ("scan V as _x0", 24, 1, 0, 0, 0, 0),
        ("scan IR[_x0.A] as _x2", 24, 24, 24, 0, 0, 0),
        ("scan IS{_x2.B} as _x4", 178, 24, 24, 0, 0, 0),
        ("project struct(A = _x0.A, B = _x2.B, C = _x4.C)", 178, 178, 0, 0, 0, 0),
    ],
    "rabc": [
        ("unit", 1, 1, 0, 0, 0, 0),
        ("scan SA{5} as _x1", 20, 1, 1, 0, 0, 0),
        ("filter 9 = _x1.B", 0, 20, 0, 0, 20, 0),
        ("project _x1.C", 0, 0, 0, 0, 0, 0),
    ],
    "projdept": [
        ("unit", 1, 1, 0, 0, 0, 0),
        ('scan SI{"CitiBank"} as _x4', 3, 1, 1, 0, 0, 0),
        (
            "project struct(PN = _x4.PName, PB = _x4.Budg, DN = _x4.PDept)",
            3, 3, 0, 0, 0, 0,
        ),
    ],
    "oo_asr": [
        ("unit", 1, 1, 0, 0, 0, 0),
        ("scan ASR as _x2", 80, 1, 0, 0, 0, 0),
        (
            "project struct(D = _x2.O0.DName, E = _x2.O1.EName)",
            80, 80, 0, 0, 0, 0,
        ),
    ],
}


def table(analysis):
    return [
        (stat.label,) + tuple(getattr(stat, column) for column in COLUMNS) + (0,)
        for stat in analysis.op_stats
    ]


class TestAnalyzeColumnsHeld:
    @pytest.mark.parametrize("name", sorted(WINNERS))
    def test_workload_winner(self, name, optimized_workloads):
        db = optimized_workloads.database(name)
        analysis = db.explain(db.workload.query, analyze=True)
        assert table(analysis) == WINNERS[name]

    def test_default_rs_winner(self):
        # the default build, not the golden one: its own database
        db = Database.from_workload("rs")
        assert table(db.explain(db.workload.query, analyze=True)) == RS_WINNER
        db.close()


class TestEmptyProbesAreNative:
    # S.B covers a third of R.B's values: a non-failing index lookup per
    # R row comes up empty for the rest.
    EMPTY_LOOKUPS = "select struct(A = r.A, C = t.C) from R r, IS{r.B} t"

    def test_scan_of_an_empty_lookup(self):
        db = Database.from_workload("rs")
        query = parse_query(self.EMPTY_LOOKUPS)
        analysis = analyze_query(query, db.instance)
        ran = execute(query, db.instance, mode="interpret")
        scan = next(s for s in analysis.op_stats if s.label.startswith("scan IS"))
        assert scan.empty_probes == 350 and scan.loops == 500
        assert ran.counters.empty_probes == 350
        assert analysis.counters == ran.counters
        db.close()

    def test_reused_counters_accumulate_them(self):
        db = Database.from_workload("rs")
        total = Counters()
        query = parse_query(self.EMPTY_LOOKUPS)
        for _ in range(2):
            execute(query, db.instance, counters=total, mode="interpret")
        assert total.empty_probes == 700
        total.reset()
        assert total == Counters()
        db.close()

    def test_compiled_runs_neither_count_nor_instrument(self):
        """The column is the interpreted operators' (documented on
        ``execute``): silent compiled artifacts stay byte-identical, and
        the ANALYZE hook has no operators to be handed there."""

        db = Database.from_workload("rs")
        ran = execute(parse_query(self.EMPTY_LOOKUPS), db.instance,
                      mode="compiled")
        assert ran.mode == "compiled" and ran.counters.empty_probes == 0
        with pytest.raises(ReproError, match="instrument"):
            execute(db.workload.query, db.instance, mode="compiled",
                    instrument=lambda ops: None)
        db.close()


class TestChainHelpers:
    QUERY = "select struct(A = r.A) from R r, S s where r.B = s.B and r.A = 1"

    @pytest.fixture
    def instance(self):
        return Instance(
            {
                "R": frozenset(Row(A=i % 2, B=i) for i in range(6)),
                "S": frozenset(Row(B=i) for i in range(0, 6, 2)),
            }
        )

    def test_rows_and_levels_read_off_the_operators(self, instance):
        plan = compile_query(parse_query(self.QUERY))
        ops = own_counters(plan)
        assert ops == chain(plan) and ops[-1] is plan
        assert len({id(op.counters) for op in ops}) == len(ops)
        results = list(plan.results(instance))
        # R: 6 rows, r.A = 1 keeps B in {1, 3, 5}; S holds {0, 2, 4}: no
        # partner survives the join
        assert results == []
        produced = dict(zip((type(op).__name__ for op in ops), rows_out(ops)))
        assert produced["Singleton"] == 1
        assert produced["Project"] == 0
        levels = binding_levels(ops)
        assert [type(ops[bind]) for bind, _ in levels] == [ScanBind, ScanBind]
        assert isinstance(ops[levels[0][1]], Filter)  # r.A = 1 follows R
        assert level_rows(ops) == (3, 0)
        bind = ops[levels[1][0]]
        assert bind.counters.empty_probes == 0


class TestOneEngineTail:
    """Both modes end in the same span and the same result."""

    @pytest.mark.parametrize("mode", ("interpret", "compiled"))
    def test_phase_exec_span_carries_the_mode(self, mode):
        db = Database.from_workload("rs", n_r=20, n_s=20, b_values=10, seed=1)
        tracer = Tracer()
        ran = execute(db.workload.query, db.instance, tracer=tracer, mode=mode)
        (span,) = [s for s in tracer.spans if s.name == "phase.exec"]
        assert span.attrs["mode"] == ran.mode == mode
        assert span.attrs["rows"] == len(ran.results)
        assert span.attrs["tuples"] == ran.counters.tuples
        db.close()

    def test_analyze_is_an_engine_run(self):
        """ANALYZE is one interpreted engine run like any other — it has
        no run of its own to hide — on a compiled database too."""

        db = Database.from_workload(
            "rs", n_r=20, n_s=20, b_values=10, seed=1, exec_mode="compiled"
        )
        with recording(engine, "execute") as runs:
            analysis = db.explain(db.workload.query, analyze=True)
        (run,) = runs
        assert run.mode == "interpret"  # whatever the context says
        assert run.results == analysis.results
        assert analysis.estimated_cost is not None
        db.close()
