"""Shared fixtures: small instances, the session-scoped golden workloads
with their one ``pruned`` and one ``full`` optimization per test run, and
hypothesis-style generators for random PC queries + constraint sets
(used by the property-test harnesses in ``test_prop_*.py``)."""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import pytest

from repro import Database, Instance, Row, Schema, relation, INT, STRING
from repro.analysis.codegen import verify_artifact
from repro.exec import compile as compile_module
from repro.exec import engine as engine_module
from repro.exec.columnar import COLUMNS
from repro.lru import LRU
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import Optimizer
from repro.physical.indexes import SecondaryIndex
from repro.model.values import DictValue
from repro.query.ast import PathOutput, PCQuery, StructOutput
from repro.query.evaluator import _iter_envs, eval_path
from repro.query.parser import parse_constraint, parse_query
from repro.query.paths import Attr, Const, SName, Var
from repro.semcache import session as session_module
from repro.semcache.session import SessionResult

# Interned paths hash by identity, so ``PYTHONHASHSEED`` alone no longer
# reorders a path-keyed set — the address layout does.  Each arm of
# ``make determinism`` therefore gets its own: ``997 × seed`` throwaway
# variables interned before any workload is built.
if os.environ.get("PYTHONHASHSEED", "").isdigit():
    for _i in range(997 * int(os.environ["PYTHONHASHSEED"])):
        Var(f"_layout{_i}")

# Every artifact the suite compiles is statically verified before it can
# run: ``compile_plan`` is wrapped here, before any test module imports it,
# so a direct ``from repro.exec.compile import compile_plan`` gets the
# wrapper too, as does the engine's memo (which imports it per call).  A
# finding fails the test that compiled the artifact.
CODEGEN_VERIFIER = {"artifacts": 0, "findings": 0}


def _verifying(compile_plan):
    @functools.wraps(compile_plan)
    def compile_and_verify(query, *args, **kwargs):
        plan = compile_plan(query, *args, **kwargs)
        findings = verify_artifact(query, plan.source, plan.metadata)
        CODEGEN_VERIFIER["artifacts"] += 1
        CODEGEN_VERIFIER["findings"] += len(findings)
        if findings:
            pytest.fail(
                "generated plan function failed static verification:\n"
                + "\n".join(finding.render() for finding in findings)
            )
        return plan

    return compile_and_verify


compile_module.compile_plan = _verifying(compile_module.compile_plan)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        "codegen verifier: {artifacts} compiled artifacts verified, "
        "{findings} findings".format(**CODEGEN_VERIFIER)
    )


try:  # hypothesis is optional: the property harnesses skip without it
    from hypothesis import settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    # Tier-1 is reproducible: under the default profile every draw is
    # derived from the test function itself and no example database is
    # replayed, so two runs of one commit run the same examples (a slow or
    # failing draw can be run again).  New draws are `make fuzz`'s job —
    # `--hypothesis-profile=explore`, on the weekly CI run.
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("tier1")


# -- generators for random PC queries and constraint sets ---------------------
#
# A small fixed schema keeps the generated space chase-friendly while still
# covering the interesting shapes: multi-way joins, constant selections,
# contradictory conditions (unsatisfiable queries), redundant bindings
# (tableau minimization), and constraints that enable removals (RICs,
# nonemptiness) or add access paths (secondary indexes).

GEN_SCHEMA = {"R": ("A", "B", "C"), "S": ("B", "C"), "T": ("A", "C")}


def constraint_pool():
    """Named groups of EPCDs the constraint-set generator samples from."""

    return [
        ("ric_rs", [parse_constraint(
            "forall (r in R) -> exists (s in S) r.B = s.B", "ric_rs")]),
        ("ric_sr", [parse_constraint(
            "forall (s in S) -> exists (r in R) s.B = r.B", "ric_sr")]),
        ("ric_st", [parse_constraint(
            "forall (s in S) -> exists (t in T) s.C = t.C", "ric_st")]),
        ("ne_tr", [parse_constraint(
            "forall (t in T) -> exists (r in R) true", "ne_tr")]),
        ("key_r", [parse_constraint(
            "forall (x in R, y in R) where x.A = y.A -> x = y", "key_r")]),
        ("ix_rb", SecondaryIndex("IXB", "R", "B").constraints()),
        ("ix_ra", SecondaryIndex("IXA", "R", "A").constraints()),
        ("ix_sb", SecondaryIndex("IXS", "S", "B").constraints()),
    ]


if HAVE_HYPOTHESIS:

    @st.composite
    def pc_queries(draw, max_bindings: int = 3, max_conditions: int = 3):
        """A random well-formed PC query over the generator schema."""

        n = draw(st.integers(min_value=1, max_value=max_bindings))
        rels = draw(
            st.lists(st.sampled_from(sorted(GEN_SCHEMA)), min_size=n, max_size=n)
        )
        bindings = [(f"v{i}", SName(rel)) for i, rel in enumerate(rels)]
        paths = [
            Attr(Var(var), attr)
            for var, rel in zip((b[0] for b in bindings), rels)
            for attr in GEN_SCHEMA[rel]
        ]
        path = st.sampled_from(paths)
        condition = st.one_of(
            st.tuples(path, path),
            st.tuples(path, st.integers(min_value=0, max_value=3).map(Const)),
        )
        conditions = draw(
            st.lists(condition, min_size=0, max_size=max_conditions)
        )
        n_fields = draw(st.integers(min_value=1, max_value=2))
        fields = [
            (f"F{i}", draw(path)) for i in range(n_fields)
        ]
        return PCQuery.make(fields, bindings, conditions)

    @st.composite
    def constraint_sets(draw, max_groups: int = 2, min_groups: int = 0):
        """A random set of EPCDs: ``min_groups`` to ``max_groups`` pool groups."""

        pool = constraint_pool()
        picked = draw(
            st.lists(
                st.sampled_from([name for name, _ in pool]),
                min_size=min_groups,
                max_size=max_groups,
                unique=True,
            )
        )
        by_name = dict(pool)
        return [dep for name in picked for dep in by_name[name]]

    @st.composite
    def gen_instances(draw, max_rows: int = 10):
        """A random instance of the generator schema: up to ``max_rows``
        rows per relation, attribute values in the generator's 0..3
        constant range."""

        value = st.integers(min_value=0, max_value=3)
        return Instance(
            {
                rel: frozenset(
                    Row({attr: draw(value) for attr in attrs})
                    for _ in range(draw(st.integers(0, max_rows)))
                )
                for rel, attrs in sorted(GEN_SCHEMA.items())
            }
        )


def evaluator_grouping(gmap, instance: Instance) -> DictValue:
    """The reference grouping of a :class:`~repro.physical.gmap.GMap`:
    the body's environments enumerated by the evaluator, each key and
    value output evaluated there — the oracle ``GMap.materialize`` is
    checked against."""

    def output(out, env):
        if isinstance(out, StructOutput):
            return Row({a: eval_path(p, env, instance) for a, p in out.fields})
        return eval_path(out, env, instance)

    body = PCQuery(
        PathOutput(Var(gmap.bindings[0].var)), gmap.bindings, gmap.conditions
    )
    buckets = {}
    for env in _iter_envs(body, instance):
        key = output(gmap.key_output, env)
        buckets.setdefault(key, set()).add(output(gmap.value_output, env))
    return DictValue({k: frozenset(v) for k, v in buckets.items()})


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty engine artifact memo and column store for this test alone:
    counts start at zero, a patched refusal does not outlive the test, and
    no earlier test's extent stands in for this one's."""

    monkeypatch.setattr(engine_module, "_COMPILED_CACHE", LRU(max_size=256))
    monkeypatch.setattr(COLUMNS, "_extents", {})
    return monkeypatch


@pytest.fixture
def rs_schema() -> Schema:
    schema = Schema("rs")
    schema.add("R", relation(A=INT, B=INT))
    schema.add("S", relation(B=INT, C=INT))
    return schema


@pytest.fixture
def rs_instance() -> Instance:
    r = frozenset(
        {
            Row(A=1, B=10),
            Row(A=2, B=20),
            Row(A=3, B=30),
            Row(A=4, B=20),
        }
    )
    s = frozenset(
        {
            Row(B=10, C=100),
            Row(B=20, C=200),
            Row(B=20, C=201),
            Row(B=99, C=999),
        }
    )
    return Instance({"R": r, "S": s})


#: builder parameters of the golden workloads (``tests/golden/plans.json``
#: snapshots their winners; ``check_golden_freshness.py`` reads the keys)
GOLDEN_WORKLOADS = {
    "projdept": dict(n_depts=4, projs_per_dept=3, seed=3),
    "rabc": dict(n=300, a_values=20, b_values=20, seed=5),
    "rs": dict(n_r=60, n_s=60, b_values=30, seed=5),
    "oo_asr": {},
}


class OptimizedWorkloads:
    """The golden workloads, behind one ``Database`` per strategy whose
    plan cache holds the one ``pruned`` (or the one ``full``) optimization
    of its canonical query this test run pays for — built on first use.
    One per strategy: a database's verdict store would hand the second
    search every verdict the first decided, and the pinned search
    counters read the results as cold searches.

    Read-only: for tests that *read* a workload, its plans or its winner.
    A test that measures the search itself (counters, spans, recorded
    chases), asserts on plan-cache traffic, mutates the instance or needs
    its own configuration builds a private ``Database`` and says why.
    """

    def __init__(self) -> None:
        self._databases = {}

    def database(self, name: str, strategy: str = "pruned") -> Database:
        if (name, strategy) not in self._databases:
            self._databases[name, strategy] = Database.from_workload(
                name, strategy=strategy, **GOLDEN_WORKLOADS[name]
            )
        return self._databases[name, strategy]

    def workload(self, name: str):
        return self.database(name).workload

    def result(self, name: str, strategy: str = "pruned"):
        """The ``OptimizationResult`` of the canonical query (a plan-cache
        hit after the first call per strategy)."""

        db = self.database(name, strategy)
        return db.optimize(db.workload.query)

    def winner(self, name: str) -> PCQuery:
        return self.result(name).best.query

    def close(self) -> None:
        for db in self._databases.values():
            db.close()


@pytest.fixture(scope="session")
def optimized_workloads():
    workloads = OptimizedWorkloads()
    yield workloads
    workloads.close()


@pytest.fixture(scope="session")
def projdept(optimized_workloads):
    return optimized_workloads.workload("projdept")


@pytest.fixture(scope="session")
def rabc(optimized_workloads):
    return optimized_workloads.workload("rabc")


@pytest.fixture(scope="session")
def rs_workload(optimized_workloads):
    return optimized_workloads.workload("rs")


# -- the serving-layer gates: two request mixes, no clock ---------------------
#
# The gates that used to be wall-clock benchmarks of the serving layer
# (semantic cache, hybrid rewrites, prepared queries, templates, advisor)
# are split: the *cause* of each speed-up is asserted here, deterministically
# — which requests enter the optimizer, which run a plan, and how much work
# the plans that run do — and the *effect* is what ``benchmarks/perf``
# records per commit.  The causes are checked on the paper's two repeated
# mixes at the scale their benchmarks' smoke runs used.

#: R ⋈ S with views (section 4, example 2): the join, then contained variants
E5_MIX = (
    "select struct(A = r.A, B = s.B, C = s.C) from R r, S s where r.B = s.B",
    "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B and s.C = 3",
    "select struct(A = r.A) from R r, S s where r.B = s.B and s.C = 7",
    "select struct(B = s.B, C = s.C) from R r, S s where r.B = s.B and r.A = 11",
)

#: ProjDept (sections 1–3): the paper's query Q, a wide projection scan and
#: a selection contained in it
E1_MIX = (
    "select struct(PN = s, PB = p.Budg, DN = d.DName) "
    "from depts d, d.DProjs s, Proj p where s = p.PName "
    'and p.CustName = "CitiBank"',
    "select struct(PN = p.PName, PB = p.Budg, CN = p.CustName) from Proj p",
    "select struct(PN = p.PName, PB = p.Budg) from Proj p "
    'where p.CustName = "CitiBank"',
)

#: mix name -> (workload, builder parameters, query texts)
SERVING_MIXES = {
    "e5_rs": ("rs", dict(n_r=300, n_s=300, b_values=60, seed=5), E5_MIX),
    "e1_projdept": (
        "projdept", dict(n_depts=25, projs_per_dept=15, seed=9), E1_MIX
    ),
}


def executed_cost(counters) -> float:
    """What a run did, in the (default) cost model's own units — the
    deterministic stand-in for its wall clock: Σ tuples·tuple_cost +
    probes·probe_cost."""

    model = CostModel()
    return counters.tuples * model.tuple_cost + counters.probes * model.probe_cost


class ServingMix:
    """One serving mix over its workload's data (smoke scale): ``instance``
    and ``queries`` for the arms that bring their own façade or session,
    ``prepared`` for the hand-written design with every query prepared."""

    def __init__(self, name: str) -> None:
        workload, params, texts = SERVING_MIXES[name]
        self.queries = [parse_query(text) for text in texts]
        self._database = Database.from_workload(workload, **params)
        self.instance = self._database.instance

    @functools.cached_property
    def prepared(self):
        """``(database, statements, info)``: the hand-written-design
        database, one ``PreparedQuery`` per query of the mix, and the plan
        cache right after the prepares — the one moment its state is known
        (the database is shared afterwards, so later assertions on its
        plan cache are deltas)."""

        statements = [self._database.prepare(q) for q in self.queries]
        return self._database, statements, self._database.plan_cache_info()


@pytest.fixture(scope="session")
def serving_mixes():
    """``mix name -> ServingMix``, read-only (building one is building its
    data; the optimizations wait for ``prepared``)."""

    mixes = {name: ServingMix(name) for name in SERVING_MIXES}
    yield mixes
    for mix in mixes.values():
        mix._database.close()


@contextlib.contextmanager
def recording(owner, name: str):
    """While the block runs, every call of ``owner.<name>`` goes through
    and its result is appended to the yielded list."""

    results = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, wrapper)
        yield results


@dataclass
class Served:
    """One session request: the answer, the plans it executed (their
    ``ExecutionResult``s — an exact hit has none) and how many times it
    entered ``Optimizer.optimize`` (rewrite planning included)."""

    answer: SessionResult
    executions: list
    optimizations: int

    @property
    def executed_cost(self) -> float:
        return sum(executed_cost(run.counters) for run in self.executions)


def serve_mix(session, queries, repetitions: int):
    """``repetitions`` rounds of ``queries`` through ``session``, request
    by request: ``[[Served per query] per round]``."""

    rounds = []
    with recording(Optimizer, "optimize") as optimized, recording(
        session_module, "execute"
    ) as executed:
        for _ in range(repetitions):
            rounds.append([])
            for query in queries:
                before = len(optimized), len(executed)
                answer = session.run(query)
                rounds[-1].append(
                    Served(
                        answer,
                        executed[before[1]:],
                        len(optimized) - before[0],
                    )
                )
    return rounds
