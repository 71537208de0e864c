"""The four request-class workloads: texts, seeded streams, set-up, gates.

Each workload is one closed-loop, single-client request stream cut into
**blocks**.  The harness checks its deadline only between blocks, so
every block it times is complete — a block is the unit whose structure
repeats (one request; one cycle over every shape; 500 template requests;
two mutation epochs), and a run that stops mid-block would weigh the
front of a block (the cold part) more than its back.

The program under test receives only what this module generates from the
seed: instances, OQL texts, bindings and replacement extents.  Query
texts are copied here on purpose (not imported from ``bench_e*.py``), so
those emitters can be deleted without touching this benchmark.

Which layers each workload is meant to load, and why it exists, is in
:attr:`Workload.why` and ``README.md``.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import CacheConfig, Database, Instance, Row

# ``parser.parse_query`` is looked up on the module at every call: the
# tracer re-binds names inside ``repro.*`` modules, not in this one.
from repro.query import parser
from repro.query.evaluator import evaluate


class InvalidRun(Exception):
    """A validity gate failed: the numbers of this run would mislead."""


class Request(NamedTuple):
    cls: str  # request class the latency is grouped under
    op: str  # "execute" | "prepared" | "session" | "write"
    target: str  # database, template or relation the op addresses
    text: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()
    #: equivalent text for the reference evaluator, most selective binding
    #: first (the evaluator is a nested loop in from-clause order; the
    #: from-clause order does not change a query's meaning)
    oracle: str = ""
    epoch: int = 0  # mutation epoch the request runs in
    value: Any = None  # replacement extent of a write


Block = List[Request]


def literal(value: Any) -> str:
    """An OQL constant."""

    return f'"{value}"' if isinstance(value, str) else str(value)


def shape_cycles(
    shapes: Sequence[Tuple[str, str, str, Tuple[str, ...]]],
    domains: Dict[str, List[Any]],
    rng: random.Random,
) -> Iterator[Block]:
    """Cycle over ``(cls, target, text, domain names)`` shapes, filling the
    ``{0}``, ``{1}`` slots with constants never used by that shape before,
    so every request has a canonical form of its own.  A shape without
    slots appears in the first cycle only; the stream ends when a shape
    runs out of fresh constants."""

    draws = [
        [rng.sample(domains[d], len(domains[d])) for d in names]
        for _, _, _, names in shapes
    ]
    for cycle in itertools.count():
        block = []
        for (cls, target, text, names), drawn in zip(shapes, draws):
            if not names:
                if cycle == 0:
                    block.append(Request(cls, "execute", target, text))
                continue
            if any(cycle >= len(values) for values in drawn):
                return
            consts = [literal(values[cycle]) for values in drawn]
            block.append(Request(cls, "execute", target, text.format(*consts)))
        yield block


class Workload:
    """One workload instance is one arm of one run: set-up state, stream
    and counters.  Subclasses fill in the class attributes and methods."""

    name = ""
    why = ""
    #: blocks always timed, however long they take; ``plan_cost_sum`` is
    #: taken over exactly these, so it does not depend on the machine
    min_blocks = 1
    #: set-ups per untraced run (``setup_s`` is their median)
    setup_repeats = 5
    #: the traced and untraced arms may serve from one set-up (only true
    #: when requests leave no state behind)
    shared_state = False
    #: check one distinct answer in this many against the oracle
    oracle_sample = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.databases: Dict[str, Database] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def blocks(self) -> Iterator[Block]:
        raise NotImplementedError

    def serve(self, req: Request) -> Any:
        return self.databases[req.target].execute(req.text)

    def close(self) -> None:
        for db in self.databases.values():
            db.close()

    def exec_mode(self) -> str:
        return ",".join(
            sorted({db.context.exec_mode for db in self.databases.values()})
        )

    def counters(self) -> Dict[str, float]:
        """The program's own public counters, summed over databases."""

        total: Dict[str, float] = {}
        for db in self.databases.values():
            info = db.plan_cache_info()
            for key in ("hits", "misses", "evictions", "invalidations"):
                name = f"plan_cache.{key}"
                total[name] = total.get(name, 0) + getattr(info, key)
        return total

    def plan_cost_sum(self, prefix: Sequence[Request]) -> float:
        """Σ ``best.cost`` over the distinct optimized queries of the
        always-timed prefix (retained plan-cache entries answer at once;
        evicted ones are optimized again, outside the timed region)."""

        return sum(
            self.databases[req.target].optimize(req.text).best.cost
            for req in prefix
        )

    def instance_for(self, req: Request) -> Instance:
        return self.databases[req.target].instance

    def expected(self, req: Request) -> frozenset:
        """The reference evaluator's answer on the instance the request saw."""

        query = parser.parse_query(req.oracle or req.text)
        if req.params:
            query = query.bind_params(dict(req.params))
        return evaluate(query, self.instance_for(req))

    def validate(
        self,
        delta: Dict[str, float],
        classes: Sequence[str],
        rows: Sequence[int],
        layer: Optional[Dict[str, Optional[float]]] = None,
    ) -> None:
        """Raise :class:`InvalidRun` unless the timed region did what the
        workload exists to do.  ``delta`` is :meth:`counters` after minus
        before; ``layer`` the traced arm's per-layer metrics, if any."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidRun(message)


class _Cold(Workload):
    def validate(self, delta, classes, rows, layer=None) -> None:
        _require(
            delta["plan_cache.hits"] == 0,
            f"{self.name}: {delta['plan_cache.hits']:.0f} plan-cache hits in "
            f"the timed region — every request must optimize from scratch",
        )


# --------------------------------------------------------------------------
# cold_projdept


class ColdProjDept(_Cold):
    name = "cold_projdept"
    why = (
        "deep search: 9-binding universal plan, ~1700 candidates per request; "
        "backchase+chase are >99% of the request, so cold-optimizer work shows here"
    )
    # The first two requests (the paper's Q and a CustName selection)
    # cost within a few percent of each other, so p50 barely moves when
    # a faster or slower machine fits one request more or less.
    min_blocks = 2

    SHAPES = (
        # the paper's query Q
        (
            "projdept",
            "projdept",
            "select struct(PN = s, PB = p.Budg, DN = d.DName) "
            "from depts d, d.DProjs s, Proj p "
            "where s = p.PName and p.CustName = {0}",
            ("cust",),
        ),
        # E1/E13 selections over Proj
        (
            "projdept",
            "projdept",
            "select struct(PN = p.PName, PB = p.Budg) from Proj p "
            "where p.CustName = {0}",
            ("cust",),
        ),
        (
            "projdept",
            "projdept",
            "select struct(PN = p.PName, PD = p.PDept) from Proj p "
            "where p.Budg = {0}",
            ("budg",),
        ),
        (
            "projdept",
            "projdept",
            "select struct(PN = p.PName, PB = p.Budg, CN = p.CustName) from Proj p",
            (),
        ),
        # E14 depts ⋈ Proj
        (
            "projdept",
            "projdept",
            "select struct(PN = p.PName, DN = d.DName) from depts d, Proj p "
            "where p.PDept = d.DName and p.Budg = {0}",
            ("budg",),
        ),
        (
            "projdept",
            "projdept",
            "select struct(PN = p.PName, CN = p.CustName) from Proj p "
            "where p.PName = {0}",
            ("pname",),
        ),
    )

    def setup(self) -> None:
        self.databases = {"projdept": Database.from_workload("projdept")}

    def blocks(self) -> Iterator[Block]:
        proj = self.databases["projdept"].instance["Proj"]
        domains = {
            "cust": sorted({p["CustName"] for p in proj}),
            "budg": sorted({p["Budg"] for p in proj}),
            "pname": sorted({p["PName"] for p in proj}),
        }
        cycles = shape_cycles(self.SHAPES, domains, random.Random(self.seed))
        # One request per block: each costs seconds.
        return ([req] for cycle in cycles for req in cycle)


# --------------------------------------------------------------------------
# cold_mix


class ColdMix(_Cold):
    name = "cold_mix"
    why = (
        "shallow searches (5-7-binding universal plans) on three databases, where "
        "per-optimize fixed costs and plan-cache put/eviction are a visible share; "
        "a cold-path change that front-loads work can lose here"
    )
    #: small enough that the rs cache fills and evicts within one run
    PLAN_CACHE_SIZE = 16

    SHAPES = (
        # rs: the E5 join and selection shapes
        (
            "rs",
            "rs",
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and s.C = {0}",
            ("rs.C",),
        ),
        # rabc: the E4 index-only shapes
        ("rabc", "rabc", "select r.C from R r where r.A = {0} and r.B = {1}",
         ("rabc.A", "rabc.B")),
        # oo_asr: the ASR navigation shape
        (
            "oo_asr",
            "oo_asr",
            "select struct(D = d.DName, E = e.EName) from depts d, d.Staff e "
            "where d.DName = {0}",
            ("oo.DName",),
        ),
        (
            "rs",
            "rs",
            "select struct(A = r.A) from R r, S s where r.B = s.B and s.C = {0}",
            ("rs.C",),
        ),
        ("rabc", "rabc", "select r.C from R r where r.A = {0}", ("rabc.A",)),
        (
            "oo_asr",
            "oo_asr",
            "select struct(E = e.EName, S = e.Salary) from depts d, d.Staff e "
            "where d.DName = {0}",
            ("oo.DName",),
        ),
        (
            "rs",
            "rs",
            "select struct(B = s.B, C = s.C) from R r, S s "
            "where r.B = s.B and r.A = {0}",
            ("rs.A",),
        ),
        (
            "rabc",
            "rabc",
            "select struct(A = r.A, C = r.C) from R r where r.B = {0}",
            ("rabc.B",),
        ),
        (
            "oo_asr",
            "oo_asr",
            "select struct(D = d.DName) from depts d, d.Staff e where e.EName = {0}",
            ("oo.EName",),
        ),
        (
            "rs",
            "rs",
            "select struct(A = r.A, B = r.B) from R r where r.A = {0}",
            ("rs.A",),
        ),
        (
            "rabc",
            "rabc",
            "select struct(B = r.B, C = r.C) from R r where r.A = {0} and r.B = {1}",
            ("rabc.B", "rabc.A"),
        ),
        (
            "oo_asr",
            "oo_asr",
            "select struct(E = e.EName) from emps e where e.Salary = {0}",
            ("oo.Salary",),
        ),
    )

    def setup(self) -> None:
        config = CacheConfig(plan_cache_size=self.PLAN_CACHE_SIZE)
        self.databases = {
            "rs": Database.from_workload(
                "rs", n_r=300, n_s=300, b_values=60, cache_config=config
            ),
            "rabc": Database.from_workload("rabc", n=1000, cache_config=config),
            # 40 departments rather than the default 10: DName must supply
            # a fresh constant per cycle for two shapes.
            "oo_asr": Database.from_workload(
                "oo_asr", n_depts=40, cache_config=config
            ),
        }

    def blocks(self) -> Iterator[Block]:
        rs = self.databases["rs"].instance
        rabc = self.databases["rabc"].instance
        oo = self.databases["oo_asr"].instance
        depts = [oo.deref(d) for d in oo["depts"]]
        emps = [oo.deref(e) for e in oo["emps"]]
        domains = {
            "rs.A": sorted({r["A"] for r in rs["R"]}),
            "rs.C": sorted({s["C"] for s in rs["S"]}),
            "rabc.A": sorted({r["A"] for r in rabc["R"]}),
            "rabc.B": sorted({r["B"] for r in rabc["R"]}),
            "oo.DName": sorted({d["DName"] for d in depts}),
            "oo.EName": sorted({e["EName"] for e in emps}),
            "oo.Salary": sorted({e["Salary"] for e in emps}),
        }
        return shape_cycles(self.SHAPES, domains, random.Random(self.seed))


# --------------------------------------------------------------------------
# steady_templates


class SteadyTemplates(Workload):
    name = "steady_templates"
    why = (
        "optimizer bypassed (zero plan-cache misses): p50 sits in parse + template "
        "key + lookup + bind, p90 and throughput in plan execution; only its "
        "set-up pays cold optimizations"
    )
    min_blocks = 2
    # One set-up is four cold optimizations, ~19 s: its median over a
    # run's repeats would cost more than the run.
    setup_repeats = 1
    shared_state = True

    BLOCK = 500
    LIGHT_SHARE = 0.7
    #: distinct bindings per template — bounds the oracle's work
    BINDINGS = 48

    #: name -> (class, database, op, text, oracle text, parameter)
    TEMPLATES = {
        "rs_light": (
            "light", "rs", "execute",
            "select struct(A = r.A, B = r.B) from R r where r.A = $a",
            "", "a",
        ),
        "pd_light": (
            "light", "projdept", "execute",
            "select struct(PN = p.PName, PB = p.Budg) from Proj p "
            "where p.CustName = $cust",
            "", "cust",
        ),
        "rs_heavy": (
            "heavy", "rs", "prepared",
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and s.C = $c",
            "select struct(A = r.A, C = s.C) from S s, R r "
            "where s.C = $c and r.B = s.B",
            "c",
        ),
        "pd_heavy": (
            "heavy", "projdept", "prepared",
            "select struct(PN = p.PName, CN = p.CustName) from Proj p "
            "where p.PName = $pn",
            "", "pn",
        ),
    }

    def setup(self) -> None:
        self.databases = {
            "rs": Database.from_workload("rs", n_r=1500, n_s=1500, b_values=200),
            # 50 customers: a CustName selection returns ~20 of the 1000
            # projects, so the light class stays in front of the executor.
            "projdept": Database.from_workload(
                "projdept", n_depts=40, projs_per_dept=25, n_customers=50
            ),
        }
        rs = self.databases["rs"].instance
        proj = self.databases["projdept"].instance["Proj"]
        rng = random.Random(self.seed)

        def pool(values) -> List[Any]:
            values = sorted(set(values))
            return rng.sample(values, min(self.BINDINGS, len(values)))

        self.bindings = {
            "rs_light": pool(r["A"] for r in rs["R"]),
            "pd_light": pool(p["CustName"] for p in proj),
            "rs_heavy": pool(s["C"] for s in rs["S"]),
            "pd_heavy": pool(p["PName"] for p in proj),
        }
        self.prepared = {}
        for name, (_, db, _, text, _, param) in self.TEMPLATES.items():
            self.prepared[name] = self.databases[db].prepare(text)
            # Warm-up: the first binding fills the skew guard's frequency
            # cache, which would otherwise be charged to a timed request.
            self.prepared[name].run(**{param: self.bindings[name][0]})

    def blocks(self) -> Iterator[Block]:
        rng = random.Random(self.seed + 1)
        light = [n for n, t in self.TEMPLATES.items() if t[0] == "light"]
        heavy = [n for n, t in self.TEMPLATES.items() if t[0] == "heavy"]
        while True:
            block = []
            for _ in range(self.BLOCK):
                names = light if rng.random() < self.LIGHT_SHARE else heavy
                name = rng.choice(names)
                cls, _, op, text, oracle, param = self.TEMPLATES[name]
                value = rng.choice(self.bindings[name])
                block.append(
                    Request(cls, op, name, text, ((param, value),), oracle)
                )
            yield block

    def serve(self, req: Request) -> Any:
        if req.op == "prepared":
            return self.prepared[req.target].run(**dict(req.params))
        db = self.databases[self.TEMPLATES[req.target][1]]
        return db.execute(req.text, params=dict(req.params))

    def plan_cost_sum(self, prefix: Sequence[Request]) -> float:
        return sum(p.plan.cost for p in self.prepared.values())

    def instance_for(self, req: Request) -> Instance:
        return self.databases[self.TEMPLATES[req.target][1]].instance

    def validate(self, delta, classes, rows, layer=None) -> None:
        _require(
            delta["plan_cache.misses"] == 0,
            f"{self.name}: {delta['plan_cache.misses']:.0f} plan-cache misses "
            f"in the timed region — the optimizer must be bypassed",
        )
        nonempty = sum(1 for n in rows if n) / len(rows)
        _require(
            nonempty >= 0.9,
            f"{self.name}: only {nonempty:.0%} of answers are non-empty",
        )
        if layer is not None and layer.get("optimizer.optimize_calls") is not None:
            _require(
                layer["optimizer.optimize_calls"] == 0,
                f"{self.name}: Optimizer.optimize ran in the timed region",
            )


# --------------------------------------------------------------------------
# semcache_mutating


class SemcacheMutating(Workload):
    name = "semcache_mutating"
    why = (
        "reads beside writes through a hybrid semantic-cache session: exact "
        "lookup, rewrite planning, registration and invalidation fan-out; a "
        "cache-side gain that costs invalidation shows here"
    )
    min_blocks = 2
    oracle_sample = 8

    N = 300
    B_VALUES = 60
    EPOCH = 100
    PARETO_ALPHA = 1.0
    #: rows whose B value a write exchanges with another row's
    WRITE_SWAPS = 10
    SCRIPT_SEED = 1

    #: name -> (text, oracle text, constant domain, weight); the E13/E14
    #: shapes: covering selections, projections and joins contained in
    #: them (rewritten onto the cached selection once it is there), the
    #: full join and joins contained in it
    SHAPES = {
        "sel_a": (
            "select struct(A = r.A, B = r.B) from R r where r.A = {0}",
            "", "A", 20,
        ),
        "sel_b": (
            "select struct(A = r.A, B = r.B) from R r where r.B = {0}",
            "", "B", 10,
        ),
        "proj_a": (
            "select struct(B = r.B) from R r where r.A = {0}",
            "", "A", 12,
        ),
        "proj_b": (
            "select struct(A = r.A) from R r where r.B = {0}",
            "", "B", 8,
        ),
        "join_a": (
            "select struct(A = r.A, C = s.C) from S s, R r "
            "where r.B = s.B and r.A = {0}",
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.A = {0} and r.B = s.B",
            "A", 16,
        ),
        "join_a_bc": (
            "select struct(B = r.B, C = s.C) from S s, R r "
            "where r.B = s.B and r.A = {0}",
            "select struct(B = r.B, C = s.C) from R r, S s "
            "where r.A = {0} and r.B = s.B",
            "A", 12,
        ),
        "join_b": (
            "select struct(A = r.A, C = s.C) from S s, R r "
            "where r.B = s.B and r.B = {0}",
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = {0} and r.B = s.B",
            "B", 10,
        ),
        "join_b_c": (
            "select struct(C = s.C) from S s, R r "
            "where r.B = s.B and r.B = {0}",
            "select struct(C = s.C) from R r, S s "
            "where r.B = {0} and r.B = s.B",
            "B", 8,
        ),
        "join": (
            "select struct(A = r.A, B = s.B, C = s.C) from R r, S s "
            "where r.B = s.B",
            "", "", 4,
        ),
        "join_c": (
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and s.C = {0}",
            "select struct(A = r.A, C = s.C) from S s, R r "
            "where s.C = {0} and r.B = s.B",
            "C", 4,
        ),
    }

    #: source-mix bands the timed region must land in
    MIN_EXACT, MIN_REWRITTEN, MAX_COLD = 0.55, 0.08, 0.35

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n, b = self.N, self.B_VALUES
        # Fixed multisets under a seeded shuffle: every seed has the same
        # cardinalities and distinct counts, so plan costs do not depend
        # on it.  S.B stays on a third of the B domain (the E5 join-hit
        # shape: most R rows find no partner).
        r_b = [i % b for i in range(n)]
        s_b = [i % (b // 3) for i in range(n)]
        rng.shuffle(r_b)
        rng.shuffle(s_b)
        extent_r = frozenset(Row(A=i, B=r_b[i]) for i in range(n))
        extent_s = frozenset(Row(B=s_b[i], C=i) for i in range(n))
        #: (R, S) per mutation epoch — what the oracle evaluates against
        self.versions = [(extent_r, extent_s)]
        self.instance = Instance({"R": extent_r, "S": extent_s})
        # The E14 wiring: no physical design, no base constraints,
        # statistics observed from the instance.
        self.databases = {"rs": Database(instance=self.instance)}
        self.session = self.databases["rs"].session(hybrid=True)
        self.constants = {
            "A": rng.sample(range(n), n),
            "B": rng.sample(range(b), b),
            "C": rng.sample(range(n), n),
        }
        self._write_rng = random.Random(self.seed + 1)
        self._probe_cost = self._warm_up()

    def _warm_up(self) -> float:
        """Register one covering selection per kind and the full join,
        price the rewrites they enable, then empty the cache again so
        the first timed block starts like every later one."""

        a, b = self.constants["A"][0], self.constants["B"][0]
        for shape, const in (("sel_a", a), ("sel_b", b), ("join", 0)):
            self.session.run(parser.parse_query(self.SHAPES[shape][0].format(const)))
        cost = 0.0
        for shape, const in (("join_a", a), ("join_b", b)):
            rewrite = self.session.cache.plan_rewrite(
                parser.parse_query(self.SHAPES[shape][0].format(const)),
                require_executable=True,
                base_names=frozenset(self.instance.names()),
                record=False,
            )
            _require(
                rewrite is not None,
                f"{self.name}: warm-up probe {shape} was not rewritten",
            )
            cost += rewrite.result.best.cost
        self.session.cache.clear()
        return cost

    def _write(self, name: str) -> Request:
        """Replace ``name`` by a copy in which a few rows exchanged their
        B values (cardinality and distinct counts unchanged)."""

        r, s = self.versions[-1]
        key = "A" if name == "R" else "C"
        rows = sorted(r if name == "R" else s, key=lambda row: row[key])
        picked = self._write_rng.sample(range(len(rows)), 2 * self.WRITE_SWAPS)
        for i, j in zip(picked[::2], picked[1::2]):
            rows[i], rows[j] = (
                rows[i].replace(B=rows[j]["B"]),
                rows[j].replace(B=rows[i]["B"]),
            )
        value = frozenset(rows)
        self.versions.append((value, s) if name == "R" else (r, value))
        return Request("write", "write", name, value=value)

    def blocks(self) -> Iterator[Block]:
        names = list(self.SHAPES)
        weights = [self.SHAPES[n][3] for n in names]
        while True:
            # The script — which shape, which popularity rank — is the
            # same for every block and every seed; the seed decides the
            # data and which constant a rank stands for.  So blocks are
            # alike, every seed sees the same hit/miss structure, and the
            # source mix does not wander with either.
            script = random.Random(self.SCRIPT_SEED)
            block: Block = []
            # The S write drops only the join views; the R write drops
            # every view, so each block starts from an empty cache.
            for written in ("S", "R"):
                epoch = len(self.versions) - 1
                for shape in script.choices(names, weights, k=self.EPOCH):
                    text, oracle, domain, _ = self.SHAPES[shape]
                    const = ""
                    if domain:
                        values = self.constants[domain]
                        rank = int(script.paretovariate(self.PARETO_ALPHA)) - 1
                        const = values[min(rank, len(values) - 1)]
                    block.append(
                        Request(
                            shape, "session", "rs", text.format(const),
                            oracle=oracle.format(const), epoch=epoch,
                        )
                    )
                block.append(self._write(written))
            yield block

    def serve(self, req: Request) -> Any:
        if req.op == "write":
            self.instance[req.target] = req.value
            return None
        return self.session.run(parser.parse_query(req.text))

    def close(self) -> None:
        self.session.close()
        super().close()

    def counters(self) -> Dict[str, float]:
        total = super().counters()
        for key, value in self.session.stats.as_dict().items():
            total[f"semcache.{key}"] = value
        return total

    def plan_cost_sum(self, prefix: Sequence[Request]) -> float:
        return self._probe_cost

    def instance_for(self, req: Request) -> Instance:
        r, s = self.versions[req.epoch]
        return Instance({"R": r, "S": s})

    def validate(self, delta, classes, rows, layer=None) -> None:
        n = len(classes)
        exact = classes.count("exact") / n
        rewritten = (classes.count("rewrite") + classes.count("hybrid")) / n
        cold = classes.count("cold") / n
        _require(
            exact >= self.MIN_EXACT
            and rewritten >= self.MIN_REWRITTEN
            and cold <= self.MAX_COLD,
            f"{self.name}: source mix exact {exact:.1%} / rewrite+hybrid "
            f"{rewritten:.1%} / cold {cold:.1%} is outside the bands "
            f"(>= {self.MIN_EXACT:.0%}, >= {self.MIN_REWRITTEN:.0%}, "
            f"<= {self.MAX_COLD:.0%})",
        )
        _require(
            delta["semcache.invalidations"] > 0,
            f"{self.name}: no view was invalidated",
        )
        _require(
            delta["semcache.rewrite_failures"] == 0,
            f"{self.name}: {delta['semcache.rewrite_failures']:.0f} rewrite failures",
        )


WORKLOADS = {
    w.name: w for w in (ColdProjDept, ColdMix, SteadyTemplates, SemcacheMutating)
}
