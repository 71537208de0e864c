"""Command-line interface: chase & backchase from files.

Usage::

    python -m repro optimize --query q.oql [--ddl schema.ddl]
                             [--constraints extra.epcd] [--physical R,S,I]
                             [--strategy full|pruned] [--verbose]
                             [--param x=3 ...]
                             [--cache] [--hybrid|--no-hybrid] [--query q2.oql ...]
                             [--workload rs|rabc|projdept|oo_asr] [--analyze]
    python -m repro chase    --query q.oql --constraints c.epcd
    python -m repro minimize --query q.oql [--constraints c.epcd]
    python -m repro check    --constraints c.epcd   (syntax check)
    python -m repro serve-repl [--workload rs|rabc|projdept|oo_asr]
                               [--no-cache] [--hybrid|--no-hybrid] [--feedback]
    python -m repro tune     --workload rs|rabc|projdept|oo_asr
                             [--query q.oql ...] [--budget N]
                             [--max-tuples N] [--sample N] [--apply]
    python -m repro metrics  --workload rs|rabc|projdept|oo_asr
                             [--query q.oql ...] [--repeat N] [--param x=3 ...]
                             [--trace] [--feedback] [--json]

``optimize`` accepts ``--query`` repeatedly; queries may carry ``$name``
parameter markers, bound with ``--param name=value`` (repeatable).  With
``--cache`` each optimized query is registered in a plan-level semantic
cache so later queries in the same invocation can be rewritten onto
earlier results.  ``--workload`` optimizes against a built-in scenario
(its constraints, physical design, statistics and instance) instead of
``--ddl``/``--constraints`` files, and ``--analyze`` — EXPLAIN ANALYZE —
additionally *runs* each winning plan under per-operator instrumentation
(actual rows/loops/probes/time next to the cost model's estimates; needs
the instance, hence ``--workload``).  ``serve-repl`` starts an
interactive caching query service over a built-in workload instance
(type ``.help`` at the prompt; ``\\set x 3`` binds template parameters,
``\\timing`` traces requests, ``\\metrics`` dumps the metrics registry).
``metrics`` runs a query mix through a cached session and prints the
unified metrics snapshot (``--json`` for machine-readable,
``--trace`` to include the last request's span timeline).  ``tune`` runs the
workload-driven physical design advisor against the named workload's
*logical* core (hand-written design stripped): candidate views and index
dictionaries are mined from the query mix (default: the scenario's
canonical query), what-if costed through the backchase, and the best set
under the budget is reported — ``--apply`` additionally installs it and
re-runs the mix.  ``--hybrid`` (the
default) lets cache rewrites mix cached extents with base relations
(partial hits); ``--no-hybrid`` restores the all-or-nothing view-only
rewrites.

Constraint files hold one EPCD per non-empty, non-comment line, optionally
prefixed by ``name:``::

    # primary index on Proj.PName
    PI1: forall (p in Proj) -> exists (i in dom(I)) i = p.PName and I[i] = p

The DDL file uses the ODL-ish syntax of :mod:`repro.model.ddl`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api import Database
from repro.api.context import EXEC_MODES, STRATEGIES
from repro.backchase.minimize import minimize
from repro.chase.chase import chase
from repro.constraints.epcd import EPCD
from repro.errors import ReproError
from repro.exec.engine import execute
from repro.model.ddl import parse_ddl
from repro.query.parser import parse_constraint, parse_query
from repro.query.printer import format_query
from repro.semcache.session import COLD, SessionResult


def load_constraints(path: str) -> List[EPCD]:
    """Parse a constraint file (one EPCD per line, ``#`` comments)."""

    constraints: List[EPCD] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name = f"c{lineno}"
            if ":" in line.split("forall", 1)[0] and not line.startswith("forall"):
                name, line = line.split(":", 1)
                name = name.strip()
                line = line.strip()
            try:
                constraints.append(parse_constraint(line, name))
            except ReproError as exc:
                raise ReproError(f"{path}:{lineno}: {exc}") from exc
    return constraints


def _gather_constraints(args) -> List[EPCD]:
    constraints: List[EPCD] = []
    if args.ddl:
        with open(args.ddl) as handle:
            result = parse_ddl(handle.read())
        constraints.extend(result.constraints)
        if getattr(args, "encode_classes", False):
            for encoding in result.class_encodings:
                constraints.extend(encoding.constraints())
    if args.constraints:
        constraints.extend(load_constraints(args.constraints))
    return constraints


def _read_query(args):
    with open(args.query) as handle:
        return parse_query(handle.read())


def parse_param_literal(text: str):
    """The value of a ``--param name=value`` / ``\\set`` literal: int,
    float, ``true``/``false``, quoted string, or bare string."""

    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _parse_param_args(pairs) -> dict:
    """``--param name=value`` pairs (repeatable) into a binding dict."""

    bindings = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        name = name.strip().lstrip("$")
        if not sep or not name:
            raise ReproError(
                f"--param expects NAME=VALUE, got {pair!r}"
            )
        bindings[name] = parse_param_literal(value.strip())
    return bindings


def _print_verbose_stats(result) -> None:
    for title, counts in (
        ("backchase counters", result.backchase_stats.as_dict()),
        ("lookup-safety decisions", result.lookup_decisions),
        ("containment decisions", result.containment_decisions),
        ("chase states", result.chase_counts),
    ):
        print(f"{title}:")
        for name, value in counts.items():
            print(f"  {name}: {value}")


def cmd_optimize(args) -> int:
    exec_mode = getattr(args, "exec_mode", "interpret")
    if args.analyze and not args.workload:
        raise ReproError(
            "--analyze runs the plan, which needs an instance: "
            "pick one with --workload"
        )
    if exec_mode == "compiled" and not args.workload:
        raise ReproError(
            "--exec-mode compiled runs the plan, which needs an instance: "
            "pick one with --workload"
        )
    if args.workload:
        if args.ddl or args.constraints or args.physical:
            raise ReproError(
                "--workload brings its own schema/constraints/design; "
                "drop --ddl/--constraints/--physical"
            )
        db = Database.from_workload(
            args.workload, strategy=args.strategy, exec_mode=exec_mode
        )
    else:
        if not args.query:
            raise ReproError(
                "--query is required (only --workload supplies a default "
                "query: the scenario's canonical one)"
            )
        constraints = _gather_constraints(args)
        physical = (
            frozenset(name.strip() for name in args.physical.split(","))
            if args.physical
            else None
        )
        db = Database(
            constraints=constraints,
            physical_names=physical,
            max_chase_steps=args.max_chase_steps,
            max_backchase_nodes=args.max_backchase_nodes,
            strategy=args.strategy,
            exec_mode=exec_mode,
        )
    cache = None
    if args.cache:
        from repro.semcache import SemanticCache

        cache = SemanticCache(context=db.context)
    params = _parse_param_args(getattr(args, "param", None))
    if args.query:
        queries = []
        for query_path in args.query:
            with open(query_path) as handle:
                queries.append((query_path, parse_query(handle.read())))
    else:
        queries = [(f"workload {args.workload}", db.workload.query)]
    for label, query in queries:
        if len(queries) > 1:
            print(f"=== {label} ===")
        if query.has_params():
            if params:
                # Bind before optimizing: the reported plan is the one this
                # binding would execute (Database.prepare shares the
                # template's plan-cache entry across bindings instead).
                query = query.bind_params(
                    {n: params[n] for n in query.param_names() if n in params}
                )
            else:
                markers = ", ".join(f"${n}" for n in query.param_names())
                print(f"template with parameters {markers} (bind with --param)")
        if cache is not None:
            # Plan-level: entries hold no results (the exact tier never
            # answers) and no instance exists, so the base side of the
            # hybrid filter is the query's own schema names.
            _, rewrite = cache.lookup(
                query,
                base_names=query.schema_names if args.hybrid else None,
            )
            if rewrite is not None:
                tier = "hybrid rewrite" if rewrite.hybrid else "rewritten"
                onto = ", ".join(rewrite.view_names())
                if rewrite.hybrid:
                    onto += " + base " + ", ".join(sorted(rewrite.base_names()))
                print(f"semantic cache: {tier} onto {onto}")
                print(rewrite.result.report())
                if args.verbose:
                    _print_verbose_stats(rewrite.result)
                continue
            cache.register(query)
        result = db.optimize(query)
        print(result.report())
        if args.verbose:
            _print_verbose_stats(result)
        if exec_mode == "compiled" and not query.has_params():
            execution = db.execute(query)
            print(
                f"executed ({execution.mode}): {len(execution.results)} rows, "
                f"tuples={execution.counters.tuples}, "
                f"probes={execution.counters.probes}"
            )
        if args.analyze:
            print()
            print(db.explain(query, analyze=True).render())
    if cache is not None and args.verbose:
        print("cache counters:")
        for counter, value in cache.stats.as_dict().items():
            print(f"  {counter}: {value}")
    return 0


def cmd_metrics(args) -> int:
    """Run a query mix through a cached session over a built-in workload
    and print the unified observability snapshot."""

    import json

    from repro.obs import ObsConfig

    db = Database.from_workload(
        args.workload,
        obs=ObsConfig(tracing=args.trace, feedback=args.feedback),
    )
    queries = []
    for query_path in args.query or ():
        with open(query_path) as handle:
            queries.append(parse_query(handle.read()))
    if not queries:
        queries = [db.workload.query]
    params = _parse_param_args(getattr(args, "param", None))
    session = db.session()
    try:
        for _ in range(args.repeat):
            for query in queries:
                bound = None
                if query.has_params():
                    bound = {
                        n: params[n]
                        for n in query.param_names()
                        if n in params
                    }
                if args.feedback:
                    # A session feeds the store only from its cold runs
                    # and stamps no plan-cache entry; the front door
                    # observes every repetition and judges each against
                    # its entry's best time, so the report shows both.
                    db.execute(query, params=bound)
                else:
                    session.run(query, params=bound)
        if args.json:
            print(json.dumps(db.metrics(), indent=2, sort_keys=True))
        else:
            print(db.metrics_report())
            if args.feedback:
                print()
                print(db.feedback_report())
            if args.trace:
                print()
                print(db.query_report().render())
    finally:
        session.close()
        db.close()
    return 0


def cmd_chase(args) -> int:
    query = _read_query(args)
    constraints = _gather_constraints(args)
    result = chase(query, constraints, args.max_chase_steps)
    print("universal plan:")
    print(format_query(result.query, indent=2))
    print("\nsteps:")
    for step in result.steps:
        print(f"  {step}")
    return 0


def cmd_minimize(args) -> int:
    query = _read_query(args)
    constraints = _gather_constraints(args)
    minimal = minimize(query, constraints)
    print(format_query(minimal))
    return 0


REPL_WORKLOADS = ("rs", "rabc", "projdept", "oo_asr")

REPL_HELP = """\
Enter one PC query per line, e.g.:
  select struct(A = r.A) from R r, S s where r.B = s.B
Queries may use $name parameter markers; bind them first:
  \\set x 3
  select struct(A = r.A) from R r where r.A = $x
Commands:
  \\set NAME VALUE   bind a $NAME parameter (int/float/true/false/string)
  \\unset NAME       drop a binding
  \\set              list current bindings
  \\timing           toggle request tracing (prints a span timeline per query)
  \\metrics          the full metrics registry: counters, latency
                    histograms, plan-cache and semantic-cache sources,
                    slow-query log
  \\feedback         the plan-quality feedback report: per-level Q-errors,
                    learned statistics corrections, flagged regressions
                    (needs --feedback at startup)
  .stats   alias for \\metrics
  .views   cached views (name, size, hits)
  .help    this message
  .quit    exit (EOF works too)"""


def cmd_serve_repl(args) -> int:
    from repro.obs import ObsConfig

    db = Database.from_workload(
        args.workload, obs=ObsConfig(feedback=args.feedback)
    )
    session = db.session(hybrid=args.hybrid)
    cache_state = "disabled" if args.no_cache else (
        "enabled (hybrid)" if args.hybrid else "enabled (view-only)"
    )
    print(
        f"serving workload {args.workload!r} "
        f"({', '.join(sorted(db.instance.names()))}); "
        f"semantic cache {cache_state}.  .help for commands"
    )
    stream = sys.stdin
    bindings: dict = {}
    timing = False
    while True:
        print("> ", end="", flush=True)
        line = stream.readline()
        if not line:
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in (".quit", ".exit"):
            break
        if line == ".help":
            print(REPL_HELP)
            continue
        if line.startswith("\\set"):
            parts = line.split(None, 2)
            if len(parts) == 1:
                if bindings:
                    for name in sorted(bindings):
                        print(f"  ${name} = {bindings[name]!r}")
                else:
                    print("  (no bindings)")
            elif len(parts) == 3:
                name = parts[1].lstrip("$")
                bindings[name] = parse_param_literal(parts[2])
                print(f"  ${name} = {bindings[name]!r}")
            else:
                print("usage: \\set NAME VALUE  (or \\set to list)")
            continue
        if line.startswith("\\unset"):
            parts = line.split()
            if len(parts) == 2:
                bindings.pop(parts[1].lstrip("$"), None)
            else:
                print("usage: \\unset NAME")
            continue
        if line == "\\timing":
            timing = not timing
            if timing:
                db.obs.tracer.enable()
            else:
                db.obs.tracer.disable()
            print(f"timing {'on' if timing else 'off'}")
            continue
        if line == "\\feedback":
            print(db.feedback_report())
            continue
        if line in (".stats", "\\metrics"):
            # One rendering for both spellings: the full registry snapshot
            # (sources include the plan cache and this session's
            # CacheStats) plus the slow-query log.
            print(db.metrics_report())
            continue
        if line == ".views":
            for view in session.cache.views():
                print(f"  {view}")
            if not session.cache.views():
                print("  (no cached views)")
            continue
        try:
            query = parse_query(line)
            params = None
            if query.has_params():
                params = {
                    n: bindings[n]
                    for n in query.param_names()
                    if n in bindings
                }
            if args.no_cache:
                # the query as written, run on the instance the way a
                # session's cold miss runs it, and admitted nowhere
                start = time.perf_counter()
                execution = execute(
                    query,
                    db.instance,
                    tracer=db.context.tracer,
                    mode=db.context.exec_mode,
                    params=params,
                )
                result = SessionResult(
                    execution.results, COLD, time.perf_counter() - start
                )
            else:
                result = session.run(query, params=params)
        except ReproError as exc:
            print(f"error: {exc}")
            continue
        via = result.source
        if result.view_names:
            via += f" via {', '.join(result.view_names)}"
        print(
            f"{len(result)} rows [{via}] "
            f"in {result.elapsed_seconds * 1000:.1f} ms"
        )
        if timing:
            print(db.query_report().render())
    session.close()
    db.close()
    print("bye")
    return 0


def cmd_tune(args) -> int:
    """The physical design advisor over a built-in workload's *logical*
    core: strip the hand-written design, mine candidates from the query
    mix, pick the best set under the budget, optionally install it."""

    from repro.advisor import DesignBudget, logical_database

    db = logical_database(args.workload, sample=args.sample)
    if args.query:
        workload = []
        for query_path in args.query:
            with open(query_path) as handle:
                workload.append(parse_query(handle.read()))
    else:
        workload = [db.workload.query]
    budget = DesignBudget(
        max_structures=args.budget, max_total_tuples=args.max_tuples
    )
    report = db.advise(workload, budget=budget)
    print(report.report())
    if args.apply:
        installed = db.apply_design(report)
        print(f"installed: {', '.join(installed) if installed else '(nothing)'}")
        for query in workload:
            result = db.execute(query)
            print(
                f"  {len(result.results)} rows in "
                f"{result.elapsed_seconds * 1000:.1f} ms: {query}"
            )
    db.close()
    return 0


def cmd_check(args) -> int:
    constraints = _gather_constraints(args)
    for dep in constraints:
        kind = "EGD" if dep.is_egd() else "TGD"
        full = "full" if dep.is_full() else "non-full"
        print(f"  {dep.name}: {kind}, {full}")
    print(f"{len(constraints)} constraints OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chase & backchase query optimization (VLDB 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, query_required=True, multi_query=False):
        if query_required:
            if multi_query:
                p.add_argument(
                    "--query",
                    action="append",
                    help="file with one PC query (repeatable; with "
                    "--workload, defaults to the scenario's canonical "
                    "query)",
                )
            else:
                p.add_argument("--query", required=True, help="file with one PC query")
        p.add_argument("--ddl", help="ODL-ish schema file (adds its constraints)")
        p.add_argument(
            "--constraints", help="EPCD file (one constraint per line)"
        )
        p.add_argument(
            "--encode-classes",
            action="store_true",
            help="also add the class-encoding constraints from the DDL",
        )
        p.add_argument("--max-chase-steps", type=int, default=200)

    p_opt = sub.add_parser("optimize", help="run Algorithm 1")
    common(p_opt, multi_query=True)
    p_opt.add_argument(
        "--physical", help="comma-separated physical schema names (plan filter)"
    )
    p_opt.add_argument("--max-backchase-nodes", type=int, default=20_000)
    p_opt.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="pruned",
        help="backchase strategy: 'pruned' (cost-bounded, default) or "
        "'full' (complete enumeration, Theorem 2)",
    )
    p_opt.add_argument(
        "--verbose",
        action="store_true",
        help="also print the full backchase counters "
        "(explored/pruned/containment verdicts reused and computed)",
    )
    p_opt.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME template parameter before optimizing "
        "(repeatable; int/float/true/false/quoted-string literals)",
    )
    p_opt.add_argument(
        "--cache",
        action="store_true",
        help="register each optimized query in a plan-level semantic cache "
        "so later --query files can be rewritten onto earlier results",
    )
    p_opt.add_argument(
        "--hybrid",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --cache: admit plans mixing cached results and base "
        "relations (--no-hybrid restores all-or-nothing view-only rewrites)",
    )
    p_opt.add_argument(
        "--workload",
        choices=REPL_WORKLOADS,
        help="optimize against a built-in scenario (constraints, physical "
        "design, statistics and instance) instead of --ddl/--constraints",
    )
    p_opt.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: also run each winning plan with "
        "per-operator instrumentation (actual rows/loops/probes/time "
        "next to estimates; requires --workload for the instance; "
        "always runs the interpreted pipeline, even under "
        "--exec-mode compiled)",
    )
    p_opt.add_argument(
        "--exec-mode",
        choices=EXEC_MODES,
        default="interpret",
        dest="exec_mode",
        help="how winning plans run: 'interpret' streams the operator "
        "pipeline; 'compiled' generates one fused function per plan over "
        "columnar extents and executes it (requires --workload for the "
        "instance; prints an execution summary per query)",
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_met = sub.add_parser(
        "metrics",
        help="run a query mix through a cached session and dump the "
        "unified metrics snapshot",
    )
    p_met.add_argument(
        "--workload",
        choices=REPL_WORKLOADS,
        required=True,
        help="instance to serve the mix against",
    )
    p_met.add_argument(
        "--query",
        action="append",
        help="file with one PC query (repeatable; default: the "
        "scenario's canonical query)",
    )
    p_met.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="run the mix N times (default 2: the second pass shows "
        "cache-hit counters moving)",
    )
    p_met.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME template parameter (repeatable)",
    )
    p_met.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing and print the last request's "
        "span timeline",
    )
    p_met.add_argument(
        "--feedback",
        action="store_true",
        help="enable the plan-quality feedback layer and print its "
        "report (per-level Q-errors, learned statistics corrections, "
        "flagged plan regressions) after the metrics snapshot",
    )
    p_met.add_argument(
        "--json",
        action="store_true",
        help="print the raw Database.metrics() snapshot as JSON",
    )
    p_met.set_defaults(func=cmd_metrics)

    p_chase = sub.add_parser("chase", help="chase to the universal plan")
    common(p_chase)
    p_chase.set_defaults(func=cmd_chase)

    p_min = sub.add_parser("minimize", help="minimize a query")
    common(p_min)
    p_min.set_defaults(func=cmd_minimize)

    p_check = sub.add_parser("check", help="parse/classify constraint files")
    common(p_check, query_required=False)
    p_check.set_defaults(func=cmd_check)

    p_tune = sub.add_parser(
        "tune",
        help="workload-driven physical design advisor (views, indexes, "
        "dictionaries chosen by the backchase)",
    )
    p_tune.add_argument(
        "--workload",
        choices=REPL_WORKLOADS,
        required=True,
        help="scenario whose data to tune (its hand-written design is "
        "stripped; the advisor starts from the logical core)",
    )
    p_tune.add_argument(
        "--query",
        action="append",
        help="file with one PC query to include in the tuned workload "
        "(repeatable; default: the scenario's canonical query)",
    )
    p_tune.add_argument(
        "--budget",
        type=int,
        default=4,
        help="maximum number of structures to choose (default 4)",
    )
    p_tune.add_argument(
        "--max-tuples",
        type=float,
        default=200_000.0,
        help="tuple-space budget across the chosen design (default 200000)",
    )
    p_tune.add_argument(
        "--sample",
        type=int,
        default=None,
        help="cap the statistics scan at N rows per extent (scaled "
        "estimates; keeps what-if costing cheap on large instances)",
    )
    p_tune.add_argument(
        "--apply",
        action="store_true",
        help="install the chosen design into the instance and re-run the "
        "workload against it",
    )
    p_tune.set_defaults(func=cmd_tune)

    p_repl = sub.add_parser(
        "serve-repl",
        help="interactive caching query service over a built-in workload",
    )
    p_repl.add_argument(
        "--workload",
        choices=REPL_WORKLOADS,
        default="rs",
        help="instance to serve (default: rs — R ⋈ S with view and indexes)",
    )
    p_repl.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the semantic cache (every query executes cold)",
    )
    p_repl.add_argument(
        "--hybrid",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="admit plans mixing cached results and base relations "
        "(--no-hybrid restores all-or-nothing view-only rewrites)",
    )
    p_repl.add_argument(
        "--feedback",
        action="store_true",
        help="enable the plan-quality feedback layer "
        "(inspect with \\feedback at the prompt)",
    )
    p_repl.set_defaults(func=cmd_serve_repl)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
