"""Plan execution: run plans and report instrumentation.

``execute(query, instance)`` is the production path; it dispatches on the
execution mode — ``"interpret"`` streams the operator pipeline,
``"compiled"`` runs the plan's generated fused function
(:mod:`repro.exec.compile`) or raises
:class:`~repro.exec.compile.PlanCompilationError` — and both fill the same
:class:`~repro.exec.operators.Counters`, one ``phase.exec`` span and one
result tail.  Neither mode hands a plan to the other.  No other module
builds *and runs* an interpreted plan: plan-quality feedback
(``feedback=True``) and EXPLAIN ANALYZE (``instrument=``) are this run
with per-operator counters, not copies.
Physical structures are built through it too: a view, ASR,
join-index view or gmap materializes by running its definition here in
``"compiled"`` mode (:mod:`repro.physical.views`,
:mod:`repro.physical.gmap`), sharing the one artifact memo and column
store with every plan.  ``repro.query.evaluator.evaluate`` is the
reference path.  The test suite checks all three agree on every plan the
optimizer emits and on every structure a workload installs.  Each mode has
one join algorithm, and the plan picks where it probes: the interpreter
runs index-nested-loop over ``ScanBind``, a compiled plan probes the
column store's value index (:mod:`repro.exec.columnar`).

The engine takes its execution flags (``mode``, ``tracer``) as arguments
and nothing else: it never reads an
:class:`~repro.api.context.OptimizeContext`, so a flag a caller passes
is the flag the run uses.  It also keeps the one memo of compiled artifacts
(:func:`compiled_for`): every caller — ``Database``, its sessions, plain
``execute`` — shares one artifact per plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.exec.operators import Counters, Operator, level_rows, own_counters
from repro.exec.planner import compile_query
from repro.lru import LRU
from repro.model.instance import Instance
from repro.obs.trace import NOOP_TRACER
from repro.query.ast import PCQuery
from repro.query.paths import Const, Path

EXEC_MODES = ("interpret", "compiled")

#: the one LRU of compiled artifacts, keyed on the plan query (a
#: template's ``$`` markers included, so its bindings share one artifact)
#: plus the overlay names and the feedback flag.
#: Artifacts hold no extent data — columns live in
#: :data:`~repro.exec.columnar.COLUMNS` — so entries stay sound across
#: instance mutations and pin no database.
_COMPILED_CACHE = LRU(max_size=256)


def compiled_for(
    query: PCQuery,
    cached_names: Optional[FrozenSet[str]] = None,
    feedback: bool = False,
):
    """The (LRU-cached) :class:`~repro.exec.compile.CompiledPlan` for a
    query, its overlay names and feedback flag.  A plan the code
    generator refuses raises
    :class:`~repro.exec.compile.PlanCompilationError` and is not
    remembered: the next call tries again.

    ``feedback`` is part of the key: feedback artifacts carry per-level
    row counters and a fourth parameter, so they must never be served to
    (or shadow) the byte-identical silent artifacts.
    """

    from repro.exec.compile import compile_plan

    key = (query, cached_names, feedback)
    plan = _COMPILED_CACHE.get(key)
    if plan is None:
        plan = compile_plan(query, cached_names=cached_names, feedback=feedback)
        _COMPILED_CACHE.put(key, plan)
    return plan


@dataclass
class ExecutionResult:
    """Result set plus instrumentation.

    ``counters`` are **per-run**: even when the caller passes a reused
    :class:`Counters` object into :func:`execute` (which accumulates
    across runs), the result reports only this run's counts
    (``empty_probes`` on interpreted runs only).
    """

    results: FrozenSet[Any]
    counters: Counters
    elapsed_seconds: float
    plan_text: str
    mode: str = "interpret"
    #: per-binding-level actual row counts (rows surviving each bind and
    #: its conditions), filled only when the run collected feedback.
    level_rows: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self.results)


def execute(
    query: PCQuery,
    instance: Instance,
    counters: Optional[Counters] = None,
    overlays: Optional[Mapping[str, Any]] = None,
    tracer=NOOP_TRACER,
    mode: str = "interpret",
    params: Optional[Mapping[str, Any]] = None,
    feedback: bool = False,
    instrument: Optional[Callable[[List[Operator]], None]] = None,
) -> ExecutionResult:
    """Run a plan, collecting results into a frozenset.

    With ``overlays`` the plan runs against a read-through
    :class:`~repro.model.instance.OverlayInstance`: the given names shadow
    the base while every other read resolves against ``instance`` *live* —
    the execution mode of the semantic cache's hybrid view ⋈ base plans,
    where cached extents must shadow nothing and base reads must never be
    staler than the instance itself.  Scans of overlay names are marked
    ``[cached]`` in the plan text.

    The execution flags — ``mode`` and the ``tracer`` the ``phase.exec``
    span goes to — are plain arguments, and each means what it says;
    callers holding an :class:`~repro.api.context.OptimizeContext`
    (``Database``, :class:`~repro.semcache.session.CachedSession`) unpack
    it into them.

    In ``"compiled"`` mode the plan runs as a generated fused function
    (:func:`compiled_for`; a plan the generator refuses raises
    :class:`~repro.exec.compile.PlanCompilationError`).  This is the one
    place a ``params`` binding becomes plan terms: interpreted, every
    binding is substituted into the query before planning; compiled,
    only a binding to a non-constant path is, and raw values or
    :class:`~repro.query.paths.Const` leaves feed the artifact's ``$``
    markers at call time, so every such binding shares one artifact.
    Counters are filled in both modes — but for
    ``empty_probes``, which only the interpreted operators count (0 on a
    compiled run); a caller-reused ``counters`` object accumulates across
    runs while the returned :class:`ExecutionResult` always reports this
    run alone.

    ``feedback=True`` additionally reports per-level actual cardinalities
    (``ExecutionResult.level_rows``) for the plan-quality feedback layer:
    compiled artifacts are compiled as feedback variants, interpreted
    chains get per-operator counters.  The default pays nothing — no
    instrumentation, and compiled artifacts identical to today's.

    ``instrument`` is EXPLAIN ANALYZE's seam into an *interpreted* run:
    called before the run with the operator chain (bottom-up, every
    operator on its own :class:`Counters`), it may wrap the operators'
    ``rows``.  Compiled artifacts have no operators to hand over, so
    passing it with a compiled ``mode`` raises.
    """

    if mode not in EXEC_MODES:
        raise ReproError(
            f"unknown exec mode {mode!r} (expected one of {EXEC_MODES})"
        )
    if instrument is not None and mode == "compiled":
        raise ReproError("instrument= needs mode='interpret'")
    run_counters = Counters()
    cached_names = frozenset(overlays) if overlays else None
    target = instance.overlay(dict(overlays)) if overlays else instance
    compiled = mode == "compiled"
    if params:
        terms = {
            name: value if isinstance(value, Path) else Const(value)
            for name, value in params.items()
            if not compiled
            or (isinstance(value, Path) and not isinstance(value, Const))
        }
        if terms:
            query = query.substitute_params(terms)

    ops = fb_out = None
    if compiled:
        plan = compiled_for(query, cached_names=cached_names, feedback=feedback)
        fb_out = [] if feedback else None
        plan_text = plan.plan_text
    else:
        plan = compile_query(query, run_counters, cached_names=cached_names)
        plan_text = plan.explain()
        if feedback or instrument is not None:
            ops = own_counters(plan)
            if instrument is not None:
                instrument(ops)

    with tracer.span("phase.exec") as span:
        start = time.perf_counter()
        if compiled:
            results = plan.run(
                target, run_counters, params=params, feedback_out=fb_out
            )
        else:
            results = frozenset(plan.results(target))
        elapsed = time.perf_counter() - start
        if ops is not None:
            for op in ops:
                run_counters.merge(op.counters)
            per_level = level_rows(ops)
        else:
            per_level = tuple(fb_out[0]) if fb_out else None
        span.set(
            rows=len(results),
            tuples=run_counters.tuples,
            probes=run_counters.probes,
            cached_scans=bool(cached_names),
            mode=mode,
        )
    if counters is not None:
        counters.merge(run_counters)
    return ExecutionResult(
        results=results,
        counters=run_counters,
        elapsed_seconds=elapsed,
        plan_text=plan_text,
        mode=mode,
        level_rows=per_level,
    )


def explain(
    query: PCQuery,
    cached_names: Optional[FrozenSet[str]] = None,
) -> str:
    """The operator tree a query compiles to (without running it).

    ``cached_names`` threads the hybrid ``[cached]`` overlay annotation
    through, so the text matches what :func:`execute` with the equivalent
    ``overlays`` actually runs — without it, explaining a semantic-cache
    hybrid plan silently dropped the ``[cached]`` scan tags and the text
    diverged from the executed plan.  A compiled artifact's
    ``plan_text`` is this same text: its loops are the same levels.
    """

    return compile_query(query, cached_names=cached_names).explain()
