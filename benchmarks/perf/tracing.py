"""Spans around the layers' public callables, recorded from outside.

The traced run patches a fixed list of dotted public names
(:data:`TARGETS`): methods are replaced on their class, module-level
functions are re-bound in every loaded ``repro.*`` module whose global
*is* the original object (``from x import f`` copies the reference, so
patching the defining module alone would miss most call sites).  Each
call becomes one span — id, parent id, name, request id, start, end —
kept in memory and written out once, when the run ends.

A name that no longer resolves is reported in ``Patcher.missing`` and
its metrics come out as ``None``; nothing raises, and nothing here is
imported by the untraced run's request path.  Per-term hot paths
(``find_applicable_hom``, ``CongruenceClosure.add``, ``substitute``) are
deliberately absent: wrapping them from outside would cost more than
they do, so those counts wait for spans inside the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

#: (dotted public name, span name).  Several callables may share a span
#: name: they are then one line of the layer budget.
TARGETS: Tuple[Tuple[str, str], ...] = (
    # query
    ("repro.query.parser.parse_query", "query.parse"),
    ("repro.query.ast.PCQuery.canonical", "query.canonical"),
    ("repro.query.ast.PCQuery.canonical_key", "query.canonical"),
    ("repro.query.ast.PCQuery.template_key", "query.canonical"),
    # chase
    ("repro.optimizer.optimizer.Optimizer.universal_plan", "chase.universal"),
    ("repro.chase.containment.is_contained_in", "chase.containment"),
    ("repro.chase.chase.ChaseEngine.contained_in", "chase.contained_in"),
    ("repro.chase.chase.ChaseEngine.chase", "chase.engine_chase"),
    ("repro.chase.chase.ChaseEngine.chase_with_cc", "chase.engine_chase_cc"),
    # backchase
    ("repro.optimizer.optimizer.Optimizer.minimal_plans", "backchase.search"),
    ("repro.backchase.backchase.plan_lookups_safe", "backchase.lookup_safety"),
    # optimizer
    ("repro.optimizer.optimizer.Optimizer.optimize", "optimizer.optimize"),
    ("repro.optimizer.refine.normalize_plan", "optimizer.refine"),
    ("repro.optimizer.refine.prune_conditions", "optimizer.refine"),
    ("repro.optimizer.refine.nonfailing_refinement", "optimizer.refine"),
    ("repro.optimizer.cost.estimate_cost", "optimizer.cost"),
    ("repro.optimizer.reorder.reorder_bindings", "optimizer.cost"),
    ("repro.optimizer.cost.plan_cost_floor", "optimizer.cost"),
    ("repro.optimizer.statistics.Statistics.from_instance", "optimizer.statistics"),
    # exec
    ("repro.exec.planner.compile_query", "exec.plan"),
    ("repro.exec.compile.compile_plan", "exec.codegen"),
    ("repro.exec.engine.execute", "exec.run"),
    ("repro.exec.compile.CompiledPlan.run", "exec.run"),
    # api
    ("repro.api.database.Database.execute", "api.request"),
    ("repro.api.database.PreparedQuery.run", "api.request"),
    ("repro.semcache.session.CachedSession.run", "api.request"),
    ("repro.api.database.Database.prepare", "api.prepare"),
    ("repro.api.plancache.PlanCache.get", "api.plan_cache"),
    ("repro.api.plancache.PlanCache.put", "api.plan_cache"),
    # semcache
    ("repro.semcache.cache.SemanticCache.lookup_exact", "semcache.exact"),
    ("repro.semcache.cache.SemanticCache.plan_rewrite", "semcache.rewrite"),
    ("repro.semcache.cache.SemanticCache.register", "semcache.register"),
    ("repro.semcache.cache.SemanticCache.invalidate_source", "semcache.invalidate"),
    # model
    ("repro.model.instance.Instance.__setitem__", "model.mutate"),
)

#: spans of the serving front doors; their self time is what no wrapped
#: layer below them accounts for
API_SPANS = frozenset(("api.request", "api.prepare", "api.plan_cache"))


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root
    name: str
    request: int  # -1 outside the timed region (set-up)
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """The in-memory span store one traced run appends to.

    ``counts`` accumulates what the observers read off return values
    (the program's own public counters, e.g. ``BackchaseStats``), and only
    inside the timed region.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.request = -1
        self.counts: Counter = Counter()

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Optional[Callable[[Counter, Any], None]] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self.stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, parent, name, self.request, start, end)
            if observe is not None and self.request >= 0:
                observe(self.counts, result)
            return result

        return traced

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for s in self.finished():
                out.write(json.dumps(s._asdict()) + "\n")


def _observe_optimization(counts: Counter, result: Any) -> None:
    stats = result.backchase_stats
    counts["backchase.candidates_explored"] += stats.candidates_explored
    counts["backchase.candidates_pruned"] += stats.candidates_pruned
    counts["backchase.normal_forms"] += stats.normal_forms
    counts["chase.containment_hits"] += result.containment.hits
    counts["chase.containment_misses"] += result.containment.misses
    counts["optimizer.plans_costed"] += len(result.plans)


def _observe_execution(counts: Counter, result: Any) -> None:
    counts["exec.tuples"] += result.counters.tuples
    counts["exec.probes"] += result.counters.probes
    counts["exec.rows"] += len(result.results)


#: dotted name -> reader of that callable's return value
OBSERVERS: Dict[str, Callable[[Counter, Any], None]] = {
    "repro.optimizer.optimizer.Optimizer.optimize": _observe_optimization,
    "repro.exec.engine.execute": _observe_execution,
}


def _resolve(dotted: str) -> Tuple[Any, str]:
    """(owner, attribute) for a dotted name: the longest importable prefix
    is the module, the rest is walked with ``getattr``."""

    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise AttributeError(dotted)


class Patcher:
    """Installs the wrappers and puts everything back on :meth:`restore`."""

    def __init__(
        self,
        recorder: Recorder,
        targets: Iterable[Tuple[str, str]] = TARGETS,
        package: str = "repro",
    ) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self.package = package
        #: span name -> its targets that did not resolve
        self.missing: Dict[str, List[str]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Patcher":
        for dotted, span_name in self.targets:
            try:
                owner, attr = _resolve(dotted)
                patch = (
                    self._patch_method
                    if isinstance(owner, type)
                    else self._patch_function
                )
                patch(owner, attr, span_name, OBSERVERS.get(dotted))
            except AttributeError:
                self.missing.setdefault(span_name, []).append(dotted)
                print(
                    f"warning: trace target {dotted} not found; metrics "
                    f"from span {span_name!r} are null",
                    file=sys.stderr,
                )
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, span_name: str, observe) -> None:
        raw = vars(cls).get(attr)
        if raw is None:
            # Inherited: patching here would shadow the base class's own.
            raise AttributeError(f"{cls.__name__}.{attr}")
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(
                self.recorder.wrap(raw.__func__, span_name, observe)
            )
        else:
            wrapped = self.recorder.wrap(raw, span_name, observe)
        self._set(cls, attr, wrapped)

    def _patch_function(self, module: Any, attr: str, span_name: str, observe) -> None:
        original = getattr(module, attr)
        wrapped = self.recorder.wrap(original, span_name, observe)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for global_name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, global_name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""

    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


class SpanTotals:
    """Per-span-name sums over one traced run: over the timed requests,
    over ``requests`` (a set of request ids) when given, or over
    everything, set-up included, with ``timed_only=False``.  ``slowdown``
    maps a request id (-1: set-up) to the machine's slowdown while it
    ran; a span's time is divided by it."""

    def __init__(
        self,
        spans: List[Span],
        timed_only: bool = True,
        requests: Optional[Set[int]] = None,
        slowdown: Callable[[int], float] = lambda request: 1.0,
    ) -> None:
        own = self_times(spans)
        by_id = {s.id: s for s in spans}
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for s in spans:
            if requests is not None:
                if s.request not in requests:
                    continue
            elif timed_only and s.request < 0:
                continue
            factor = slowdown(s.request)
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + own[s.id] / factor
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            # Inclusive time counts a span only when no ancestor has the
            # same name, or recursion would be billed twice.
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != s.name:
                parent = by_id.get(parent.parent)
            if parent is None:
                self.inclusive_s[s.name] = (
                    self.inclusive_s.get(s.name, 0.0) + s.duration / factor
                )
