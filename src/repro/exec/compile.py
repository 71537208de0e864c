"""Compilation of winning plans into specialized Python functions.

The interpreted executor (:mod:`repro.exec.operators`) walks an operator
tree tuple-at-a-time: every emitted binding copies the environment dict,
every path evaluation re-enters :func:`~repro.query.evaluator.eval_path`
dispatch.  After the chase & backchase have picked the plan, none of that
flexibility is needed — the shape of the loops is fixed.  This module
reads the plan itself — its bindings in from-clause order, each with the
conditions :meth:`~repro.query.ast.PCQuery.condition_levels` pushes to
it, the same levels the interpreter's planner builds — and emits **one
fused Python function per plan**: nested tight loops over loop-local
variables, with no per-tuple ``dict`` copies and no ``eval_path``
dispatch on the hot path.

Scans of schema-name extents run over :class:`~repro.exec.columnar`
extents: referenced attributes become position-aligned columns (oids
dereferenced once per element, not once per enclosing loop iteration),
and equality conditions against the scan — constant selections and
value-based equijoins alike — become bulk probes of a lazily built
value → positions index instead of per-tuple comparisons — the one
join algorithm compiled plans have.

Differences from the interpreted path, by design:

* ``$param`` markers compile to runtime arguments, so one compiled
  artifact serves every binding of a template —
  ``prepare(t).run(x=...)`` calls an already-compiled function;
* :class:`~repro.exec.operators.Counters` are filled with the work the
  compiled plan *actually* does (bulk probes skip tuples the interpreter
  would have scanned and filtered), so instrumented counts are smaller
  but still honest;
* schema-name extents referenced by the plan are resolved up front, so
  a missing name or ill-typed extent can surface even when an outer
  loop turns out to be empty.

A plan the generator cannot specialize raises
:class:`PlanCompilationError`; nothing runs it another way.  Answers are
differentially identical to the interpreted executor and the reference
evaluator on every plan — the test suite checks exactly that, including
under overlays and hypothesis-generated queries, and statically verifies
(:mod:`repro.analysis.codegen`) every artifact it compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.errors import QueryExecutionError, ReproError
from repro.exec.columnar import COLUMNS, probe_positions
from repro.exec.operators import Counters
from repro.exec.planner import compile_query
from repro.model.values import DictValue, Oid, Row
from repro.query import paths as P
from repro.query.ast import Binding, Eq, PCQuery, StructOutput
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
)


class PlanCompilationError(ReproError):
    """A plan the code generator cannot specialize.  Compiled execution
    raises it: a plan runs compiled or not at all."""


#: probe-attribute sentinel: index the scan's *elements* themselves
#: (conditions of the form ``v = <expr>`` on the loop variable).
_SELF = object()

@dataclass(frozen=True)
class LookupSite:
    """One emitted *failing* dictionary lookup (``_lk`` call), recorded at
    generation time so the verifier can cross-check the AST against what
    the generator believes it emitted."""

    base: str  #: compiled source of the dictionary expression
    key: str  #: compiled source of the key expression
    where: str  #: the query-level base path, for messages


@dataclass(frozen=True)
class CodegenMetadata:
    """Structured facts about one generated plan function.

    The static verifier (:mod:`repro.analysis.codegen`) consumes this to
    prove the artifact well-formed without executing it: every name the
    function may reference is either a declared local, a parameter of
    ``_plan``, or a member of the restricted exec ``namespace``; every
    ``_params[...]`` read names a declared template parameter; every
    ``_lk`` call in the AST matches a recorded :class:`LookupSite`.
    """

    param_names: Tuple[str, ...]  #: the query's declared template params
    param_locals: Tuple[Tuple[str, str], ...]  #: (param, local) pairs
    namespace: FrozenSet[str]  #: names bound in the restricted exec globals
    locals: FrozenSet[str]  #: every local the generator deliberately binds
    lookup_sites: Tuple[LookupSite, ...]  #: failing-lookup emissions, in order


@dataclass(frozen=True)
class GeneratedPlan:
    """Source text plus metadata for one plan (the verifier's input),
    with the generator :func:`compile_plan` turns into an artifact."""

    source: str
    metadata: CodegenMetadata
    gen: Optional["_CodeGen"] = field(default=None, repr=False, compare=False)


@dataclass
class CompiledPlan:
    """One plan compiled to a fused Python function.

    ``fn(instance, counters, params)`` runs the plan and returns the
    result frozenset; :meth:`run` is the checked entry point.  The
    artifact is code only: the columns and value indexes it scans belong
    to their extents (:data:`~repro.exec.columnar.COLUMNS`), so re-runs
    reuse them and a dead database's extents are not pinned by a plan.
    """

    query: PCQuery
    source: str
    plan_text: str
    fn: Callable[..., FrozenSet[Any]] = field(repr=False)
    #: structured codegen facts (locals, params, namespace, lookup sites)
    #: for the static verifier; ``None`` on artifacts built elsewhere.
    metadata: Optional[CodegenMetadata] = field(repr=False, default=None)
    #: feedback artifacts take a fourth ``_fb`` list parameter and append
    #: one per-level actual-rows tuple per run; non-feedback artifacts are
    #: byte-identical to what this module always generated.
    feedback: bool = False

    def run(
        self,
        instance,
        counters: Optional[Counters] = None,
        params: Optional[Mapping[str, Any]] = None,
        feedback_out: Optional[List[Tuple[int, ...]]] = None,
    ) -> FrozenSet[Any]:
        if counters is None:
            counters = Counters()
        bound = self.query.check_bindings(params or {})
        if self.feedback:
            out = feedback_out if feedback_out is not None else []
            return self.fn(instance, counters, bound, out)
        return self.fn(instance, counters, bound)


class _CodeGen:
    """Emit the fused function for one plan."""

    def __init__(self, query: PCQuery, feedback: bool = False) -> None:
        self.query = query
        #: emit per-level row counters + the ``_fb`` out-parameter
        self.feedback = feedback
        self.n_levels = 0
        self.globals: Dict[str, Any] = {
            "__builtins__": {},
            "Row": Row,
            "Oid": Oid,
            "DictValue": DictValue,
            "QueryExecutionError": QueryExecutionError,
            "KeyError": KeyError,
            "TypeError": TypeError,
            "frozenset": frozenset,
            "isinstance": isinstance,
            "len": len,
            "range": range,
            "_probe": probe_positions,
            "_cols": COLUMNS,
        }
        self.prologue: List[str] = []
        self.body: List[str] = []
        self.indent = 0
        self.helpers: Set[str] = set()
        #: every local deliberately bound by an emitter (verifier metadata)
        self.declared: Set[str] = set()
        self.lookup_sites: List[LookupSite] = []
        self.vars: Dict[str, str] = {}
        self._snames: Dict[str, str] = {}
        self._params: Dict[str, str] = {}
        self._consts: Dict[Any, str] = {}
        self._const_seq = 0
        # columnar scans: var -> (level index, {attr-or-_SELF: column local})
        self.col_level: Dict[str, int] = {}
        self.col_attrs: Dict[str, Dict[Any, str]] = {}

    # -- small emit helpers ------------------------------------------------

    def line(self, text: str) -> None:
        self.body.append("    " * (self.indent + 1) + text)

    def pro(self, text: str) -> None:
        self.prologue.append("    " + text)

    def const(self, value: Any) -> str:
        try:
            key = (type(value).__name__, value)
            cached = self._consts.get(key)
        except TypeError:
            key, cached = None, None
        if cached is not None:
            return cached
        name = f"_k{self._const_seq}"
        self._const_seq += 1
        self.globals[name] = value
        if key is not None:
            self._consts[key] = name
        return name

    def sname(self, name: str) -> str:
        local = self._snames.get(name)
        if local is None:
            local = f"_s{len(self._snames)}"
            self._snames[name] = local
            self.declared.add(local)
            self.pro(f"{local} = instance[{name!r}]")
        return local

    def param(self, name: str) -> str:
        local = self._params.get(name)
        if local is None:
            local = f"_p{len(self._params)}"
            self._params[name] = local
            self.declared.add(local)
            self.pro(f"{local} = _params[{name!r}]")
        return local

    # -- path expression compilation --------------------------------------

    def expr(self, path: Path) -> str:
        if isinstance(path, Var):
            local = self.vars.get(path.name)
            if local is None:
                raise PlanCompilationError(
                    f"unbound variable {path.name!r} in {path}"
                )
            return local
        if isinstance(path, Const):
            return self.const(path.value)
        if isinstance(path, Param):
            return self.param(path.name)
        if isinstance(path, SName):
            return self.sname(path.name)
        if isinstance(path, Attr):
            base = path.base
            if isinstance(base, Var) and base.name in self.col_attrs:
                column = self.col_attrs[base.name].get(path.attr)
                if column:  # registered AND already bound to a local
                    return f"{column}[_i{self.col_level[base.name]}]"
            self.helpers.add("attr")
            return f"_attr({self.expr(base)}, {path.attr!r})"
        if isinstance(path, Dom):
            self.helpers.add("dom")
            return f"_dom({self.expr(path.base)}, {str(path)!r})"
        if isinstance(path, Lookup):
            self.helpers.add("lk")
            base = self.expr(path.base)
            key = self.expr(path.key)
            self.lookup_sites.append(
                LookupSite(base=base, key=key, where=str(path.base))
            )
            return f"_lk({base}, {key}, {str(path.base)!r})"
        if isinstance(path, NFLookup):
            self.helpers.add("nflk")
            return (
                f"_nflk({self.expr(path.base)}, {self.expr(path.key)}, "
                f"{str(path.base)!r})"
            )
        raise PlanCompilationError(f"unknown path node {path!r}")

    # -- condition emission ------------------------------------------------

    def emit_condition(self, cond: Eq) -> None:
        probes = P.count_probes(cond.left) + P.count_probes(cond.right)
        if probes:
            self.line(f"_probes += {probes}")
        self.line(f"if ({self.expr(cond.left)}) != ({self.expr(cond.right)}):")
        self.indent += 1
        self.line("_filtered += 1")
        self.line("continue")
        self.indent -= 1

    # -- the plan's levels ------------------------------------------------

    def generate(self) -> str:
        ground_conds, *per_binding = self.query.condition_levels()
        levels = list(zip(self.query.bindings, per_binding))
        self._analyze_columnar(ground_conds, levels)

        # ground conditions run once, before any loop (with interpreted
        # short-circuit semantics: later conditions only fire if earlier
        # ones passed, and at most one `filtered` bump).
        if ground_conds:
            self.declared.add("_g")
            self.line("_g = True")
            for j, cond in enumerate(ground_conds):
                if j > 0:
                    self.line("if _g:")
                    self.indent += 1
                probes = P.count_probes(cond.left) + P.count_probes(cond.right)
                if probes:
                    self.line(f"_probes += {probes}")
                self.line(
                    f"if ({self.expr(cond.left)}) != "
                    f"({self.expr(cond.right)}):"
                )
                self.indent += 1
                self.line("_g = False")
                self.line("_filtered += 1")
                self.indent -= 1
                if j > 0:
                    self.indent -= 1
            self.line("if _g:")
            self.indent += 1

        self.n_levels = len(levels)
        for level, (bind, conds) in enumerate(levels):
            if bind.var in self.col_level:
                conds = self._emit_columnar_scan(level, bind, conds)
            else:
                self._emit_generic_scan(level, bind)
            for cond in conds:
                self.emit_condition(cond)
            if self.feedback:
                # After the level's residual conditions: the actual rows
                # surviving the level, matching where the interpreted
                # chain counts (columnar scans absorb probe conditions,
                # so counting any earlier would diverge between modes).
                self.line(f"_r{level} += 1")

        self._emit_project()

        return self._assemble()

    # -- columnar analysis -------------------------------------------------

    def _analyze_columnar(
        self,
        ground_conds: List[Eq],
        levels: List[Tuple[Binding, List[Eq]]],
    ) -> None:
        """Decide which scans run over columnar extents and which of
        their depth-1 attributes become columns."""

        for level, (bind, _) in enumerate(levels):
            if isinstance(bind.source, SName):
                self.col_level[bind.var] = level
                self.col_attrs[bind.var] = {}
        paths: List[Path] = []
        for cond in ground_conds:
            paths += [cond.left, cond.right]
        for bind, conds in levels:
            paths.append(bind.source)
            for cond in conds:
                paths += [cond.left, cond.right]
        paths += list(self.query.output.paths())
        for path in paths:
            for term in P.subterms(path):
                if (
                    isinstance(term, Attr)
                    and isinstance(term.base, Var)
                    and term.base.name in self.col_attrs
                ):
                    self.col_attrs[term.base.name].setdefault(term.attr, "")

    # -- per-operator emitters --------------------------------------------

    def _emit_columnar_scan(
        self, level: int, bind: Binding, conds: List[Eq]
    ) -> List[Eq]:
        """Loop positions of a columnar extent; returns the residual
        conditions (the probe condition, if any, is absorbed)."""

        var = bind.var
        name = bind.source.name  # type: ignore[attr-defined]
        ext = f"_e{level}"
        elems = f"_n{level}"
        self.declared.update((ext, elems, f"_i{level}"))
        self.pro(f"{ext} = _cols.get(instance, {name!r})")
        self.pro(f"{elems} = {ext}.elements")
        for j, attr in enumerate(sorted(self.col_attrs[var])):
            column = f"_c{level}_{j}"
            self.col_attrs[var][attr] = column
            self.declared.add(column)
            self.pro(f"{column} = {ext}.column({attr!r}, instance)")

        probe = self._probe_candidate(var, conds)
        if probe is None:
            self.line(f"for _i{level} in range(len({elems})):")
        else:
            cond, attr, key_path = probe
            conds = [c for c in conds if c is not cond]
            if attr is _SELF:
                index_attr, column_local = None, elems
            else:
                index_attr, column_local = attr, self.col_attrs[var][attr]
            index = f"_x{level}"
            self.declared.add(index)
            self.pro(f"{index} = {ext}.index({index_attr!r}, instance)")
            self.line(f"_probes += {1 + P.count_probes(key_path)}")
            self.line(
                f"for _i{level} in _probe({index}, {self.expr(key_path)}, "
                f"{column_local}):"
            )
        self.indent += 1
        self.line("_tuples += 1")
        local = self.vars[var] = f"_v{level}"
        self.declared.add(local)
        self.line(f"{local} = {elems}[_i{level}]")
        return conds

    def _probe_candidate(
        self, var: str, conds: List[Eq]
    ) -> Optional[Tuple[Eq, Any, Path]]:
        """An equality usable as a bulk index probe for this scan:
        ``v.attr = <expr over other vars>`` or ``v = <expr>``.  Constant
        (ground) probes win over join probes."""

        ground_pick = join_pick = None
        for cond in conds:
            for this_side, other_side in (
                (cond.left, cond.right),
                (cond.right, cond.left),
            ):
                if (
                    isinstance(this_side, Attr)
                    and isinstance(this_side.base, Var)
                    and this_side.base.name == var
                ):
                    attr: Any = this_side.attr
                elif isinstance(this_side, Var) and this_side.name == var:
                    attr = _SELF
                else:
                    continue
                other_vars = P.free_vars(other_side)
                if var in other_vars:
                    continue
                if not other_vars and ground_pick is None:
                    ground_pick = (cond, attr, other_side)
                elif other_vars and join_pick is None:
                    join_pick = (cond, attr, other_side)
        return ground_pick or join_pick

    def _emit_generic_scan(self, level: int, bind: Binding) -> None:
        self.helpers.add("setof")
        probes = P.count_probes(bind.source)
        if probes:
            self.line(f"_probes += {probes}")
        message = f"binding source {bind.source} is not a set"
        local = self.vars[bind.var] = f"_v{level}"
        self.declared.add(local)
        self.line(
            f"for {local} in _setof({self.expr(bind.source)}, {message!r}):"
        )
        self.indent += 1
        self.line("_tuples += 1")

    def _emit_project(self) -> None:
        output = self.query.output
        probes = sum(P.count_probes(p) for p in output.paths())
        if probes:
            self.line(f"_probes += {probes}")
        if isinstance(output, StructOutput):
            fields = ", ".join(
                f"{name!r}: {self.expr(path)}" for name, path in output.fields
            )
            self.line(f"_append(Row({{{fields}}}))")
        else:
            self.line(f"_append({self.expr(output.path)})")

    # -- assembly ----------------------------------------------------------

    _HELPER_SOURCE = {
        "attr": [
            "_deref = instance.deref",
            "def _attr(value, attr):",
            "    if isinstance(value, Oid):",
            "        value = _deref(value)",
            "    if isinstance(value, Row):",
            "        try:",
            "            return value[attr]",
            "        except KeyError:",
            "            raise QueryExecutionError(",
            "                'row has no attribute %r: %r' % (attr, value))",
            "    raise QueryExecutionError(",
            "        'attribute access on non-record: .%s' % (attr,))",
        ],
        "dom": [
            "def _dom(value, where):",
            "    if not isinstance(value, DictValue):",
            "        raise QueryExecutionError('dom of non-dictionary: %s' % where)",
            "    return value.domain()",
        ],
        "lk": [
            "def _lk(value, key, where):",
            "    if not isinstance(value, DictValue):",
            "        raise QueryExecutionError(",
            "            'lookup into non-dictionary: %s' % where)",
            "    try:",
            "        return value.lookup(key)",
            "    except KeyError:",
            "        raise QueryExecutionError(",
            "            'failing lookup: key %r not in dom(%s)' % (key, where))",
        ],
        "nflk": [
            "def _nflk(value, key, where):",
            "    if not isinstance(value, DictValue):",
            "        raise QueryExecutionError(",
            "            'lookup into non-dictionary: %s' % where)",
            "    return value.nonfailing_lookup(key)",
        ],
        "setof": [
            "def _setof(value, message):",
            "    if not isinstance(value, frozenset):",
            "        raise QueryExecutionError(message)",
            "    return value",
        ],
    }

    def _assemble(self) -> str:
        if self.feedback:
            lines = ["def _plan(instance, counters, _params, _fb):"]
        else:
            lines = ["def _plan(instance, counters, _params):"]
        for helper in ("attr", "dom", "lk", "nflk", "setof"):
            if helper in self.helpers:
                self.declared.add(f"_{helper}")
                lines += ["    " + text for text in self._HELPER_SOURCE[helper]]
        if "attr" in self.helpers:
            self.declared.add("_deref")
        self.declared.update(("_tuples", "_probes", "_filtered", "_out", "_append"))
        lines += [
            "    _tuples = 0",
            "    _probes = 0",
            "    _filtered = 0",
            "    _out = []",
            "    _append = _out.append",
        ]
        if self.feedback:
            for level in range(self.n_levels):
                self.declared.add(f"_r{level}")
                lines.append(f"    _r{level} = 0")
        lines += self.prologue
        lines += self.body
        if self.feedback:
            rows = ", ".join(f"_r{level}" for level in range(self.n_levels))
            suffix = "," if self.n_levels == 1 else ""
            lines.append(f"    _fb.append(({rows}{suffix}))")
        lines += [
            "    counters.tuples += _tuples",
            "    counters.probes += _probes",
            "    counters.filtered += _filtered",
            "    return frozenset(_out)",
        ]
        return "\n".join(lines) + "\n"

    def metadata(self) -> CodegenMetadata:
        """The structured facts for the source :meth:`generate` emitted
        (only meaningful after :meth:`generate` has run)."""

        return CodegenMetadata(
            param_names=self.query.param_names(),
            param_locals=tuple(sorted(self._params.items())),
            namespace=frozenset(self.globals),
            locals=frozenset(self.declared),
            lookup_sites=tuple(self.lookup_sites),
        )


def generate_plan(query: PCQuery, feedback: bool = False) -> GeneratedPlan:
    """Source **and** metadata for one plan, without executing anything —
    what the static verifier (:mod:`repro.analysis.codegen`) consumes."""

    gen = _CodeGen(query, feedback=feedback)
    source = gen.generate()
    return GeneratedPlan(source, gen.metadata(), gen)


def compile_plan(
    query: PCQuery,
    cached_names: Optional[FrozenSet[str]] = None,
    feedback: bool = False,
) -> CompiledPlan:
    """Compile one plan to a :class:`CompiledPlan`, or raise
    :class:`PlanCompilationError`.

    The loops are the plan's own levels, the ones the interpreter's
    planner (:func:`repro.exec.planner.compile_query`) builds, so join
    order and selection pushing match the interpreted execution of the
    same query exactly; ``plan_text`` is that planner's ``explain()``
    (``cached_names`` tags overlay scans ``[cached]``), byte-identical to
    the interpreter's.
    """

    plan = generate_plan(query, feedback=feedback)
    try:
        code = compile(plan.source, "<repro-compiled-plan>", "exec")
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise PlanCompilationError(
            f"generated plan function does not compile: {exc}"
        ) from exc
    namespace = dict(plan.gen.globals)
    exec(code, namespace)
    return CompiledPlan(
        query=query,
        source=plan.source,
        plan_text=compile_query(query, cached_names=cached_names).explain(),
        fn=namespace["_plan"],
        metadata=plan.metadata,
        feedback=feedback,
    )
