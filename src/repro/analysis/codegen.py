"""Static verifier for generated plan functions.

:func:`repro.exec.compile.compile_plan` emits one fused Python function
per winning plan and ``exec``'s it in a restricted namespace.  PR 8's
counter-initialization bug (a counter bump emitted into the prologue
*before* the counter inits — an ``UnboundLocalError``) was only
caught by running the artifact; this module proves the same class of
property at lint time, by parsing the generated source to an AST and
running a forward dataflow pass over it.

Rules (each finding carries the rule id):

``CG-SYNTAX``
    the generated source does not parse.
``CG-SHAPE``
    the module is not exactly one ``def _plan(instance, counters,
    _params)``, or a statement form outside the generator's small
    statement grammar appears.
``CG-DOM``
    a local is read at a point not dominated by a binding of it — the
    definite-assignment pass walks every path (loops may run zero times,
    ``if``/``except`` branches join by intersection), so the PR 8
    counter bug is exactly a ``CG-DOM`` finding.
``CG-NAME``
    a name that is neither a local nor a member of the restricted exec
    namespace is referenced.
``CG-PARAM``
    a ``_params[...]`` read whose key is not a declared template
    parameter (or not a string literal).
``CG-LOOKUP``
    a failing dictionary lookup (``_lk(M, k)``) is not *dominated* by a
    guard establishing ``k in dom(M)`` — a ``for k in dom(M)`` loop, a
    membership check, or an equality filter aliasing ``k`` to a guarded
    key.  This is the static shadow of the backchase's
    ``plan_lookups_safe``; lookups the chase proved safe under the
    constraint set carry no syntactic guard, so when a
    :class:`~repro.chase.chase.ChaseEngine` is supplied the residue is
    re-checked with ``plan_lookups_safe`` itself.
``CG-LOCAL`` / ``CG-SITES``
    drift between the AST and the generator's own
    :class:`~repro.exec.compile.CodegenMetadata`: an undeclared local is
    bound, or the ``_lk`` call count disagrees with the recorded lookup
    sites.

:func:`verify_artifact` is the constraint-free subset: everything above
except ``CG-LOOKUP``, whose chase half needs the optimizer's constraint
context (plan-level lookup safety is the backchase's proof; the lint
driver re-checks it with the workload's engine).  Artifacts are verified
in two places, never at run time: ``python -m repro.analysis`` sweeps the
lint corpus, every workload plan and every structure definition, and the
test suite runs :func:`verify_artifact` over every artifact it compiles.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.errors import ReproError
from repro.exec.compile import (
    CodegenMetadata,
    PlanCompilationError,
    generate_plan,
)

__all__ = [
    "verify_artifact",
    "verify_corpus",
    "verify_query",
    "verify_source",
    "verify_workload_plans",
]

#: floor of the restricted exec namespace, used when no metadata rides
#: along (kept in sync with ``_CodeGen.globals``; ``_k<n>`` constants are
#: admitted by pattern in that case).
STATIC_NAMESPACE: FrozenSet[str] = frozenset(
    {
        "__builtins__",
        "Row",
        "Oid",
        "DictValue",
        "QueryExecutionError",
        "KeyError",
        "TypeError",
        "frozenset",
        "isinstance",
        "len",
        "range",
        "_probe",
        "_cols",
    }
)

_CONST_NAME = re.compile(r"_k\d+\Z")

#: the generator's whole statement grammar; anything else is CG-SHAPE
_ALLOWED_STATEMENTS = (
    ast.FunctionDef,
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.For,
    ast.While,
    ast.If,
    ast.Try,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Pass,
    ast.Continue,
    ast.Break,
    ast.Global,
    ast.Nonlocal,
)


def _dump(node: ast.AST) -> str:
    return ast.unparse(node)


@dataclass
class _LookupCall:
    """One ``_lk`` call found in the AST, with its guard verdict."""

    line: int
    base: str
    key: str
    guarded: bool


class _State:
    """Facts holding on every path reaching a program point."""

    __slots__ = ("assigned", "facts", "eqs")

    def __init__(
        self,
        assigned: Set[str],
        facts: Set[Tuple[str, str]],
        eqs: Set[Tuple[str, str]],
    ) -> None:
        self.assigned = assigned  #: definitely-assigned locals
        self.facts = facts  #: (base, key) expression dumps with key ∈ dom(base)
        self.eqs = eqs  #: sorted expression-dump pairs proven equal

    def copy(self) -> "_State":
        return _State(set(self.assigned), set(self.facts), set(self.eqs))


def _join(states: Sequence[_State]) -> _State:
    out = states[0].copy()
    for other in states[1:]:
        out.assigned &= other.assigned
        out.facts &= other.facts
        out.eqs &= other.eqs
    return out


def _eq_pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _aliased(eqs: Set[Tuple[str, str]], start: str, goal: str) -> bool:
    """Whether ``start`` and ``goal`` are linked by the equality facts
    (transitively; the sets are tiny)."""

    if start == goal:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for a, b in eqs:
            other = b if a == current else a if b == current else None
            if other is not None and other not in seen:
                if other == goal:
                    return True
                seen.add(other)
                frontier.append(other)
    return False


class _ScopeChecker:
    """Definite-assignment + guard-dominance dataflow over one function
    scope (helpers recurse into child checkers)."""

    def __init__(
        self,
        label: str,
        namespace: FrozenSet[str],
        const_ok: Callable[[str], bool],
        findings: List[Finding],
        lookup_calls: List[_LookupCall],
        outer: FrozenSet[str],
    ) -> None:
        self.label = label
        self.namespace = namespace
        self.const_ok = const_ok
        self.findings = findings
        self.lookup_calls = lookup_calls
        self.outer = outer
        self.stored: Set[str] = set()

    # -- entry -------------------------------------------------------------

    def check_function(self, fn: ast.FunctionDef) -> None:
        self.stored = _stored_names(fn)
        args = fn.args
        params = [
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        state = _State(set(params), set(), set())
        self.walk_body(fn.body, state)

    # -- statements --------------------------------------------------------

    def walk_body(
        self, stmts: Sequence[ast.stmt], state: Optional[_State]
    ) -> Optional[_State]:
        """Returns the fall-through state, or ``None`` when every path
        terminated (return/raise/continue/break)."""

        for stmt in stmts:
            if state is None:
                break  # unreachable tail; the generator never emits one
            state = self.stmt(stmt, state)
        return state

    def stmt(self, node: ast.stmt, st: _State) -> Optional[_State]:
        if not isinstance(node, _ALLOWED_STATEMENTS):
            self.findings.append(
                Finding(
                    self.label,
                    node.lineno,
                    "CG-SHAPE",
                    f"statement form {type(node).__name__} is outside the "
                    "generator's statement grammar",
                )
            )
            return st
        if isinstance(node, ast.FunctionDef):
            st.assigned.add(node.name)
            child = _ScopeChecker(
                self.label,
                self.namespace,
                self.const_ok,
                self.findings,
                self.lookup_calls,
                outer=frozenset(st.assigned | self.stored | self.outer),
            )
            child.check_function(node)
            return st
        if isinstance(node, ast.Assign):
            self.expr(node.value, st)
            for target in node.targets:
                self.bind_target(target, st)
            return st
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value, st)
                self.bind_target(node.target, st)
            return st
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                if node.target.id not in st.assigned:
                    self.findings.append(
                        Finding(
                            self.label,
                            node.lineno,
                            "CG-DOM",
                            f"augmented assignment reads {node.target.id!r} "
                            "before any binding dominates it",
                        )
                    )
                self.expr(node.value, st)
                st.assigned.add(node.target.id)
            else:
                self.expr(node.target, st)
                self.expr(node.value, st)
            return st
        if isinstance(node, ast.Expr):
            self.expr(node.value, st)
            return st
        if isinstance(node, ast.For):
            return self.for_stmt(node, st)
        if isinstance(node, ast.While):
            self.expr(node.test, st)
            self.walk_body(node.body, st.copy())
            if node.orelse:
                self.walk_body(node.orelse, st.copy())
            return st
        if isinstance(node, ast.If):
            return self.if_stmt(node, st)
        if isinstance(node, ast.Try):
            return self.try_stmt(node, st)
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.expr(node.value, st)
            return None
        if isinstance(node, ast.Raise):
            if node.exc is not None:
                self.expr(node.exc, st)
            if node.cause is not None:
                self.expr(node.cause, st)
            return None
        if isinstance(node, (ast.Continue, ast.Break)):
            return None
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            st.assigned.update(node.names)
            return st
        return st  # Pass

    def for_stmt(self, node: ast.For, st: _State) -> Optional[_State]:
        self.expr(node.iter, st)
        body_state = st.copy()
        self.bind_target(node.target, body_state)
        dom_base = _dom_loop_base(node.iter)
        if dom_base is not None and isinstance(node.target, ast.Name):
            body_state.facts.add((dom_base, node.target.id))
        self.walk_body(node.body, body_state)
        if node.orelse:
            self.walk_body(node.orelse, st.copy())
        return st  # the loop may run zero times: nothing new is definite

    def if_stmt(self, node: ast.If, st: _State) -> Optional[_State]:
        self.expr(node.test, st)
        body_exit = self.walk_body(list(node.body), st.copy())
        else_exit = (
            self.walk_body(list(node.orelse), st.copy())
            if node.orelse
            else st.copy()
        )
        if body_exit is None and else_exit is not None:
            # the guard pattern: `if <test>: ... continue` — on the
            # fall-through path the *negation* of the test holds.
            _apply_negation(node.test, else_exit)
        exits = [s for s in (body_exit, else_exit) if s is not None]
        if not exits:
            return None
        return _join(exits)

    def try_stmt(self, node: ast.Try, st: _State) -> Optional[_State]:
        body_exit = self.walk_body(node.body, st.copy())
        exits: List[_State] = []
        if body_exit is not None:
            if node.orelse:
                body_exit = self.walk_body(node.orelse, body_exit)
            if body_exit is not None:
                exits.append(body_exit)
        for handler in node.handlers:
            handler_state = st.copy()  # the body may fail at any point
            if handler.type is not None:
                self.expr(handler.type, handler_state)
            if handler.name:
                handler_state.assigned.add(handler.name)
            handler_exit = self.walk_body(handler.body, handler_state)
            if handler_exit is not None:
                exits.append(handler_exit)
        if node.finalbody:
            final_exit = self.walk_body(
                node.finalbody, _join(exits) if exits else st.copy()
            )
            if final_exit is None:
                return None
        if not exits:
            return None
        return _join(exits)

    def bind_target(self, target: ast.expr, st: _State) -> None:
        if isinstance(target, ast.Name):
            st.assigned.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind_target(element, st)
        elif isinstance(target, ast.Starred):
            self.bind_target(target.value, st)
        else:
            self.expr(target, st)  # attribute/subscript store: base is read

    # -- expressions -------------------------------------------------------

    def expr(
        self, node: ast.AST, st: _State, local: FrozenSet[str] = frozenset()
    ) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.check_name(node, st, local)
            return
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "_lk"
                and len(node.args) >= 2
            ):
                base = _dump(node.args[0])
                key = _dump(node.args[1])
                self.lookup_calls.append(
                    _LookupCall(
                        node.lineno, base, key, self.is_guarded(st, base, key)
                    )
                )
        elif isinstance(node, ast.Lambda):
            params = frozenset(
                a.arg
                for a in (
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                )
            )
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if default is not None:
                    self.expr(default, st, local)
            self.expr(node.body, st, local | params)
            return
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            inner = set(local)
            for gen in node.generators:
                self.expr(gen.iter, st, frozenset(inner))
                inner |= _target_names(gen.target)
                for cond in gen.ifs:
                    self.expr(cond, st, frozenset(inner))
            scoped = frozenset(inner)
            if isinstance(node, ast.DictComp):
                self.expr(node.key, st, scoped)
                self.expr(node.value, st, scoped)
            else:
                self.expr(node.elt, st, scoped)
            return
        elif isinstance(node, ast.NamedExpr):
            self.expr(node.value, st, local)
            if isinstance(node.target, ast.Name):
                st.assigned.add(node.target.id)
            return
        for child in ast.iter_child_nodes(node):
            self.expr(child, st, local)

    def check_name(
        self, node: ast.Name, st: _State, local: FrozenSet[str]
    ) -> None:
        name = node.id
        if name in st.assigned or name in local:
            return
        if name in self.stored:
            # bound somewhere in this scope, but no binding dominates
            # this read: Python raises UnboundLocalError here.
            self.findings.append(
                Finding(
                    self.label,
                    node.lineno,
                    "CG-DOM",
                    f"local {name!r} may be read before assignment",
                )
            )
            st.assigned.add(name)  # one finding per flow, not per read
            return
        if name in self.outer or name in self.namespace or self.const_ok(name):
            return
        self.findings.append(
            Finding(
                self.label,
                node.lineno,
                "CG-NAME",
                f"name {name!r} is neither a local nor a member of the "
                "restricted exec namespace",
            )
        )

    def is_guarded(self, st: _State, base: str, key: str) -> bool:
        return any(
            fact_base == base and _aliased(st.eqs, fact_key, key)
            for fact_base, fact_key in st.facts
        )


def _apply_negation(test: ast.expr, state: _State) -> None:
    """Facts from the *failure* of a guard test: ``a != b`` failing means
    ``a == b``; ``k not in M`` failing means ``k ∈ dom-ish(M)``."""

    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if isinstance(op, ast.NotEq):
        state.eqs.add(_eq_pair(_dump(left), _dump(right)))
    elif isinstance(op, ast.NotIn):
        state.facts.add((_dump(right), _dump(left)))


def _dom_loop_base(iter_node: ast.expr) -> Optional[str]:
    """The dictionary expression of a ``for k in dom(M)``-shaped loop:
    a ``_dom(M, ...)`` call, possibly wrapped in ``_setof(...)``."""

    call = iter_node
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_setof"
        and call.args
    ):
        call = call.args[0]
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_dom"
        and call.args
    ):
        return _dump(call.args[0])
    return None


def _target_names(target: ast.expr) -> Set[str]:
    return {
        n.id
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _stored_names(fn: ast.FunctionDef) -> Set[str]:
    """Every name the function's own scope binds somewhere (the set that
    turns an undominated read into ``UnboundLocalError`` rather than a
    global reference).  Nested scopes are skipped; ``global``/``nonlocal``
    names are removed."""

    stored: Set[str] = set()
    escaped: Set[str] = set()
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stored.add(node.name)
            continue
        if isinstance(
            node,
            (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            continue
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            stored.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            stored.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            escaped.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return stored - escaped


# -- the verifier ----------------------------------------------------------


def verify_source(
    query,
    source: str,
    metadata: Optional[CodegenMetadata] = None,
    *,
    label: str = "<codegen>",
    engine=None,
    check_lookups: bool = True,
) -> List[Finding]:
    """Every rule violation in one generated plan source.

    ``metadata`` tightens the namespace/local/lookup-site cross-checks to
    exactly what the generator declared; without it the static namespace
    floor (plus ``_k<n>`` constants) is used.  ``engine`` supplies the
    chase fallback for ``CG-LOOKUP``; ``check_lookups=False`` skips that
    rule entirely (:func:`verify_artifact`, which has no constraint
    context).
    """

    findings: List[Finding] = []
    try:
        tree = ast.parse(source)
        # the compiler proper rejects what the grammar alone lets through
        # (duplicate arguments, misplaced keywords, ...)
        compile(tree, label, "exec")
    except SyntaxError as exc:
        return [
            Finding(
                label,
                exc.lineno or 0,
                "CG-SYNTAX",
                f"generated source does not parse: {exc.msg}",
            )
        ]
    if (
        len(tree.body) != 1
        or not isinstance(tree.body[0], ast.FunctionDef)
        or tree.body[0].name != "_plan"
    ):
        return [
            Finding(
                label,
                1,
                "CG-SHAPE",
                "generated module must contain exactly one `def _plan(...)`",
            )
        ]
    fn = tree.body[0]

    if metadata is not None:
        namespace = frozenset(metadata.namespace)
        const_ok: Callable[[str], bool] = lambda name: False
    else:
        namespace = STATIC_NAMESPACE
        const_ok = lambda name: bool(_CONST_NAME.match(name))
    lookup_calls: List[_LookupCall] = []
    checker = _ScopeChecker(
        label, namespace, const_ok, findings, lookup_calls, outer=frozenset()
    )
    checker.check_function(fn)

    declared_params = set(
        metadata.param_names
        if metadata is not None
        else (query.param_names() if query is not None else ())
    )
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "_params"
            and isinstance(node.ctx, ast.Load)
        ):
            key = node.slice
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                findings.append(
                    Finding(
                        label,
                        node.lineno,
                        "CG-PARAM",
                        "_params subscript key is not a string literal",
                    )
                )
            elif key.value not in declared_params:
                findings.append(
                    Finding(
                        label,
                        node.lineno,
                        "CG-PARAM",
                        f"_params[{key.value!r}] does not name a declared "
                        f"template parameter "
                        f"(declared: {sorted(declared_params) or 'none'})",
                    )
                )

    if metadata is not None:
        fn_params = {a.arg for a in fn.args.args}
        for name in sorted(checker.stored - set(metadata.locals) - fn_params):
            findings.append(
                Finding(
                    label,
                    fn.lineno,
                    "CG-LOCAL",
                    f"local {name!r} is bound by the generated code but not "
                    "declared in the codegen metadata",
                )
            )
        if len(lookup_calls) != len(metadata.lookup_sites):
            findings.append(
                Finding(
                    label,
                    fn.lineno,
                    "CG-SITES",
                    f"{len(lookup_calls)} `_lk` call(s) in the AST vs "
                    f"{len(metadata.lookup_sites)} recorded lookup site(s)",
                )
            )

    if check_lookups:
        unguarded = [call for call in lookup_calls if not call.guarded]
        if unguarded and not _chase_safe(query, engine):
            suffix = (
                " and is not chase-provably safe under the constraint set"
                if engine is not None
                else " (and no constraint context was supplied to prove it)"
            )
            for call in unguarded:
                findings.append(
                    Finding(
                        label,
                        call.line,
                        "CG-LOOKUP",
                        f"failing lookup {call.base}[{call.key}] is not "
                        "dominated by a dom() guard, membership check or "
                        "aliasing equality filter" + suffix,
                    )
                )

    return _dedupe(findings)


def _chase_safe(query, engine) -> bool:
    """The semantic fallback for syntactically unguarded lookups: the
    same plan-level proof the backchase applied when it accepted the
    plan (dom-guard bindings or chase-implied key presence)."""

    if query is None or engine is None:
        return False
    from repro.backchase.backchase import plan_lookups_safe

    return plan_lookups_safe(query, engine)


def _dedupe(findings: Iterable[Finding]) -> List[Finding]:
    seen: Set[Finding] = set()
    out: List[Finding] = []
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            out.append(finding)
    return sorted(out, key=lambda f: (f.file, f.line, f.rule, f.message))


def verify_artifact(
    query, source: str, metadata: Optional[CodegenMetadata] = None
) -> List[Finding]:
    """The constraint-free rule subset, for an artifact compiled outside
    the lint sweeps (``CG-LOOKUP`` excluded: plan-level lookup safety is
    the backchase's proof, re-checked with the constraint context by the
    lint driver)."""

    return verify_source(
        query, source, metadata, label="<compiled-plan>", check_lookups=False
    )


# -- drivers over the corpus and the golden workloads ----------------------

def verify_query(
    query, *, label: str, engine=None
) -> Tuple[int, List[Finding]]:
    """Generate and verify one query's plan function.  Returns (artifacts
    verified, findings)."""

    full_label = f"<codegen:{label}>"
    try:
        plan = generate_plan(query)
    except PlanCompilationError as exc:
        return 0, [
            Finding(full_label, 0, "CG-REFUSED", f"codegen refused the plan: {exc}")
        ]
    return 1, verify_source(
        query, plan.source, plan.metadata, label=full_label, engine=engine
    )


def verify_corpus(
    extra: Sequence[Tuple[str, str]] = ()
) -> Tuple[int, List[Finding]]:
    """Run the parser round-trip check and the verifier over every
    lint-corpus query plus ``extra`` ``(label, text)`` pairs."""

    from repro.analysis.corpus import BUILTIN_CORPUS, check_roundtrip
    from repro.query.parser import parse_query

    verified = 0
    findings: List[Finding] = []
    for name, text in (*BUILTIN_CORPUS, *extra):
        try:
            query = parse_query(text)
        except ReproError as exc:
            findings.append(
                Finding(
                    f"<codegen:{name}>", 0, "CG-REFUSED", f"does not parse: {exc}"
                )
            )
            continue
        findings.extend(check_roundtrip(name, query))
        count, query_findings = verify_query(query, label=name)
        verified += count
        findings.extend(query_findings)
    return verified, findings


def verify_workload_plans(
    names: Optional[Sequence[str]] = None,
) -> Tuple[int, List[Finding]]:
    """Run the verifier over every golden workload's canonical query,
    optimized winning plan and the definition of every structure its
    builder materialized through the compiled executor, with the
    workload's constraint set backing the ``CG-LOOKUP`` chase fallback."""

    from repro.advisor.workload import structure_views
    from repro.api.workloads import WORKLOAD_NAMES, build_workload
    from repro.chase.chase import ChaseEngine
    from repro.optimizer.optimizer import Optimizer

    verified = 0
    findings: List[Finding] = []
    for name in names if names is not None else WORKLOAD_NAMES:
        workload = build_workload(name)
        engine = ChaseEngine(workload.constraints)
        optimizer = Optimizer(
            workload.constraints,
            physical_names=workload.physical_names,
            statistics=workload.statistics,
        )
        winner = optimizer.optimize(workload.query).best.query
        for label, query in (
            (f"{name}-canonical", workload.query),
            (f"{name}-winner", winner),
            *(
                (f"{name}-structure-{view.name}", view.definition)
                for view in structure_views(workload)
            ),
        ):
            count, query_findings = verify_query(
                query, label=label, engine=engine
            )
            verified += count
            findings.extend(query_findings)
    return verified, findings
