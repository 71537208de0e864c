"""INV-MONO: metrics counters only ever go up.

The observability layer and the engine statistics objects
(:class:`repro.obs.metrics.Counter`,
:class:`repro.backchase.backchase.BackchaseStats`,
:class:`repro.semcache.stats.CacheStats`, the observation counters of
:class:`repro.obs.slowlog.SlowQueryLog` and
:class:`repro.obs.feedback.FeedbackStore`) are cumulative by contract —
dashboards and the EXPLAIN ANALYZE report difference them across
snapshots, so a decrement or a mid-life reset silently corrupts every
derived rate.  Two checks:

* inside a monotone class, no method other than
  ``__init__``/``__post_init__``/``reset`` may plainly assign or
  non-``+=``-update one of its counter fields;
* project-wide, no ``<obj>.<counter-field> -= ...`` ever appears (the
  field-name set is small and distinctive enough for this to be exact
  in practice; a false positive is one suppression comment away).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.findings import Finding

RULE_IDS = ("INV-MONO",)
CATALOG = {
    "INV-MONO": "a monotone metrics counter is decremented, reset or "
    "non-incrementally updated",
}

#: classes whose numeric fields are cumulative counters
MONOTONE_CLASSES = frozenset(
    {
        "Counter",
        "BackchaseStats",
        "CacheStats",
        "SlowQueryLog",
        "FeedbackStore",
    }
)

#: methods allowed to (re)initialize counter fields
INIT_METHODS = frozenset({"__init__", "__post_init__", "reset"})


def _numeric_fields(cls: ast.ClassDef) -> Set[str]:
    """Counter field names: class-level numeric defaults plus numeric
    ``self.X = <number>`` initializations in ``__init__``."""

    def is_number(node: Optional[ast.expr]) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        )

    out: Set[str] = set()
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and is_number(stmt.value)
        ):
            out.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign) and is_number(stmt.value):
            out.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.FunctionDef) and stmt.name in INIT_METHODS:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Assign)
                    and is_number(node.value)
                    and len(node.targets) == 1
                ):
                    attr = _self_attr(node.targets[0])
                    if attr is not None:
                        out.add(attr)
    return out


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def run(project) -> List[Finding]:
    class_defs: List[Tuple[object, ast.ClassDef, Set[str]]] = []
    all_fields: Set[str] = set()
    for source_file in project.src:
        for node in ast.walk(source_file.tree):
            if isinstance(node, ast.ClassDef) and node.name in MONOTONE_CLASSES:
                fields = _numeric_fields(node)
                class_defs.append((source_file, node, fields))
                all_fields |= fields

    findings: List[Finding] = []

    # in-class discipline: counter fields only touched by += outside init
    for source_file, cls, fields in class_defs:
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name in INIT_METHODS:
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr in fields:
                            findings.append(
                                Finding(
                                    source_file.path,
                                    node.lineno,
                                    "INV-MONO",
                                    f"{cls.name}.{attr} is a monotone "
                                    f"counter; {method.name}() plainly "
                                    "assigns it (counters only go up)",
                                )
                            )
                elif isinstance(node, ast.AugAssign) and not isinstance(
                    node.op, ast.Add
                ):
                    attr = _self_attr(node.target)
                    if attr in fields:
                        findings.append(
                            Finding(
                                source_file.path,
                                node.lineno,
                                "INV-MONO",
                                f"{cls.name}.{attr} is a monotone counter; "
                                f"{method.name}() updates it with a "
                                "non-increment operator",
                            )
                        )

    # project-wide: nobody decrements an attribute named like a counter
    for source_file in project.src:
        for node in ast.walk(source_file.tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Sub)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in all_fields
            ):
                findings.append(
                    Finding(
                        source_file.path,
                        node.lineno,
                        "INV-MONO",
                        f"decrement of {node.target.attr!r}, a monotone "
                        "metrics counter field",
                    )
                )
    return findings
