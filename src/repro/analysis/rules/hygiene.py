"""INV-MUTDEF / INV-EXCEPT: the two hygiene bugs that bite optimizers.

* **INV-MUTDEF** — a mutable default argument (``def f(x, acc=[])``) is
  shared across calls; in a library whose engines are re-entered per
  query (chase, backchase, cache) that is cross-query state leakage.
* **INV-EXCEPT** — a bare ``except:`` catches ``KeyboardInterrupt`` and
  ``SystemExit`` too, and in this codebase specifically would swallow
  :class:`repro.errors.QueryExecutionError` where a failing lookup is
  *supposed* to propagate (the paper's dictionaries are partial
  functions — failure is semantics, not noise).  ``except Exception`` /
  ``BaseException`` without a re-raise is the same defect: a programming
  error inside the ``try`` becomes a silently different plan.  Catch
  :class:`repro.errors.ReproError` or narrower; a boundary that must keep
  running carries ``# repro: ignore[INV-EXCEPT]`` and its reason.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding

RULE_IDS = ("INV-MUTDEF", "INV-EXCEPT")
CATALOG = {
    "INV-MUTDEF": "mutable default argument (shared across calls)",
    "INV-EXCEPT": "bare `except:`, or `except Exception` / `BaseException` "
    "without re-raise (swallows programming and engine errors alike)",
}

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


def _swallows_everything(handler: ast.ExceptHandler) -> bool:
    """A bare ``except:``, or ``Exception`` / ``BaseException`` (alone or
    in a tuple) caught by a body that never re-raises."""

    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
        for n in names
    ) and not any(
        isinstance(n, ast.Raise) for stmt in handler.body for n in ast.walk(stmt)
    )


def run(project) -> List[Finding]:
    findings: List[Finding] = []
    for source_file in project.src:
        for node in ast.walk(source_file.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        name = getattr(node, "name", "<lambda>")
                        findings.append(
                            Finding(
                                source_file.path,
                                default.lineno,
                                "INV-MUTDEF",
                                f"{name}() has a mutable default argument — "
                                "it is shared across calls",
                            )
                        )
            elif isinstance(node, ast.ExceptHandler) and _swallows_everything(
                node
            ):
                findings.append(
                    Finding(
                        source_file.path,
                        node.lineno,
                        "INV-EXCEPT",
                        "handler swallows every exception — catch ReproError "
                        "or narrower (a failing lookup must propagate)",
                    )
                )
    return findings
