"""Static analysis for the reproduction: a verifier for generated plan
code and an invariant linter for the project's own sources.

Two engines, one finding model (:mod:`repro.analysis.findings`):

* :mod:`repro.analysis.codegen` — parses each compiled plan's generated
  source and proves definite assignment, lookup-guard dominance,
  parameter declaration and namespace closure;
* :mod:`repro.analysis.invariants` — AST rules over ``src/repro`` itself
  (see :mod:`repro.analysis.rules`) with per-line suppression as the
  only escape hatch.

``python -m repro.analysis`` runs both; ``make lint`` and CI invoke it.
"""

from repro.analysis.findings import (
    Finding,
    apply_suppressions,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.codegen import (
    verify_artifact,
    verify_corpus,
    verify_query,
    verify_source,
    verify_workload_plans,
)
from repro.analysis.invariants import Project, SourceFile, lint_project, load_project

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "apply_suppressions",
    "lint_project",
    "load_project",
    "render_github",
    "render_json",
    "render_text",
    "verify_artifact",
    "verify_corpus",
    "verify_query",
    "verify_source",
    "verify_workload_plans",
]
