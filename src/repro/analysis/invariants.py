"""The project invariant linter: AST rules over ``src/repro`` itself.

Loads every Python source under ``src/repro``, runs each rule module in
:mod:`repro.analysis.rules`, then applies per-line suppression comments
(``# repro: ignore[RULE-ID]``), the only escape hatch: there is no
baseline.  Findings render as ``file:line: RULE-ID message`` with paths
relative to the repository root, so CI annotations are stable across
checkouts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.analysis.findings import Finding, apply_suppressions, suppressed_lines
from repro.analysis.rules import ALL_RULE_MODULES

__all__ = [
    "Project",
    "SourceFile",
    "lint_project",
    "load_project",
    "project_from_sources",
]


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python source: display path, AST and raw text."""

    path: str
    tree: ast.Module
    source: str


@dataclass
class Project:
    """The lint subject: library sources, and any files that failed to
    parse (reported as findings rather than crashes)."""

    src: List[SourceFile] = field(default_factory=list)
    parse_failures: List[Finding] = field(default_factory=list)


def repo_root() -> Path:
    """``<repo>/`` from this module's location
    (``<repo>/src/repro/analysis/invariants.py``)."""

    return Path(__file__).resolve().parents[3]


def _load_dir(root: Path, directory: Path, project: Project) -> None:
    for path in sorted(directory.rglob("*.py")):
        display = path.relative_to(root).as_posix()
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=display)
        except (OSError, SyntaxError, ValueError) as exc:
            project.parse_failures.append(
                Finding(display, 0, "INV-PARSE", f"cannot parse: {exc}")
            )
            continue
        project.src.append(SourceFile(display, tree, source))


def load_project(root: Optional[Path] = None) -> Project:
    """The shipped tree: ``src/repro``."""

    root = Path(root) if root is not None else repo_root()
    project = Project()
    src_dir = root / "src" / "repro"
    if src_dir.is_dir():
        _load_dir(root, src_dir, project)
    return project


def project_from_sources(src: Mapping[str, str]) -> Project:
    """A synthetic project from in-memory sources (for rule tests)."""

    project = Project()
    for path, text in src.items():
        try:
            project.src.append(SourceFile(path, ast.parse(text), text))
        except SyntaxError as exc:
            project.parse_failures.append(
                Finding(path, 0, "INV-PARSE", f"cannot parse: {exc}")
            )
    return project


def lint_project(project: Optional[Project] = None) -> List[Finding]:
    """All invariant findings surviving per-line suppressions, sorted by
    location — what ``python -m repro.analysis`` reports."""

    if project is None:
        project = load_project()
    findings: List[Finding] = list(project.parse_failures)
    for rule in ALL_RULE_MODULES:
        findings.extend(rule.run(project))

    sources: Dict[str, str] = {f.path: f.source for f in project.src}
    by_file: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_file.setdefault(finding.file, []).append(finding)
    kept: List[Finding] = []
    for path, group in by_file.items():
        source = sources.get(path)
        if source is not None:
            group = apply_suppressions(group, suppressed_lines(source))
        kept.extend(group)
    return sorted(kept, key=lambda f: (f.file, f.line, f.rule, f.message))
