"""The project invariant linter (:mod:`repro.analysis.invariants`) and
the finding plumbing (suppressions, renderers, CLI driver).

Every rule gets a seeded-violation test proving it fires and a nearby
negative proving it stays quiet on the accepted idiom; the shipped tree
itself must lint to zero findings (the property CI gates on).
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis.findings import (
    Finding,
    apply_suppressions,
    render_github,
    render_json,
    render_text,
    suppressed_lines,
)
from repro.analysis.invariants import (
    lint_project,
    load_project,
    project_from_sources,
)


def _rules(findings):
    return [f.rule for f in findings]


# -- the shipped tree lints clean ------------------------------------------


def test_shipped_tree_has_zero_findings():
    project = load_project()
    assert project.src, "expected src/repro sources to load"
    assert project.parse_failures == []
    assert lint_project(project) == []


def test_the_interpreted_pipeline_is_built_run_and_counted_under_exec():
    """EXPLAIN ANALYZE and plan-quality feedback *read* the executing
    path; they do not rebuild it.  Nothing under ``repro/exec`` imports
    them (the tracer import stays), ``compile_query`` is called only
    under ``repro/exec`` — but for ``feedback.level_specs``, which
    compiles a chain to read its shape (``chain(compile_query(...))``)
    and never runs it — and only ``exec/operators.py`` assigns the
    ``counters`` of an object other than ``self`` (an operator's)."""

    def called(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None))

    upward, planner_calls, counter_assignments = [], [], []
    shape_only = set()  # ast.walk is breadth-first: parents come first
    for file in load_project().src:
        under_exec = file.path.startswith("src/repro/exec/")
        for node in ast.walk(file.tree):
            where = f"{file.path}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                imported = []
            if under_exec and any(
                name.startswith(("repro.obs.analyze", "repro.obs.feedback"))
                for name in imported
            ):
                upward.append(where)
            if isinstance(node, ast.Call) and not under_exec:
                if called(node) == "chain":
                    shape_only.update(id(arg) for arg in node.args)
                if called(node) == "compile_query":
                    planner_calls.append((file.path, id(node) in shape_only))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if file.path != "src/repro/exec/operators.py" and any(
                    isinstance(t, ast.Attribute)
                    and t.attr == "counters"
                    and getattr(t.value, "id", None) != "self"
                    for t in targets
                ):
                    counter_assignments.append(where)
    assert upward == []
    assert planner_calls == [("src/repro/obs/feedback.py", True)]
    assert counter_assignments == []


# -- INV-FPR ---------------------------------------------------------------

_FPR_VIOLATION = """
from dataclasses import dataclass, field

@dataclass
class Context:
    strategy: str
    tracer: object = field(compare=False, default=None)

    def fingerprint(self):
        return (self.strategy, self.tracer)
"""


def test_inv_fpr_fires_on_compare_false_read():
    project = project_from_sources({"ctx.py": _FPR_VIOLATION})
    findings = lint_project(project)
    assert _rules(findings) == ["INV-FPR"]
    assert "Context.tracer" in findings[0].message


def test_inv_fpr_quiet_on_compared_fields():
    clean = _FPR_VIOLATION.replace(
        "return (self.strategy, self.tracer)", "return (self.strategy,)"
    )
    assert lint_project(project_from_sources({"ctx.py": clean})) == []


def test_inv_fpr_by_design_exclusions():
    source = """
class OptimizeContext:
    def fingerprint(self):
        return (self.strategy, self.exec_mode)
"""
    findings = lint_project(project_from_sources({"ctx.py": source}))
    assert _rules(findings) == ["INV-FPR"]
    assert "exec_mode" in findings[0].message


# -- INV-MONO --------------------------------------------------------------


def test_inv_mono_fires_on_reset_assignment():
    source = """
class Counter:
    def __init__(self):
        self.value = 0

    def inc(self):
        self.value += 1

    def clear(self):
        self.value = 0
"""
    findings = lint_project(project_from_sources({"metrics.py": source}))
    assert _rules(findings) == ["INV-MONO"]
    assert "clear()" in findings[0].message


def test_inv_mono_fires_on_decrement_anywhere():
    source = """
def rollback(stats):
    stats.cache_hits -= 1
"""
    counters = """
class BackchaseStats:
    cache_hits: int = 0
"""
    findings = lint_project(
        project_from_sources({"a.py": counters, "b.py": source})
    )
    assert _rules(findings) == ["INV-MONO"]
    assert "cache_hits" in findings[0].message


def test_inv_mono_allows_init_reset_and_increment():
    source = """
class CacheStats:
    lookups: int = 0

    def __init__(self):
        self.lookups = 0

    def reset(self):
        self.lookups = 0

    def record(self):
        self.lookups += 1
"""
    assert lint_project(project_from_sources({"stats.py": source})) == []


def test_inv_mono_ignores_unrelated_classes():
    source = """
class Gauge:
    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value
"""
    assert lint_project(project_from_sources({"gauge.py": source})) == []


# -- INV-MUTDEF / INV-EXCEPT ----------------------------------------------


def test_inv_mutdef_fires():
    source = """
def collect(item, acc=[]):
    acc.append(item)
    return acc
"""
    findings = lint_project(project_from_sources({"m.py": source}))
    assert _rules(findings) == ["INV-MUTDEF"]
    assert "collect()" in findings[0].message


def test_inv_mutdef_fires_on_constructor_calls_and_kwonly():
    source = """
def merge(*parts, seen=dict()):
    return seen
"""
    assert _rules(lint_project(project_from_sources({"m.py": source}))) == [
        "INV-MUTDEF"
    ]


def test_inv_mutdef_quiet_on_none_sentinel():
    source = """
def collect(item, acc=None):
    acc = [] if acc is None else acc
    return acc
"""
    assert lint_project(project_from_sources({"m.py": source})) == []


def test_inv_except_fires_on_bare_except():
    source = """
def safe(fn):
    try:
        return fn()
    except:
        return None
"""
    findings = lint_project(project_from_sources({"e.py": source}))
    assert _rules(findings) == ["INV-EXCEPT"]


@pytest.mark.parametrize(
    "caught", ["Exception", "BaseException", "(KeyError, Exception)"]
)
def test_inv_except_fires_on_swallowing_catch_all(caught):
    source = f"""
def safe(fn):
    try:
        return fn()
    except {caught}:
        return None
"""
    findings = lint_project(project_from_sources({"e.py": source}))
    assert _rules(findings) == ["INV-EXCEPT"]


def test_inv_except_quiet_on_catch_all_that_reraises():
    source = """
def logged(fn, log):
    try:
        return fn()
    except Exception as exc:
        log(exc)
        raise
"""
    assert lint_project(project_from_sources({"e.py": source})) == []


def test_inv_except_quiet_on_typed_handler():
    source = """
def safe(fn):
    try:
        return fn()
    except KeyError:
        return None
"""
    assert lint_project(project_from_sources({"e.py": source})) == []


# -- INV-PARSE and suppressions --------------------------------------------


def test_unparsable_source_is_a_finding():
    findings = lint_project(project_from_sources({"broken.py": "def f(:\n"}))
    assert _rules(findings) == ["INV-PARSE"]


def test_per_line_suppression():
    source = """
def collect(item, acc=[]):  # repro: ignore[INV-MUTDEF]
    acc.append(item)
    return acc
"""
    assert lint_project(project_from_sources({"m.py": source})) == []


def test_suppression_is_rule_specific():
    source = """
def collect(item, acc=[]):  # repro: ignore[INV-EXCEPT]
    return acc
"""
    assert _rules(lint_project(project_from_sources({"m.py": source}))) == [
        "INV-MUTDEF"
    ]


def test_bare_suppression_mutes_all_rules():
    source = """
def collect(item, acc=[]):  # repro: ignore
    return acc
"""
    assert lint_project(project_from_sources({"m.py": source})) == []


def test_suppressed_lines_ignores_string_literals():
    source = 'marker = "# repro: ignore[INV-MUTDEF]"\n'
    assert suppressed_lines(source) == {}


def test_apply_suppressions_multiple_ids():
    findings = [
        Finding("f.py", 3, "INV-MUTDEF", "a"),
        Finding("f.py", 3, "INV-EXCEPT", "b"),
        Finding("f.py", 4, "INV-MUTDEF", "c"),
    ]
    kept = apply_suppressions(findings, {3: {"INV-MUTDEF", "INV-EXCEPT"}})
    assert kept == [Finding("f.py", 4, "INV-MUTDEF", "c")]


# -- renderers -------------------------------------------------------------


def test_renderers():
    findings = [
        Finding("src/x.py", 7, "INV-MUTDEF", "boom"),
        Finding("<codegen:rs-winner:hash-join>", 3, "CG-DOM", "bad read"),
    ]
    text = render_text(findings)
    assert "src/x.py:7: INV-MUTDEF boom" in text

    payload = json.loads(render_json(findings, artifacts_verified=4))
    assert payload["count"] == 2
    assert payload["ok"] is False
    assert payload["artifacts_verified"] == 4
    assert payload["findings"][0]["rule"] == "INV-MUTDEF"

    github = render_github(findings)
    assert "::error file=src/x.py,line=7::INV-MUTDEF boom" in github
    # pseudo-files get file-less annotations
    assert "::error ::<codegen:rs-winner:hash-join>:3: CG-DOM bad read" in github


# -- the CLI driver --------------------------------------------------------


def test_cli_clean_run(capsys):
    from repro.analysis.__main__ import main

    assert main(["--skip-workloads"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_json_mode(capsys):
    from repro.analysis.__main__ import main

    assert main(["--skip-workloads", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["artifacts_verified"] > 0
    assert payload["files_linted"] > 0


def test_cli_rule_catalog(capsys):
    """Every rule ``--rules`` prints is documented in the README's static
    analysis section, and the README documents no other: a rule and its
    doc line cannot drift apart."""

    import re

    from repro.analysis.__main__ import main
    from repro.analysis.invariants import repo_root

    assert main(["--rules"]) == 0
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert "CG-LOOKUP" in printed and "INV-MONO" in printed
    readme = (repo_root() / "README.md").read_text()
    documented = set(re.findall(r"`((?:CG|INV|RT)-[A-Z]+)`", readme))
    assert documented == set(printed)


def test_cli_flags_bad_query_file(tmp_path, capsys, monkeypatch):
    from repro.analysis.__main__ import main

    bad = tmp_path / "bad.oql"
    # parses and round-trips, but the plan's lookup is unguarded and no
    # constraint context exists to prove it safe
    bad.write_text("select struct(N = M[r.A]) from R r")
    monkeypatch.setenv("CI", "1")
    code = main(["--skip-workloads", "--skip-invariants", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "CG-LOOKUP" in captured.err
    assert "::error" in captured.out
