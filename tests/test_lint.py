"""The corpus half of ``python -m repro.analysis``: corpus health, seeded
failures, exit codes, ``--json`` mode and CI annotations.

The corpus and its round-trip check live in
:mod:`repro.analysis.corpus`; the codegen sweep over it in
:func:`repro.analysis.codegen.verify_corpus`.  These tests drive both
through the CLI surface the Makefile and CI use, and prove the sweep
actually *fails* when the printer drifts or codegen emits broken Python
— by seeding exactly those bugs via monkeypatch.
"""

from __future__ import annotations

import json

import repro.analysis.codegen as codegen_mod
import repro.analysis.corpus as corpus_mod
from repro import parse_query
from repro.analysis.__main__ import main
from repro.analysis.codegen import verify_corpus
from repro.analysis.corpus import BUILTIN_CORPUS, check_roundtrip
from repro.exec.compile import GeneratedPlan

#: the corpus-only sweep (no workload optimization, no source linting)
CORPUS_ONLY = ["--skip-workloads", "--skip-invariants"]

JOIN = BUILTIN_CORPUS[0][1]


def test_builtin_corpus_is_clean():
    verified, findings = verify_corpus()
    assert findings == []
    assert verified == len(BUILTIN_CORPUS)


def test_corpus_covers_verifier_constructs():
    names = {name for name, _ in BUILTIN_CORPUS}
    # the guard-dominance shapes the static verifier stresses
    assert {
        "template-shared-relation",
        "guarded-lookup-pair",
        "guarded-lookup-alias",
        "navigation-lookup",
    } <= names


def test_seeded_printer_drift_is_reported(monkeypatch, capsys):
    # a printer that forgets the where-clause: re-parse succeeds but the
    # canonical key (and the parameter list, for templates) drifts
    monkeypatch.setattr(
        corpus_mod, "format_query", lambda query: "select r.A from R r"
    )
    findings = check_roundtrip("join", parse_query(JOIN))
    assert findings and {f.rule for f in findings} == {"RT-DRIFT"}
    assert any("canonical key drifts" in f.message for f in findings)
    template = dict(BUILTIN_CORPUS)["template"]
    assert any(
        "parameter list drifts" in f.message
        for f in check_roundtrip("template", parse_query(template))
    )
    assert main(CORPUS_ONLY) == 1
    assert "RT-DRIFT canonical key drifts" in capsys.readouterr().err


def test_seeded_printer_crash_is_reported(monkeypatch):
    monkeypatch.setattr(
        corpus_mod, "format_query", lambda query: "select from nowhere ("
    )
    (finding,) = check_roundtrip("join", parse_query(JOIN))
    assert finding.rule == "RT-DRIFT"
    assert "printed form does not re-parse" in finding.message


def test_seeded_codegen_syntax_failure_is_reported(monkeypatch, capsys):
    original = codegen_mod.generate_plan

    def sabotaged(query, **kwargs):
        plan = original(query, **kwargs)
        return GeneratedPlan(
            source="def _plan(instance, counters, _params:\n    return []\n",
            metadata=plan.metadata,
        )

    monkeypatch.setattr(codegen_mod, "generate_plan", sabotaged)
    _, findings = verify_corpus()
    # every corpus query hits the sabotaged generator
    assert len(findings) == len(BUILTIN_CORPUS)
    assert {f.rule for f in findings} == {"CG-SYNTAX"}
    assert main(CORPUS_ONLY) == 1
    assert "CG-SYNTAX" in capsys.readouterr().err


def test_source_the_compiler_rejects_is_a_syntax_finding():
    # parses as an AST, but the compiler proper refuses it
    source = "def _plan(instance, instance, _params):\n    return []\n"
    (finding,) = codegen_mod.verify_source(parse_query(JOIN), source)
    assert finding.rule == "CG-SYNTAX"


def test_cli_exit_codes(tmp_path, capsys):
    assert main(CORPUS_ONLY) == 0
    assert "0 finding(s)" in capsys.readouterr().out

    bad = tmp_path / "bad.oql"
    bad.write_text("select struct( from where")
    assert main([*CORPUS_ONLY, str(bad)]) == 1
    captured = capsys.readouterr()
    assert "1 finding(s)" in captured.out
    assert "does not parse" in captured.err

    missing = tmp_path / "nope.oql"
    assert main([*CORPUS_ONLY, str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_cli_json_mode(tmp_path, capsys):
    assert main([*CORPUS_ONLY, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["artifacts_verified"] == len(BUILTIN_CORPUS)

    bad = tmp_path / "bad.oql"
    bad.write_text("select struct( from where")
    assert main([*CORPUS_ONLY, "--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert any("does not parse" in f["message"] for f in payload["findings"])


def test_cli_ci_annotations(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.oql"
    bad.write_text("select struct( from where")

    monkeypatch.delenv("CI", raising=False)
    assert main([*CORPUS_ONLY, str(bad)]) == 1
    assert "::error" not in capsys.readouterr().out

    monkeypatch.setenv("CI", "1")
    assert main([*CORPUS_ONLY, str(bad)]) == 1
    assert "::error ::" in capsys.readouterr().out
