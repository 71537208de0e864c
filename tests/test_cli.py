"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import load_constraints, main
from repro.model.ddl import PROJDEPT_DDL


@pytest.fixture
def files(tmp_path):
    query = tmp_path / "q.oql"
    query.write_text("select r.A from R r where r.B = 5\n")
    constraints = tmp_path / "c.epcd"
    constraints.write_text(
        "# secondary index on R.B\n"
        "SB1: forall (r in R) -> exists (k in dom(SB), t in SB[k]) "
        "k = r.B and r = t\n"
        "SB2: forall (k in dom(SB), t in SB[k]) -> exists (r in R) "
        "k = r.B and r = t\n"
    )
    ddl = tmp_path / "schema.ddl"
    ddl.write_text(PROJDEPT_DDL)
    return tmp_path, query, constraints, ddl


class TestLoadConstraints:
    def test_named_and_comments(self, files):
        _, _, constraints, _ = files
        deps = load_constraints(str(constraints))
        assert [d.name for d in deps] == ["SB1", "SB2"]

    def test_bad_line_reports_location(self, files, tmp_path):
        bad = tmp_path / "bad.epcd"
        bad.write_text("forall banana\n")
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="bad.epcd:1"):
            load_constraints(str(bad))


class TestCommands:
    def test_optimize(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            [
                "optimize",
                "--query",
                str(query),
                "--constraints",
                str(constraints),
                "--physical",
                "R,SB",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "universal plan" in out
        assert "SB" in out

    def test_optimize_strategy_flag(self, files, capsys):
        _, query, constraints, _ = files
        reports = {}
        for strategy in ("pruned", "full"):
            code = main(
                [
                    "optimize",
                    "--query",
                    str(query),
                    "--constraints",
                    str(constraints),
                    "--physical",
                    "R,SB",
                    "--strategy",
                    strategy,
                ]
            )
            assert code == 0
            reports[strategy] = capsys.readouterr().out
        assert "backchase[pruned]" in reports["pruned"]
        assert "backchase[full]" in reports["full"]
        # both strategies must surface the same winner (the '->' line)
        best = {
            s: next(l for l in out.splitlines() if " -> " in l)
            for s, out in reports.items()
        }
        assert best["pruned"] == best["full"]

    def test_optimize_param_binds_template(self, files, tmp_path, capsys):
        _, _, constraints, _ = files
        template = tmp_path / "t.oql"
        template.write_text("select r.A from R r where r.B = $b\n")
        code = main(
            [
                "optimize",
                "--query",
                str(template),
                "--constraints",
                str(constraints),
                "--physical",
                "R,SB",
                "--param",
                "b=5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "universal plan" in out
        # bound before optimizing: the reported plans carry the constant
        assert "$b" not in out
        assert "SB" in out

    def test_optimize_unbound_template_prompts_for_param(
        self, files, tmp_path, capsys
    ):
        _, _, constraints, _ = files
        template = tmp_path / "t.oql"
        template.write_text("select r.A from R r where r.B = $b\n")
        code = main(
            [
                "optimize",
                "--query",
                str(template),
                "--constraints",
                str(constraints),
                "--physical",
                "R,SB",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "template with parameters $b (bind with --param)" in out
        # the template itself still optimizes ($b is an opaque constant)
        assert "universal plan" in out

    def test_optimize_param_rejects_malformed_binding(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            [
                "optimize",
                "--query",
                str(query),
                "--constraints",
                str(constraints),
                "--param",
                "not-a-binding",
            ]
        )
        assert code == 1
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_chase(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            ["chase", "--query", str(query), "--constraints", str(constraints)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "universal plan:" in out
        assert "chase[SB1]" in out

    def test_minimize(self, files, tmp_path, capsys):
        redundant = tmp_path / "m.oql"
        redundant.write_text(
            "select struct(A = p.A, B = r.B) from R p, R q, R r "
            "where p.B = q.A and q.B = r.B\n"
        )
        code = main(["minimize", "--query", str(redundant)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(" R ") == 2 or "R p, R q" in out.replace("\n", " ")

    def test_check_with_ddl(self, files, capsys):
        _, _, constraints, ddl = files
        code = main(
            ["check", "--ddl", str(ddl), "--constraints", str(constraints)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints OK" in out
        assert "EGD" in out and "TGD" in out

    def test_check_with_class_encoding(self, files, capsys):
        _, _, _, ddl = files
        main(["check", "--ddl", str(ddl)])
        base = capsys.readouterr().out
        main(["check", "--ddl", str(ddl), "--encode-classes"])
        extended = capsys.readouterr().out
        assert int(extended.split()[-3]) > int(base.split()[-3])

    def test_optimize_verbose_prints_counters(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            [
                "optimize",
                "--query",
                str(query),
                "--constraints",
                str(constraints),
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backchase counters:" in out
        for counter in (
            "nodes_visited",
            "candidates_explored",
            "candidates_pruned",
            "cache_hits",
            "cache_misses",
        ):
            assert counter in out
        sections = {
            head: body.split()
            for head, body in re.findall(r"^(\S[^\n]*):\n((?:  .*\n?)+)", out, re.M)
        }
        assert sections["lookup-safety decisions"][::2] == [
            "memo:", "guard:", "inferred:", "chased:"
        ]
        assert sections["containment decisions"][::2] == [
            "subsumed:", "refuted:", "early:", "fixpoint:"
        ]
        assert sections["chase states"][::2] == ["steps:", "stopped:"]

    def test_optimize_cache_reuses_earlier_query(self, files, tmp_path, capsys):
        _, query, _, _ = files
        contained = tmp_path / "q2.oql"
        contained.write_text("select r.A from R r where r.B = 5 and r.A = 1\n")
        code = main(
            [
                "optimize",
                "--cache",
                "--verbose",
                "--query",
                str(query),
                "--query",
                str(contained),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "semantic cache: rewritten onto _SC" in out
        assert "cache counters:" in out
        assert "rewrite_hits: 1" in out
        assert "lookups: 2" in out
        assert "misses: 1" in out

    def test_optimize_cache_counters_over_a_fixed_script(
        self, files, tmp_path, capsys
    ):
        """``--cache`` walks the semantic cache's one tier walk; the
        counters are those of the parent commit (42e568b), where the CLI
        counted the lookup and the miss by hand."""

        _, query, _, _ = files
        contained = tmp_path / "q2.oql"
        contained.write_text("select r.A from R r where r.B = 5 and r.A = 1\n")
        other = tmp_path / "q3.oql"
        other.write_text("select s.C from S s where s.B = 1\n")
        argv = ["optimize", "--cache", "--verbose", "--hybrid"]
        for path in (query, contained, query, other):
            argv += ["--query", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        counters = out[out.index("cache counters:"):].split()[2:]
        assert dict(zip(counters[::2], counters[1::2])) == {
            "lookups:": "4", "exact_hits:": "0", "rewrite_hits:": "2",
            "hybrid_hits:": "0", "misses:": "2", "rewrite_attempts:": "2",
            "rewrite_failures:": "0", "registrations:": "2", "rejected:": "0",
            "evictions:": "0", "invalidations:": "0", "benefit_accrued:": "0.0",
        }

    def test_optimize_without_cache_never_mentions_cache(self, files, capsys):
        _, query, constraints, _ = files
        main(["optimize", "--query", str(query), "--constraints", str(constraints)])
        out = capsys.readouterr().out
        assert "semantic cache" not in out

    def test_missing_file_is_error(self, capsys):
        code = main(["optimize", "--query", "/nonexistent/q.oql"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_error(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.oql"
        bad.write_text("select from nothing\n")
        code = main(["minimize", "--query", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeRepl:
    def _run(self, monkeypatch, capsys, lines, argv=None):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(l + "\n" for l in lines)))
        code = main(["serve-repl", "--workload", "rs"] + (argv or []))
        assert code == 0
        return capsys.readouterr().out

    def test_cold_exact_rewrite_flow(self, monkeypatch, capsys):
        join = (
            "select struct(A = r.A, B = s.B, C = s.C) from R r, S s "
            "where r.B = s.B"
        )
        contained = (
            "select struct(A = r.A) from R r, S s where r.B = s.B and s.C = 3"
        )
        # --no-hybrid pins the all-or-nothing rewrite tier: in hybrid mode
        # the optimizer may (correctly) prefer a base plan here.
        out = self._run(
            monkeypatch,
            capsys,
            [join, join, contained, ".stats", ".views", ".quit"],
            argv=["--no-hybrid"],
        )
        assert "[cold]" in out
        assert "[exact via _SC" in out
        assert "[rewrite via _SC" in out
        assert "exact_hits=1" in out
        assert "rewrite_hits=1" in out
        assert "tuples" in out  # .views listing
        assert out.strip().endswith("bye")

    def test_hybrid_flow_serves_partial_hit(self, monkeypatch, capsys):
        # Warm with a selective selection on R, then join its result with
        # base S: only the hybrid tier can serve this (the R-part is cached,
        # S is not), and the mode is reported both at startup and per query.
        warm = "select struct(A = r.A, B = r.B) from R r where r.A = 1"
        partial = (
            "select struct(A = r.A, C = s.C) from R r, S s "
            "where r.B = s.B and r.A = 1"
        )
        out = self._run(
            monkeypatch, capsys, [warm, partial, ".stats", ".quit"]
        )
        assert "semantic cache enabled (hybrid)" in out
        assert "[hybrid via _SC" in out
        assert "hybrid_hits=1" in out
        view_only = self._run(
            monkeypatch, capsys, [warm, partial, ".quit"], argv=["--no-hybrid"]
        )
        assert "semantic cache enabled (view-only)" in view_only
        assert "[hybrid" not in view_only

    def test_no_cache_flag_serves_cold_only(self, monkeypatch, capsys):
        query = "select struct(B = s.B) from S s"
        out = self._run(monkeypatch, capsys, [query, query], argv=["--no-cache"])
        assert out.count("[cold]") == 2
        assert "semantic cache disabled" in out

    def test_bad_query_keeps_serving(self, monkeypatch, capsys):
        out = self._run(
            monkeypatch,
            capsys,
            ["select banana", "select struct(B = s.B) from S s", ".quit"],
        )
        assert "error:" in out
        assert "[cold]" in out

    def test_help_and_eof(self, monkeypatch, capsys):
        out = self._run(monkeypatch, capsys, [".help"])
        assert ".stats" in out
        assert "bye" in out

    def test_stats_renders_the_full_metrics_registry(self, monkeypatch, capsys):
        # .stats and \metrics are the same surface: the registry snapshot
        # with the plan-cache and semantic-cache legacy families as sources.
        out = self._run(monkeypatch, capsys, [".stats", ".quit"])
        assert "plan_cache: hits=0, misses=0" in out
        assert "invalidations=0" in out
        assert "semcache: lookups=0" in out
        assert "slow queries" in out

    def test_metrics_command_matches_stats(self, monkeypatch, capsys):
        query = "select struct(B = s.B) from S s"
        out = self._run(monkeypatch, capsys, [query, "\\metrics", ".quit"])
        assert "semcache: lookups=1" in out
        assert "plan_cache:" in out

    def test_timing_toggles_request_traces(self, monkeypatch, capsys):
        query = "select struct(B = s.B) from S s"
        out = self._run(
            monkeypatch,
            capsys,
            [query, "\\timing", query, "\\timing", query, ".quit"],
        )
        assert "timing on" in out and "timing off" in out
        # exactly the traced request prints a timeline
        assert out.count("query report (request") == 1
        assert "session.run" in out
        assert "semcache.exact" in out  # the repeat hit the exact tier

    def test_set_binds_template_parameters(self, monkeypatch, capsys):
        template = (
            "select struct(A = r.A) from R r, S s "
            "where r.B = s.B and s.C = $c"
        )
        out = self._run(
            monkeypatch,
            capsys,
            [
                template,  # unbound: must error, not crash the loop
                "\\set c 3",
                "\\set",  # listing shows the binding
                template,  # cold execution under c=3
                template,  # exact hit for the same (template, binding)
                "\\unset c",
                template,  # unbound again after \unset
                ".quit",
            ],
        )
        assert out.count("error:") == 2
        assert "unbound parameter" in out
        assert "$c = 3" in out
        assert "[cold]" in out
        assert "[exact via _SC" in out

    def test_set_usage_errors_keep_serving(self, monkeypatch, capsys):
        out = self._run(
            monkeypatch,
            capsys,
            ["\\set c", "\\unset", "\\set", ".quit"],
        )
        assert "usage: \\set NAME VALUE" in out
        assert "usage: \\unset NAME" in out
        assert "(no bindings)" in out


class TestTune:
    def test_tune_reports_a_design(self, capsys):
        code = main(["tune", "--workload", "rs", "--budget", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "physical design advisor" in out
        assert "chosen design" in out
        assert "total estimated workload cost" in out
        # the rs canonical query (R join S) admits an advisor structure
        assert "ADV_" in out

    def test_tune_apply_installs_and_reruns(self, tmp_path, capsys):
        query = tmp_path / "q.oql"
        query.write_text(
            "select struct(A = r.A, B = s.B, C = s.C) from R r, S s "
            "where r.B = s.B"
        )
        code = main(
            [
                "tune",
                "--workload",
                "rs",
                "--query",
                str(query),
                "--budget",
                "1",
                "--sample",
                "100",
                "--apply",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "installed: ADV_" in out
        assert "rows in" in out

    def test_tune_zero_budget_reports_empty_design(self, capsys):
        code = main(["tune", "--workload", "rs", "--max-tuples", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "empty — no candidate beat the current design" in out


class TestOptimizeAnalyze:
    def test_workload_analyze_prints_operator_table(self, tmp_path, capsys):
        query = tmp_path / "q.oql"
        query.write_text(
            "select struct(A = r.A) from R r, S s where r.B = s.B\n"
        )
        code = main(
            ["optimize", "--query", str(query), "--workload", "rs", "--analyze"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "universal plan" in out  # the optimize report still prints
        assert "EXPLAIN ANALYZE" in out
        assert "est rows" in out and "self ms" in out
        # the workload's statistics inform the estimates (no bare '-')
        assert "estimated cost" in out

    def test_workload_defaults_to_the_canonical_query(self, capsys):
        code = main(["optimize", "--workload", "rs", "--analyze"])
        assert code == 0
        out = capsys.readouterr().out
        assert "universal plan" in out
        assert "EXPLAIN ANALYZE" in out

    def test_query_still_required_without_a_workload(self, capsys):
        code = main(["optimize"])
        assert code == 1
        assert "--query is required" in capsys.readouterr().err

    def test_analyze_requires_a_workload(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            [
                "optimize",
                "--query",
                str(query),
                "--constraints",
                str(constraints),
                "--analyze",
            ]
        )
        assert code == 1
        assert "--workload" in capsys.readouterr().err

    def test_workload_rejects_schema_files(self, files, capsys):
        _, query, constraints, _ = files
        code = main(
            [
                "optimize",
                "--query",
                str(query),
                "--constraints",
                str(constraints),
                "--workload",
                "rs",
            ]
        )
        assert code == 1
        assert "drop --ddl/--constraints/--physical" in capsys.readouterr().err


class TestMetricsCommand:
    def test_default_mix_renders_registry_and_slow_log(self, capsys):
        code = main(["metrics", "--workload", "rs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "semcache: lookups=2" in out  # --repeat defaults to 2
        assert "exact_hits=1" in out  # the second pass hit the cache
        assert "plan_cache:" in out
        assert "query.parse_cache: hits=" in out
        assert "slow queries" in out

    def test_json_snapshot_parses(self, capsys):
        import json

        code = main(["metrics", "--workload", "rs", "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) >= {"counters", "sources", "slow_queries", "tracing"}
        assert snap["sources"]["semcache"]["exact_hits"] == 1
        assert snap["tracing"]["enabled"] is False

    def test_trace_prints_the_request_timeline(self, capsys):
        code = main(["metrics", "--workload", "rs", "--trace", "--repeat", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "query report (request" in out
        assert "session.run" in out
        assert "latency.session.run" in out  # span feed → histograms

    def test_query_files_and_params(self, tmp_path, capsys):
        template = tmp_path / "t.oql"
        template.write_text("select r.A from R r where r.B = $b\n")
        code = main(
            [
                "metrics",
                "--workload",
                "rs",
                "--query",
                str(template),
                "--param",
                "b=3",
                "--repeat",
                "1",
            ]
        )
        assert code == 0
        assert "semcache: lookups=1" in capsys.readouterr().out
