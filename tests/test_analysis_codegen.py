"""The static codegen verifier (:mod:`repro.analysis.codegen`).

Four layers:

* sweep health — every lint-corpus query and every golden workload's
  canonical + winning plan verifies clean (the same sweep ``python -m repro.analysis`` gates CI on);
* seeded violations — each rule (CG-SYNTAX, CG-SHAPE, CG-DOM, CG-NAME,
  CG-PARAM, CG-LOOKUP, CG-LOCAL, CG-SITES) fires on a source crafted to
  break exactly it, and the guard-dominance machinery (dom loops,
  membership checks, equality aliasing, the chase fallback) accepts
  exactly the safe shapes;
* the counter-init regression — re-seeding the historical bug (a
  counter bumped before its initialization: here ``_tuples += 1`` in the
  scan loop, the inits moved past the loops) trips CG-DOM, proving the
  verifier would have caught it at lint time (and the subset
  :func:`verify_artifact`, which the suite's own hook runs over every
  artifact it compiles, catches it too).
"""

from __future__ import annotations

import dataclasses

import repro.exec.compile as compile_mod
from repro.analysis.codegen import (
    verify_artifact,
    verify_corpus,
    verify_query,
    verify_source,
    verify_workload_plans,
)
from repro.api.workloads import WORKLOAD_NAMES, build_workload
from repro.chase.chase import ChaseEngine
from repro.exec.compile import PlanCompilationError, generate_plan
from repro.optimizer.optimizer import Optimizer
from repro.query.parser import parse_query

JOIN = "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B"


def _winner(workload):
    optimizer = Optimizer(
        workload.constraints,
        physical_names=workload.physical_names,
        statistics=workload.statistics,
    )
    return optimizer.optimize(workload.query).best.query


# -- sweep health ----------------------------------------------------------


def test_corpus_sweep_is_clean():
    verified, findings = verify_corpus()
    assert findings == []
    # every corpus entry
    from repro.analysis.corpus import BUILTIN_CORPUS

    assert verified == len(BUILTIN_CORPUS)


def test_workload_sweep_is_clean(optimized_workloads):
    # The shallow workloads go through the linter's own sweep, which builds
    # and optimizes them inside src/.  ProjDept's deep search is what `make
    # lint` runs that sweep for; here its canonical query and winner come
    # from the test run's one shared optimization, verified the same way.
    verified, findings = verify_workload_plans(
        [name for name in WORKLOAD_NAMES if name != "projdept"]
    )
    projdept = optimized_workloads.workload("projdept")
    engine = ChaseEngine(projdept.constraints)
    for label, query in (
        ("projdept-canonical", projdept.query),
        ("projdept-winner", optimized_workloads.winner("projdept")),
        ("projdept-structure-JI", projdept.join_view.definition),
    ):
        count, query_findings = verify_query(query, label=label, engine=engine)
        verified += count
        findings.extend(query_findings)
    assert findings == []
    # 4 workloads x (canonical + winner), plus the structures they
    # materialize: rs's V, projdept's JI, oo_asr's ASR
    assert verified == 11


def test_guarded_lookup_corpus_entries_emit_failing_lookups():
    # the guard-dominance corpus entries are only a meaningful gate if
    # their plans really contain failing `_lk` lookups to prove safe
    for text in (
        "select struct(X = M[j], Y = M[k]) from dom(M) j, dom(M) k "
        "where j = k",
        "select struct(N = I[r.A].Name) from R r, dom(I) k where k = r.A",
    ):
        plan = generate_plan(parse_query(text))
        assert plan.metadata.lookup_sites
        assert "_lk(" in plan.source


# -- seeded violations, rule by rule ---------------------------------------


def test_cg_syntax():
    findings = verify_source(None, "def _plan(:\n")
    assert [f.rule for f in findings] == ["CG-SYNTAX"]


def test_cg_shape_wrong_toplevel():
    findings = verify_source(None, "def other():\n    return []\n")
    assert [f.rule for f in findings] == ["CG-SHAPE"]
    findings = verify_source(
        None, "x = 1\ndef _plan(instance, counters, _params):\n    return []\n"
    )
    assert [f.rule for f in findings] == ["CG-SHAPE"]


def test_cg_shape_statement_grammar():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    import os\n"
        "    return []\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-SHAPE" and "Import" in f.message for f in findings)


def test_cg_dom_read_before_assignment():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    _out = _tmp\n"
        "    _tmp = []\n"
        "    return _out\n"
    )
    findings = verify_source(None, source)
    assert any(
        f.rule == "CG-DOM" and "'_tmp'" in f.message for f in findings
    )


def test_cg_dom_augmented_before_init():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    _hash_builds += 1\n"
        "    _hash_builds = 0\n"
        "    return []\n"
    )
    findings = verify_source(None, source)
    assert any(
        f.rule == "CG-DOM" and "_hash_builds" in f.message for f in findings
    )


def test_cg_dom_loop_body_binding_is_not_definite():
    # a for-loop may run zero times: a name bound only in its body is
    # not definitely assigned after the loop
    source = (
        "def _plan(instance, counters, _params):\n"
        "    for _v0 in range(0):\n"
        "        _last = _v0\n"
        "    return [_last]\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-DOM" and "'_last'" in f.message for f in findings)


def test_cg_dom_branch_join_is_intersection():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    if len(_params) > 0:\n"
        "        _x = 1\n"
        "    else:\n"
        "        _y = 2\n"
        "    return [_x]\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-DOM" and "'_x'" in f.message for f in findings)

    # ...but a binding in *both* branches is definite
    clean = (
        "def _plan(instance, counters, _params):\n"
        "    if len(_params) > 0:\n"
        "        _x = 1\n"
        "    else:\n"
        "        _x = 2\n"
        "    return [_x]\n"
    )
    assert verify_source(None, clean) == []


def test_cg_dom_terminated_branch_does_not_poison_join():
    # `if ...: return []` — the fall-through keeps the pre-branch state
    source = (
        "def _plan(instance, counters, _params):\n"
        "    _out = []\n"
        "    if len(_out) > 0:\n"
        "        return _out\n"
        "    _x = 1\n"
        "    return [_x]\n"
    )
    assert verify_source(None, source) == []


def test_cg_name_outside_namespace():
    findings = verify_source(
        None, "def _plan(instance, counters, _params):\n    return open('x')\n"
    )
    assert any(f.rule == "CG-NAME" and "'open'" in f.message for f in findings)


def test_cg_name_accepts_namespace_and_const_globals():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    return frozenset([len(range(2)), _k0])\n"
    )
    assert verify_source(None, source) == []


def test_cg_param_undeclared():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    _p0 = _params['missing']\n"
        "    return [_p0]\n"
    )
    findings = verify_source(None, source)
    assert any(
        f.rule == "CG-PARAM" and "'missing'" in f.message for f in findings
    )
    # the same read against a query declaring the parameter is clean
    query = parse_query(
        "select struct(A = r.A) from R r where r.A = $missing"
    )
    assert verify_source(query, source) == []


def test_cg_param_non_literal_key():
    source = (
        "def _plan(instance, counters, _params):\n"
        "    for _v0 in _params:\n"
        "        _p = _params[_v0]\n"
        "    return []\n"
    )
    findings = verify_source(None, source)
    assert any(
        f.rule == "CG-PARAM" and "not a string literal" in f.message
        for f in findings
    )


_LOOKUP_HELPERS = (
    "    def _lk(value, key, where):\n"
    "        return value.lookup(key)\n"
    "    def _dom(value, where):\n"
    "        return value.domain()\n"
    "    def _setof(value, message):\n"
    "        return value\n"
)


def test_cg_lookup_unguarded():
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['M']\n"
        "    return [_lk(_s0, _k0, 'M')]\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-LOOKUP" for f in findings)


def test_cg_lookup_dom_guard_accepted():
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['M']\n"
        "    _out = []\n"
        "    for _v0 in _setof(_dom(_s0, 'dom(M)'), 'msg'):\n"
        "        _out.append(_lk(_s0, _v0, 'M'))\n"
        "    return _out\n"
    )
    assert verify_source(None, source) == []


def test_cg_lookup_guard_is_base_sensitive():
    # a dom() guard over a *different* dictionary does not justify the
    # lookup
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['M']\n"
        "    _s1 = instance['N']\n"
        "    _out = []\n"
        "    for _v0 in _setof(_dom(_s1, 'dom(N)'), 'msg'):\n"
        "        _out.append(_lk(_s0, _v0, 'M'))\n"
        "    return _out\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-LOOKUP" for f in findings)


def test_cg_lookup_membership_guard_accepted():
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['M']\n"
        "    _out = []\n"
        "    for _v0 in range(3):\n"
        "        if _v0 not in _s0:\n"
        "            continue\n"
        "        _out.append(_lk(_s0, _v0, 'M'))\n"
        "    return _out\n"
    )
    assert verify_source(None, source) == []


def test_cg_lookup_alias_guard_accepted():
    # the shape the planner emits for `... dom(I) k where k = r.A`:
    # the guard binds _v1, an equality filter aliases it to the key
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['I']\n"
        "    _out = []\n"
        "    for _v0 in range(3):\n"
        "        for _v1 in _setof(_dom(_s0, 'dom(I)'), 'msg'):\n"
        "            if (_v1) != (_v0):\n"
        "                continue\n"
        "            _out.append(_lk(_s0, _v0, 'I'))\n"
        "    return _out\n"
    )
    assert verify_source(None, source) == []


def test_cg_lookup_alias_is_flow_sensitive():
    # the same equality filter *without* `continue` proves nothing on
    # the fall-through path
    source = (
        "def _plan(instance, counters, _params):\n"
        + _LOOKUP_HELPERS
        + "    _s0 = instance['I']\n"
        "    _out = []\n"
        "    for _v0 in range(3):\n"
        "        for _v1 in _setof(_dom(_s0, 'dom(I)'), 'msg'):\n"
        "            if (_v1) != (_v0):\n"
        "                _out.append([])\n"
        "            _out.append(_lk(_s0, _v0, 'I'))\n"
        "    return _out\n"
    )
    findings = verify_source(None, source)
    assert any(f.rule == "CG-LOOKUP" for f in findings)


def test_cg_lookup_chase_fallback():
    # the rs winner keeps a failing lookup with no syntactic guard: the
    # backchase proved it safe from the key constraints.  Without the
    # constraint context the verifier must flag it; with the workload's
    # engine the chase proof clears it.
    workload = build_workload("rs")
    winner = _winner(workload)
    plan = generate_plan(winner)
    assert plan.metadata.lookup_sites  # the premise: an unguarded _lk

    unassisted = verify_source(winner, plan.source, plan.metadata)
    assert any(f.rule == "CG-LOOKUP" for f in unassisted)

    engine = ChaseEngine(workload.constraints)
    assisted = verify_source(
        winner, plan.source, plan.metadata, engine=engine
    )
    assert assisted == []


def test_cg_local_metadata_drift():
    plan = generate_plan(parse_query(JOIN))
    some_local = next(
        name for name in plan.metadata.locals if name.startswith("_v")
    )
    broken = dataclasses.replace(
        plan.metadata,
        locals=frozenset(plan.metadata.locals - {some_local}),
    )
    findings = verify_source(None, plan.source, broken)
    assert any(
        f.rule == "CG-LOCAL" and repr(some_local) in f.message
        for f in findings
    )


def test_cg_sites_metadata_drift():
    query = parse_query(
        "select struct(N = I[k].Name) from dom(I) k where k = 3"
    )
    plan = generate_plan(query)
    assert plan.metadata.lookup_sites
    broken = dataclasses.replace(plan.metadata, lookup_sites=())
    findings = verify_source(query, plan.source, broken)
    assert any(f.rule == "CG-SITES" for f in findings)


def test_verify_query_reports_refusals():
    class Unplannable:
        def param_names(self):
            return ()

    def refuse(query, **flags):
        raise PlanCompilationError("nope")

    original = compile_mod.generate_plan
    compile_mod.generate_plan = refuse
    try:
        import repro.analysis.codegen as codegen_mod

        saved = codegen_mod.generate_plan
        codegen_mod.generate_plan = refuse
        try:
            verified, findings = verify_query(Unplannable(), label="x")
        finally:
            codegen_mod.generate_plan = saved
    finally:
        compile_mod.generate_plan = original
    assert verified == 0
    assert [f.rule for f in findings] == ["CG-REFUSED"]


# -- the PR 8 counter-init regression --------------------------------------


def _move_counter_inits_past_the_loops(monkeypatch):
    """Re-seed the historical bug: counter initializations emitted
    *after* the code that bumps them, so the scan loop's
    ``_tuples += 1`` runs on an unbound local."""

    original = compile_mod._CodeGen._assemble
    counter_block = ["    _tuples = 0", "    _probes = 0", "    _filtered = 0"]

    def bad_assemble(self):
        lines = original(self).split("\n")
        for line in counter_block:
            lines.remove(line)
        anchor = lines.index("    counters.tuples += _tuples")
        lines[anchor:anchor] = counter_block
        return "\n".join(lines)

    monkeypatch.setattr(compile_mod._CodeGen, "_assemble", bad_assemble)


def test_reintroduced_counter_init_bug_is_flagged(monkeypatch):
    _move_counter_inits_past_the_loops(monkeypatch)
    query = parse_query(JOIN)
    plan = generate_plan(query)
    assert "_tuples += 1" in plan.source.split("_tuples = 0")[0]

    findings = verify_source(query, plan.source, plan.metadata)
    assert any(
        f.rule == "CG-DOM" and "_tuples" in f.message for f in findings
    ), [f.render() for f in findings]
    # the structural subset the suite's hook runs catches it too
    assert any(
        f.rule == "CG-DOM"
        for f in verify_artifact(query, plan.source, plan.metadata)
    )


def test_correct_emission_passes():
    query = parse_query(JOIN)
    plan = generate_plan(query)
    assert verify_source(query, plan.source, plan.metadata) == []


def test_correct_emission_passes_for_feedback_artifacts():
    # the feedback variant adds per-level row counters and the ``_fb``
    # out-parameter; the sweeps above verify the silent variant only
    query = parse_query(JOIN)
    plan = generate_plan(query, feedback=True)
    assert "_fb" in plan.source
    assert verify_source(query, plan.source, plan.metadata) == []
