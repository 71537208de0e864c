"""Static golden-file freshness check (a ``make lint`` gate).

The golden suite (``tests/test_golden_plans.py`` /
``tests/test_advisor.py``) only fails when it *runs* — which the fast
lint gate never does.  That leaves a gap: someone adds a workload case
or a snapshot field to the test, forgets ``make golden``, and the stale
``tests/golden/plans.json`` sits green until the next full ``make
check``.  This checker closes the gap **statically**: it reads the
expected shape out of the suite's AST (the ``GOLDEN_WORKLOADS`` keys in
``conftest.py``, the test module's ``STRATEGIES`` tuple and
``snapshot_entry()`` field names) and compares it against the committed JSON — no optimizer run, so it is
cheap enough for every lint invocation.

Checks:

* every ``GOLDEN_WORKLOADS`` case appears in ``plans.json`` with every
  strategy of ``STRATEGIES``, and nothing extra is committed;
* each per-strategy entry carries exactly the ``snapshot_entry()``
  fields — a field added to the test without regenerating (or left
  behind in the JSON after a removal) fails here;
* ``paper_examples`` holds P1–P4 with the locked sub-keys;
* the advisor snapshot ``tests/golden/advisor_rs.txt`` exists and is
  non-empty.

Exit status: 0 when fresh, 1 with one line per problem (``::error``
annotations under CI).  Shape drift means: run ``make golden`` and
review the diff.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
PLANS_TEST = TESTS_DIR / "test_golden_plans.py"
CONFTEST = TESTS_DIR / "conftest.py"
PLANS_JSON = GOLDEN_DIR / "plans.json"
ADVISOR_TXT = GOLDEN_DIR / "advisor_rs.txt"

PAPER_EXAMPLES = ("P1", "P2", "P3", "P4")
PAPER_EXAMPLE_FIELDS = {"key", "in_full_plan_space"}


def _function(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _assigned(tree: ast.Module, name: str) -> Optional[ast.expr]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    return None


def _returned_dict(fn: ast.FunctionDef) -> Optional[ast.Dict]:
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            return node.value
    return None


def _str_keys(node: ast.Dict) -> List[str]:
    out = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append(key.value)
    return out


def expected_shape(
    source: str, conftest_source: str
) -> Tuple[Sequence[str], Sequence[str], Sequence[str]]:
    """(case names, strategies, snapshot fields) read from the ASTs of the
    test module and of the conftest that fixes the golden workloads."""

    tree = ast.parse(source)
    cases: List[str] = []
    strategies: List[str] = []
    fields: List[str] = []
    value = _assigned(tree, "STRATEGIES")
    if isinstance(value, (ast.Tuple, ast.List)):
        strategies = [
            el.value
            for el in value.elts
            if isinstance(el, ast.Constant) and isinstance(el.value, str)
        ]
    workloads = _assigned(ast.parse(conftest_source), "GOLDEN_WORKLOADS")
    if isinstance(workloads, ast.Dict):
        cases = _str_keys(workloads)
    snapshot = _function(tree, "snapshot_entry")
    if snapshot is not None:
        returned = _returned_dict(snapshot)
        if returned is not None:
            fields = _str_keys(returned)
    return cases, strategies, fields


def check_plans(problems: List[str]) -> None:
    if not PLANS_TEST.exists():
        problems.append(f"{PLANS_TEST}: golden test module missing")
        return
    cases, strategies, fields = expected_shape(
        PLANS_TEST.read_text(), CONFTEST.read_text()
    )
    if not cases or not strategies or not fields:
        problems.append(
            f"{PLANS_TEST}: could not read GOLDEN_WORKLOADS/STRATEGIES/"
            "snapshot_entry() shape from the AST (checker needs updating?)"
        )
        return
    if not PLANS_JSON.exists():
        problems.append(f"{PLANS_JSON}: missing — generate with `make golden`")
        return
    try:
        golden = json.loads(PLANS_JSON.read_text())
    except ValueError as exc:
        problems.append(f"{PLANS_JSON}: unparseable JSON ({exc})")
        return
    expected_cases = set(cases) | {"paper_examples"}
    for case in cases:
        entry = golden.get(case)
        if not isinstance(entry, dict):
            problems.append(
                f"{PLANS_JSON}: case {case!r} missing (run `make golden`)"
            )
            continue
        for strategy in strategies:
            snap = entry.get(strategy)
            if not isinstance(snap, dict):
                problems.append(
                    f"{PLANS_JSON}: {case}/{strategy} missing "
                    "(run `make golden`)"
                )
                continue
            missing = set(fields) - set(snap)
            extra = set(snap) - set(fields)
            if missing:
                problems.append(
                    f"{PLANS_JSON}: {case}/{strategy} lacks snapshot "
                    f"field(s) {sorted(missing)} — stale, run `make golden`"
                )
            if extra:
                problems.append(
                    f"{PLANS_JSON}: {case}/{strategy} carries field(s) "
                    f"{sorted(extra)} the test no longer snapshots — "
                    "stale, run `make golden`"
                )
        extra_strategies = set(entry) - set(strategies)
        if extra_strategies:
            problems.append(
                f"{PLANS_JSON}: {case} carries stale strategy entries "
                f"{sorted(extra_strategies)}"
            )
    examples = golden.get("paper_examples")
    if not isinstance(examples, dict) or set(examples) != set(PAPER_EXAMPLES):
        problems.append(
            f"{PLANS_JSON}: paper_examples must hold exactly "
            f"{list(PAPER_EXAMPLES)} (run `make golden`)"
        )
    else:
        for name, snap in examples.items():
            if set(snap) != PAPER_EXAMPLE_FIELDS:
                problems.append(
                    f"{PLANS_JSON}: paper_examples/{name} fields "
                    f"{sorted(snap)} != {sorted(PAPER_EXAMPLE_FIELDS)}"
                )
    stale_cases = set(golden) - expected_cases
    if stale_cases:
        problems.append(
            f"{PLANS_JSON}: stale case(s) {sorted(stale_cases)} not in "
            "GOLDEN_WORKLOADS — run `make golden`"
        )


def check_advisor(problems: List[str]) -> None:
    if not ADVISOR_TXT.exists():
        problems.append(
            f"{ADVISOR_TXT}: missing — generate with `make golden`"
        )
    elif not ADVISOR_TXT.read_text().strip():
        problems.append(f"{ADVISOR_TXT}: empty — regenerate with `make golden`")


def main() -> int:
    problems: List[str] = []
    check_plans(problems)
    check_advisor(problems)
    for problem in problems:
        if os.environ.get("CI"):
            print(f"::error::{problem}")
        else:
            print(problem, file=sys.stderr)
    if problems:
        print(
            f"golden freshness: {len(problems)} problem(s)", file=sys.stderr
        )
        return 1
    print("golden freshness: plans.json and advisor_rs.txt match the suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
