"""``python -m repro.analysis`` — run both static-analysis engines.

Sweeps the parser round-trip check and the codegen verifier over the
lint corpus and any ``.oql`` files given on the command line, the
verifier alone over every golden workload's canonical and winning plan;
then runs the invariant rules over ``src/repro``.
Exit status 0 when no finding survives the per-line suppressions, 1
otherwise.

Flags: ``--json`` for machine-readable output, ``--rules`` to print the
rule catalog, ``--skip-codegen`` / ``--skip-invariants`` /
``--skip-workloads`` to narrow the sweep.  With the ``CI`` environment
variable set, findings are echoed as GitHub ``::error`` annotations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.codegen import verify_corpus, verify_workload_plans
from repro.analysis.findings import (
    Finding,
    in_ci,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.invariants import lint_project, load_project

#: codegen rule ids and one-liners (the invariant side carries its own
#: catalog on each rule module)
CODEGEN_CATALOG = {
    "CG-SYNTAX": "generated plan source does not parse or compile",
    "CG-SHAPE": "generated module is not exactly one `def _plan(...)` "
    "within the generator's statement grammar",
    "CG-DOM": "a local may be read before any binding dominates the read",
    "CG-NAME": "a name outside the locals and the restricted exec "
    "namespace is referenced",
    "CG-PARAM": "a _params[...] read does not name a declared template "
    "parameter",
    "CG-LOOKUP": "a failing lookup is not dominated by a dom() guard, "
    "membership check, aliasing filter, or chase proof",
    "CG-LOCAL": "a bound local is missing from the generator's declared "
    "metadata",
    "CG-SITES": "`_lk` call count disagrees with the recorded lookup sites",
    "CG-REFUSED": "codegen refused to emit a plan for a corpus query",
}


def _print_catalog() -> None:
    from repro.analysis.rules import RULE_CATALOG

    catalog = dict(CODEGEN_CATALOG)
    catalog["RT-DRIFT"] = (
        "a corpus query's printed form does not re-parse to the same "
        "canonical key, template key and parameter list"
    )
    catalog["INV-PARSE"] = "a linted source file does not parse"
    catalog.update(RULE_CATALOG)
    for rule in sorted(catalog):
        print(f"{rule}: {catalog[rule]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static verifier for generated plan code + project "
        "invariant linter",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="extra .oql query files to run the codegen verifier over",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--skip-codegen",
        action="store_true",
        help="skip the generated-plan verifier",
    )
    parser.add_argument(
        "--skip-invariants",
        action="store_true",
        help="skip the project invariant rules",
    )
    parser.add_argument(
        "--skip-workloads",
        action="store_true",
        help="skip optimizing the golden workloads (corpus still verified)",
    )
    args = parser.parse_args(argv)

    if args.rules:
        _print_catalog()
        return 0

    findings: List[Finding] = []
    artifacts = 0
    files = 0

    if not args.skip_codegen:
        extra = []
        for path in args.paths:
            try:
                with open(path) as handle:
                    extra.append((path, handle.read()))
            except OSError as exc:
                findings.append(Finding(path, 0, "CG-REFUSED", str(exc)))
        count, corpus_findings = verify_corpus(extra)
        artifacts += count
        findings.extend(corpus_findings)
        if not args.skip_workloads:
            count, workload_findings = verify_workload_plans()
            artifacts += count
            findings.extend(workload_findings)

    if not args.skip_invariants:
        project = load_project()
        files = len(project.src)
        findings.extend(lint_project(project))

    if args.json:
        print(
            render_json(
                findings, artifacts_verified=artifacts, files_linted=files
            )
        )
        return 1 if findings else 0

    if findings:
        print(render_text(findings), file=sys.stderr)
        if in_ci():
            print(render_github(findings))
    print(
        f"analysis: {artifacts} plan artifact(s) verified, "
        f"{files} source file(s) linted, {len(findings)} finding(s)"
    )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
