"""The finding model both analysis engines report through.

A :class:`Finding` is one verified-false invariant: the file (or, for the
codegen verifier, a ``<codegen:...>`` pseudo-file naming the plan), the
line in that source, a stable rule id and a one-line message.  The
rendered form is ``file:line: RULE-ID message`` — the same shape
compilers use, so editors and CI annotate it for free.

The one escape hatch is **per-line suppression**, visible at the site:
a trailing ``# repro: ignore[RULE-ID]`` comment (several ids
comma-separated; bare ``# repro: ignore`` mutes every rule) drops
findings on that exact line.  The tree lints clean, and any new finding
fails.
"""

from __future__ import annotations

import io
import json
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

__all__ = [
    "Finding",
    "apply_suppressions",
    "render_github",
    "render_json",
    "render_text",
    "suppressed_lines",
]

#: ``# repro: ignore`` / ``# repro: ignore[INV-MONO, CG-DOM]``
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_\-, ]+)\])?")

#: sentinel rule set meaning "every rule is suppressed on this line"
ALL_RULES = frozenset({"*"})


@dataclass(frozen=True)
class Finding:
    """One statically verified problem."""

    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


# -- suppression -----------------------------------------------------------


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """line number -> rule ids muted there (``ALL_RULES`` for a bare
    ``# repro: ignore``), read from the comments via the tokenizer so
    string literals that merely *contain* the marker do not count."""

    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            if match.group(1) is None:
                rules = set(ALL_RULES)
            else:
                rules = {
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
            out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # an untokenizable file has bigger problems; other rules report
    return out


def apply_suppressions(
    findings: Iterable[Finding], suppressions: Dict[int, Set[str]]
) -> List[Finding]:
    """Findings surviving one file's per-line suppression comments."""

    kept = []
    for finding in findings:
        rules = suppressions.get(finding.line)
        if rules is not None and (finding.rule in rules or rules & ALL_RULES):
            continue
        kept.append(finding)
    return kept


# -- rendering -------------------------------------------------------------


def render_text(findings: Sequence[Finding]) -> str:
    return "\n".join(f.render() for f in findings)


def render_json(
    findings: Sequence[Finding], **extra: object
) -> str:
    payload: Dict[str, object] = {
        "findings": [f.as_dict() for f in findings],
        "count": len(findings),
        "ok": not findings,
    }
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub workflow-command annotations (one ``::error`` per finding).
    Pseudo-files like ``<codegen:...>`` get file-less annotations."""

    lines = []
    for f in findings:
        message = f"{f.rule} {f.message}"
        if f.file.startswith("<"):
            lines.append(f"::error ::{f.file}:{f.line}: {message}")
        else:
            lines.append(f"::error file={f.file},line={f.line}::{message}")
    return "\n".join(lines)


def in_ci() -> bool:
    """Whether GitHub-style annotations should accompany text output."""

    return bool(os.environ.get("CI"))
