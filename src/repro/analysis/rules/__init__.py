"""Invariant rules the project linter runs over ``src/repro``.

Each rule module exposes ``RULE_IDS`` (the ids it can report), a
``CATALOG`` mapping id -> one-line description (the README rule catalog
is generated from these), and ``run(project) -> List[Finding]``.
"""

from typing import Dict

from repro.analysis.rules import fingerprint, hygiene, monotonic

ALL_RULE_MODULES = (fingerprint, monotonic, hygiene)

RULE_CATALOG: Dict[str, str] = {}
for _module in ALL_RULE_MODULES:
    RULE_CATALOG.update(_module.CATALOG)

__all__ = ["ALL_RULE_MODULES", "RULE_CATALOG"]
