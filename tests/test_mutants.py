"""The seeded-fault matrix (``tests/mutants.py``) still applies.

``make mutants`` runs weekly, not in ``make check``; a change that edits a
line some row patches would otherwise find out only there.  These checks
read files only: every row's old text occurs exactly once in its file
(the condition the matrix stops on), and every test a row names is
defined where the row says.
"""

from __future__ import annotations

import re

import pytest

from mutants import ROOT, ROWS

NUMBERS = [str(number) for number in range(1, len(ROWS) + 1)]


@pytest.mark.parametrize("row", ROWS, ids=NUMBERS)
def test_the_old_text_occurs_exactly_once(row):
    assert (ROOT / row.path).read_text().count(row.old) == 1, row.fault


@pytest.mark.parametrize("row", ROWS, ids=NUMBERS)
def test_the_named_tests_are_defined(row):
    for test in row.tests:
        path, *scope = re.sub(r"\[.*\]$", "", test).split("::")
        source = (ROOT / path).read_text()
        for name in scope:
            assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), test
