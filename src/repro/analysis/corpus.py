"""The lint corpus and its parser round-trip check.

Home of the query corpus ``python -m repro.analysis`` sweeps: every
entry goes through the print/parse round-trip check below and the
codegen verifier (:func:`repro.analysis.codegen.verify_corpus`).
The corpus covers the whole surface syntax — navigation joins,
dictionary lookups, ``dom``, negative and float literals, ``$name``
template parameters — plus the constructs the static verifier stresses:
multi-parameter templates sharing a relation, lookups under ``dom()``
guards (directly, through an equality alias, and at the end of a
navigation chain).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.findings import Finding
from repro.errors import ReproError
from repro.query.ast import PCQuery
from repro.query.parser import parse_query
from repro.query.printer import format_query

__all__ = ["BUILTIN_CORPUS", "check_roundtrip"]

#: queries exercising every construct the printer has to re-emit and
#: every guard shape the codegen verifier has to prove
BUILTIN_CORPUS: Tuple[Tuple[str, str], ...] = (
    (
        "join",
        "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
    ),
    (
        "path-output",
        "select r.A from R r where r.B = 2",
    ),
    (
        "dict-lookup",
        "select struct(N = I[k].Name) from dom(I) k where k = 3",
    ),
    (
        "navigation",
        'select struct(PN = s, DN = d.DName) from depts d, d.DProjs s '
        'where s = "P1"',
    ),
    (
        "literals",
        "select struct(A = r.A) from R r "
        "where r.A = -2 and r.B = 1.5 and r.C = true and r.D = \"x\"",
    ),
    (
        "template",
        "select struct(A = r.A, C = s.C) from R r, S s "
        "where r.B = s.B and s.C = $c and r.A = $a",
    ),
    (
        "template-dup-param",
        "select struct(A = r.A) from R r, S s "
        "where r.A = $x and s.C = $x and r.B = s.B",
    ),
    (
        # two distinct parameters over the *same* relation scanned twice:
        # the verifier must see both _params reads name declared params
        "template-shared-relation",
        "select struct(A1 = r.A, A2 = s.A) from R r, R s "
        "where r.B = $lo and s.B = $hi and r.A = s.A",
    ),
    (
        # two dom()-guarded lookups whose keys are linked by an equality
        # filter — guard dominance must flow through the alias
        "guarded-lookup-pair",
        "select struct(X = M[j], Y = M[k]) from dom(M) j, dom(M) k "
        "where j = k",
    ),
    (
        # the lookup key is a navigation expression equated to the
        # dom()-bound variable, not the bound variable itself
        "guarded-lookup-alias",
        "select struct(N = I[r.A].Name) from R r, dom(I) k where k = r.A",
    ),
    (
        # a navigation chain ending in a dictionary lookup guarded
        # through the chain's bound variable
        "navigation-lookup",
        "select struct(DN = d.DName, N = I[s].Name) "
        "from depts d, d.DProjs s, dom(I) k where k = s",
    ),
)


def check_roundtrip(name: str, query: PCQuery) -> List[Finding]:
    """``RT-DRIFT`` findings (empty = clean) for one parsed query's
    print → re-parse round trip.  A drift between
    :mod:`repro.query.printer` and :mod:`repro.query.parser` is exactly
    the kind of bug that corrupts the plan cache silently (two spellings
    of one query stop sharing an entry)."""

    label = f"<corpus:{name}>"
    try:
        reparsed = parse_query(format_query(query))
    except ReproError as exc:
        return [
            Finding(
                label, 0, "RT-DRIFT", f"printed form does not re-parse: {exc}"
            )
        ]
    checks = (
        ("canonical key", PCQuery.canonical_key),
        ("template key", PCQuery.template_key),
        ("parameter list", PCQuery.param_names),
    )
    return [
        Finding(label, 0, "RT-DRIFT", f"{what} drifts across print/parse")
        for what, read in checks
        if read(reparsed) != read(query)
    ]
