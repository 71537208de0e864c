"""Reference readings of a path's structure, the test side of the fields
``src/`` stores on every interned node.

Each node carries its children, its congruence operator and its
``path_sort_key`` order as fields, filled once when it is created
(``repro.query.paths``).  The functions below recover the same facts the
way they used to be recovered on every call — by walking ``isinstance``
ladders over the node classes — and ``tests/test_paths.py`` holds the
fields to them.
"""

from __future__ import annotations

from repro.query.paths import Attr, Dom, Lookup, NFLookup, Var


def children(path):
    """Immediate subterms of a path (empty for leaves)."""

    if isinstance(path, Attr):
        return (path.base,)
    if isinstance(path, Dom):
        return (path.base,)
    if isinstance(path, (Lookup, NFLookup)):
        return (path.base, path.key)
    return ()


def signature_op(term):
    """The uninterpreted operator of a composite term."""

    if isinstance(term, Attr):
        return ("attr", term.attr)
    if isinstance(term, Dom):
        return ("dom",)
    if isinstance(term, Lookup):
        return ("lookup",)
    if isinstance(term, NFLookup):
        # Non-failing and failing lookups are congruent when defined; for
        # term reasoning they are the same operator.
        return ("lookup",)
    return ()


def head(term):
    """What a term is matched by: its operator, the atom itself (schema
    name, constant), or one shared symbol for every variable."""

    return Var if isinstance(term, Var) else signature_op(term) or term


def size(path) -> int:
    return 1 + sum(size(child) for child in children(path))


def path_sort_key(path):
    """Size, then rendered text."""

    return (size(path), str(path))


def rebuild(path, new_children):
    """Reassemble a composite path with replaced children."""

    if isinstance(path, Attr):
        return Attr(new_children[0], path.attr)
    if isinstance(path, Dom):
        return Dom(new_children[0])
    if isinstance(path, Lookup):
        return Lookup(new_children[0], new_children[1])
    if isinstance(path, NFLookup):
        return NFLookup(new_children[0], new_children[1])
    return path
