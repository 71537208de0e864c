"""Parser for the OQL-ish concrete syntax of PC queries and constraints.

Queries::

    select struct(PN = s, PB = p.Budg, DN = d.DName)
    from depts d, d.DProjs s, Proj p
    where s = p.PName and p.CustName = "CitiBank"

Both OQL binding orders are accepted: ``Proj p`` and ``p in Proj``.

Constraints (EPCDs)::

    forall (p in Proj) -> exists (i in dom(I)) i = p.PName and I[i] = p
    forall (d in depts, d2 in depts) where d.DName = d2.DName -> d = d2

``dom(P)`` is the dictionary domain; ``P[k]`` is a (failing) lookup and
``P{k}`` a non-failing lookup (plans only).  Identifiers resolve to bound
variables when in scope, otherwise to schema names.
"""

from __future__ import annotations

import re
from typing import List, Optional, Set, Tuple

from repro.errors import QuerySyntaxError
from repro.lru import LRU, CacheInfo
from repro.query.ast import Binding, Eq, PathOutput, PCQuery, StructOutput
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
)

_KEYWORDS = {
    "select",
    "distinct",
    "struct",
    "from",
    "where",
    "and",
    "in",
    "dom",
    "forall",
    "exists",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<param>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[.,()\[\]{}=])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match:
            raise QuerySyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup or ""
        text = match.group()
        if kind != "ws":
            if kind == "ident" and text.lower() in _KEYWORDS:
                tokens.append(_Token("kw", text.lower(), pos))
            else:
                tokens.append(_Token(kind, text, pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.scope: Set[str] = set()

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def eat_kw(self, word: str) -> None:
        if not self.at_kw(word):
            raise QuerySyntaxError(
                f"expected {word!r}, found {self.peek().text!r}", self.peek().pos
            )
        self.advance()

    def at_punct(self, symbol: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == symbol

    def eat_punct(self, symbol: str) -> None:
        if not self.at_punct(symbol):
            raise QuerySyntaxError(
                f"expected {symbol!r}, found {self.peek().text!r}", self.peek().pos
            )
        self.advance()

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise QuerySyntaxError(
                f"unexpected trailing input {self.peek().text!r}", self.peek().pos
            )

    # -- paths -----------------------------------------------------------------

    def parse_path(self) -> Path:
        path = self._parse_primary()
        while True:
            if self.at_punct("."):
                self.advance()
                attr_tok = self.advance()
                if attr_tok.kind != "ident":
                    raise QuerySyntaxError(
                        f"expected attribute name, found {attr_tok.text!r}", attr_tok.pos
                    )
                path = Attr(path, attr_tok.text)
            elif self.at_punct("["):
                self.advance()
                key = self.parse_path()
                self.eat_punct("]")
                path = Lookup(path, key)
            elif self.at_punct("{"):
                self.advance()
                key = self.parse_path()
                self.eat_punct("}")
                path = NFLookup(path, key)
            else:
                return path

    def _parse_primary(self) -> Path:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "dom":
            self.advance()
            self.eat_punct("(")
            inner = self.parse_path()
            self.eat_punct(")")
            return Dom(inner)
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return Const(tok.text == "true")
        if tok.kind == "string":
            self.advance()
            return Const(tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if tok.kind == "number":
            self.advance()
            # Const() normalizes whole-number floats to ints, so `1.0`
            # and `1` parse to the same node.
            return Const(float(tok.text) if "." in tok.text else int(tok.text))
        if tok.kind == "param":
            self.advance()
            return Param(tok.text[1:])
        if tok.kind == "ident":
            self.advance()
            if tok.text in self.scope:
                return Var(tok.text)
            return SName(tok.text)
        if self.at_punct("("):
            self.advance()
            inner = self.parse_path()
            self.eat_punct(")")
            return inner
        raise QuerySyntaxError(f"expected a path, found {tok.text!r}", tok.pos)

    # -- bindings ------------------------------------------------------------

    def parse_binding(self) -> Binding:
        # "x in P" form: ident followed by keyword `in`.
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == "kw" and self.peek(1).text == "in":
            var_name = self.advance().text
            self.advance()  # in
            source = self.parse_path()
            self._bind(var_name, tok.pos)
            return Binding(var_name, source)
        # "P x" form.
        source = self.parse_path()
        var_tok = self.advance()
        if var_tok.kind != "ident":
            raise QuerySyntaxError(
                f"expected binding variable after path, found {var_tok.text!r}",
                var_tok.pos,
            )
        self._bind(var_tok.text, var_tok.pos)
        return Binding(var_tok.text, source)

    def _bind(self, name: str, pos: int) -> None:
        if name in self.scope:
            raise QuerySyntaxError(f"duplicate binding variable {name!r}", pos)
        self.scope.add(name)

    def parse_binding_list(self) -> List[Binding]:
        bindings = [self.parse_binding()]
        while self.at_punct(","):
            self.advance()
            bindings.append(self.parse_binding())
        return bindings

    # -- conditions -------------------------------------------------------------

    def parse_conditions(self) -> List[Eq]:
        conds = [self._parse_condition()]
        while self.at_kw("and"):
            self.advance()
            conds.append(self._parse_condition())
        return conds

    def _parse_condition(self) -> Eq:
        left = self.parse_path()
        self.eat_punct("=")
        right = self.parse_path()
        return Eq(left, right)

    # -- queries --------------------------------------------------------------

    def parse_query(self) -> PCQuery:
        self.eat_kw("select")
        if self.at_kw("distinct"):
            self.advance()
        output_start = self.i
        # The select clause may reference from-clause variables, so we must
        # parse the from clause first to know the scope; we locate the
        # `from` keyword, parse bindings, then come back.
        depth = 0
        from_index: Optional[int] = None
        j = self.i
        while self.tokens[j].kind != "eof":
            tok = self.tokens[j]
            if tok.kind == "punct" and tok.text in "([{":
                depth += 1
            elif tok.kind == "punct" and tok.text in ")]}":
                depth -= 1
            elif tok.kind == "kw" and tok.text == "from" and depth == 0:
                from_index = j
                break
            j += 1
        if from_index is None:
            raise QuerySyntaxError("missing 'from' clause", self.peek().pos)
        self.i = from_index + 1
        bindings = self.parse_binding_list()
        conditions: List[Eq] = []
        if self.at_kw("where"):
            self.advance()
            conditions = self.parse_conditions()
        self.expect_eof()
        # Re-parse the output with the full scope available.
        end_of_query = self.i
        self.i = output_start
        output = self._parse_output()
        if self.i != from_index:
            raise QuerySyntaxError(
                "unexpected tokens between select clause and 'from'",
                self.tokens[self.i].pos,
            )
        self.i = end_of_query
        query = PCQuery(output, tuple(bindings), tuple(conditions))
        query.validate()
        return query

    def _parse_output(self):
        if self.at_kw("struct"):
            self.advance()
            self.eat_punct("(")
            fields: List[Tuple[str, Path]] = []
            while True:
                name_tok = self.advance()
                if name_tok.kind != "ident":
                    raise QuerySyntaxError(
                        f"expected field name, found {name_tok.text!r}", name_tok.pos
                    )
                self.eat_punct("=")
                fields.append((name_tok.text, self.parse_path()))
                if self.at_punct(","):
                    self.advance()
                    continue
                break
            self.eat_punct(")")
            return StructOutput(tuple(fields))
        return PathOutput(self.parse_path())

    # -- constraints ----------------------------------------------------------

    def parse_constraint(self, name: str = "c"):
        from repro.constraints.epcd import EPCD

        self.eat_kw("forall")
        self.eat_punct("(")
        premise_bindings = self.parse_binding_list()
        self.eat_punct(")")
        premise_conditions: List[Eq] = []
        if self.at_kw("where"):
            self.advance()
            premise_conditions = self.parse_conditions()
        if self.peek().kind != "arrow":
            raise QuerySyntaxError(
                f"expected '->', found {self.peek().text!r}", self.peek().pos
            )
        self.advance()
        conclusion_bindings: List[Binding] = []
        conclusion_conditions: List[Eq] = []
        if self.at_kw("exists"):
            self.advance()
            self.eat_punct("(")
            conclusion_bindings = self.parse_binding_list()
            self.eat_punct(")")
            if self.at_kw("where"):
                self.advance()
            if self.at_kw("true"):
                self.advance()
            elif self.peek().kind != "eof":
                conclusion_conditions = self.parse_conditions()
        else:
            conclusion_conditions = self.parse_conditions()
        self.expect_eof()
        return EPCD(
            name=name,
            premise_bindings=tuple(premise_bindings),
            premise_conditions=tuple(premise_conditions),
            conclusion_bindings=tuple(conclusion_bindings),
            conclusion_conditions=tuple(conclusion_conditions),
        )


#: source text -> the query it parsed to.  A :class:`PCQuery` is frozen
#: over interned paths and holds no data, so every caller shares the one
#: object — which already carries the canonical form and keys it computed
#: last time — and entries stay sound across instance mutations.  Keys
#: are the text as given; a text that does not parse is never stored.
_PARSED = LRU(max_size=512)

#: a longer source is parsed and not retained, so what the memo can pin
#: of caller-supplied text is bounded by entries × this many characters
_MAX_REMEMBERED_SOURCE = 8192


def parse_query(source: str) -> PCQuery:
    """Parse a PC query from concrete syntax (remembered per text: a
    repeated text costs one probe and returns the same object).

    ``$name`` markers parse to :class:`~repro.query.paths.Param` binding
    markers (query templates); bind them with
    :meth:`~repro.query.ast.PCQuery.bind_params` or
    ``Database.prepare(...).run(name=...)``.
    """

    query = _PARSED.get(source)
    if query is None:
        try:
            query = _Parser(source).parse_query()
        except QuerySyntaxError as err:
            raise err.with_source(source)
        if len(source) <= _MAX_REMEMBERED_SOURCE:
            _PARSED.put(source, query)
    return query


def parse_cache_info() -> CacheInfo:
    """Counters of :func:`parse_query`'s text memo (the
    ``query.parse_cache`` family of ``Database.metrics()``)."""

    return _PARSED.cache_info()


def parse_path(source: str, scope: Optional[Set[str]] = None) -> Path:
    """Parse a standalone path; names in ``scope`` become variables."""

    try:
        parser = _Parser(source)
        parser.scope = set(scope or ())
        path = parser.parse_path()
        parser.expect_eof()
        return path
    except QuerySyntaxError as err:
        raise err.with_source(source)


def parse_constraint(source: str, name: str = "c"):
    """Parse an EPCD from concrete syntax."""

    try:
        return _Parser(source).parse_constraint(name)
    except QuerySyntaxError as err:
        raise err.with_source(source)
