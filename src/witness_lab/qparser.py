"""Query text: parsing and the canonical printer.

Grammar, whitespace-insensitive:

    Head(A1, ..., Ak) :- R1(B1, ...), R2(...), ... .

The trailing period is optional and `Head()` denotes a Boolean query.
The head predicate name is not part of the model; the printer always
emits `Q`, so parse(format(parse(text))) == parse(text).  `parse_query`
keeps its last 64 results by text; a frozen `Query` is safe to share.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .errors import QuerySyntaxError
from .model import IDENTIFIER, Query, RelationSchema

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|:-|[(),.])")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self, expected: str | None = None) -> str:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise QuerySyntaxError(
                f"expected {expected or 'a token'}" if self.pos < len(self.text) or expected
                else "unexpected end of input",
                self.pos,
            )
        token = m.group(1)
        if expected is not None and token != expected:
            raise QuerySyntaxError(f"expected {expected!r}, found {token!r}", m.start(1))
        self.pos = m.end()
        return token

    def at_end(self) -> bool:
        return not self.text[self.pos:].strip()


def _attribute_list(tokens: _Tokens) -> tuple[str, ...]:
    tokens.next("(")
    attrs: list[str] = []
    if tokens.peek() == ")":
        tokens.next(")")
        return ()
    while True:
        name = tokens.next()
        if not IDENTIFIER.match(name):
            raise QuerySyntaxError(f"expected an attribute name, found {name!r}", tokens.pos)
        attrs.append(name)
        sep = tokens.next()
        if sep == ")":
            return tuple(attrs)
        if sep != ",":
            raise QuerySyntaxError(f"expected ',' or ')', found {sep!r}", tokens.pos)


@lru_cache(maxsize=64)
def parse_query(text: str) -> Query:
    """Parse query text, reporting the offset of the first offending token."""
    tokens = _Tokens(text)
    name = tokens.next()
    if not IDENTIFIER.match(name):
        raise QuerySyntaxError(f"expected the head predicate, found {name!r}", tokens.pos)
    head = _attribute_list(tokens)
    tokens.next(":-")
    relations: list[RelationSchema] = []
    while True:
        rel_name = tokens.next()
        if not IDENTIFIER.match(rel_name):
            raise QuerySyntaxError(f"expected a relation name, found {rel_name!r}", tokens.pos)
        attrs = _attribute_list(tokens)
        if not attrs:
            raise QuerySyntaxError(f"relation {rel_name!r} needs at least one attribute", tokens.pos)
        relations.append(RelationSchema(rel_name, attrs))
        if tokens.at_end():
            break
        sep = tokens.next()
        if sep == ".":
            if not tokens.at_end():
                raise QuerySyntaxError("text after the final period", tokens.pos)
            break
        if sep != ",":
            raise QuerySyntaxError(f"expected ',' or '.', found {sep!r}", tokens.pos)
    return Query(head, tuple(relations))


def format_query(query: Query) -> str:
    """Canonical one-line form: single spaces, head order preserved."""
    atoms = ", ".join(f"{r.name}({', '.join(r.attributes)})" for r in query.relations)
    return f"Q({', '.join(query.head)}) :- {atoms}"
