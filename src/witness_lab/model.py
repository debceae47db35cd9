"""Relational model: queries, databases, tuples, witnesses.

Values are opaque strings.  Attribute names are global, so a name shared
by two relations is the same attribute (natural-join semantics).  All
types are immutable; operations on them are pure functions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DuplicateAttributeInAtom, SelfJoinError, UnboundHeadAttribute

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, order=True)
class Row:
    """One tuple, stored as (attribute, value) pairs sorted by attribute.

    The sort makes equal assignments compare equal regardless of how they
    were built, and gives rows a deterministic total order.
    """

    items: tuple[tuple[str, str], ...]

    @classmethod
    def make(cls, mapping: Mapping[str, str] | Iterable[tuple[str, str]]) -> "Row":
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(tuple(sorted(pairs)))

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.items)

    def __getitem__(self, attribute: str) -> str:
        return self._map[attribute]

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.items)

    def project(self, attributes: Iterable[str]) -> "Row":
        keep = set(attributes)
        return Row(tuple(p for p in self.items if p[0] in keep))

    def merge(self, other: "Row") -> "Row":
        merged = dict(self.items)
        merged.update(other.items)
        return Row.make(merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v}" for a, v in self.items)
        return f"Row({inner})"


@dataclass(frozen=True)
class RelationSchema:
    """A body atom: relation name plus its ordered attribute list."""

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self):
        if not IDENTIFIER.match(self.name):
            raise ValueError(f"invalid relation name {self.name!r}")
        if not self.attributes:
            raise ValueError(f"relation {self.name!r} needs at least one attribute")
        seen = set()
        for attr in self.attributes:
            if not IDENTIFIER.match(attr):
                raise ValueError(f"invalid attribute name {attr!r}")
            if attr in seen:
                raise DuplicateAttributeInAtom(self.name, attr)
            seen.add(attr)

    @property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(self.attributes)


@dataclass(frozen=True)
class Query:
    """A self-join-free conjunctive query: output attributes plus body atoms."""

    head: tuple[str, ...]
    relations: tuple[RelationSchema, ...]

    def __post_init__(self):
        if not self.relations:
            raise ValueError("a query needs at least one body atom")
        names = [r.name for r in self.relations]
        for name in names:
            if names.count(name) > 1:
                raise SelfJoinError(name)
        bound = set().union(*(r.attribute_set for r in self.relations))
        seen = set()
        for attr in self.head:
            if attr in seen:
                raise ValueError(f"head attribute {attr!r} listed twice")
            seen.add(attr)
            if attr not in bound:
                raise UnboundHeadAttribute(attr)

    # -- derived views, all deterministic ---------------------------------

    @cached_property
    def head_set(self) -> frozenset[str]:
        return frozenset(self.head)

    @cached_property
    def attributes(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*(r.attribute_set for r in self.relations))))

    @cached_property
    def non_output(self) -> tuple[str, ...]:
        return tuple(a for a in self.attributes if a not in self.head_set)

    @property
    def is_full(self) -> bool:
        return not self.non_output

    @cached_property
    def _by_name(self) -> dict[str, RelationSchema]:
        return {r.name: r for r in self.relations}

    def schema(self, name: str) -> RelationSchema:
        return self._by_name[name]

    def head_of(self, name: str) -> frozenset[str]:
        """Output attributes occurring in the named relation."""
        return self._by_name[name].attribute_set & self.head_set

    def subquery(self, head: Iterable[str], relation_names: Iterable[str]) -> "Query":
        """Query over a subset of atoms, keeping their original order."""
        keep = set(relation_names)
        return Query(tuple(head), tuple(r for r in self.relations if r.name in keep))


@dataclass(frozen=True)
class Database:
    """Per-relation tuple sets keyed by relation name."""

    instances: Mapping[str, frozenset[Row]]

    def __post_init__(self):
        object.__setattr__(self, "instances", dict(self.instances))

    @classmethod
    def build(cls, query: Query, data: Mapping[str, Iterable[Row | Mapping[str, str]]]) -> "Database":
        """Validate `data` against the query schema and freeze it.

        Missing relations become empty instances; rows may be given as
        mappings and are checked to be total on the schema attributes.
        """
        instances: dict[str, frozenset[Row]] = {}
        for schema in query.relations:
            rows = set()
            for raw in data.get(schema.name, ()):  # type: ignore[union-attr]
                row = raw if isinstance(raw, Row) else Row.make(raw)
                if set(row.attributes) != set(schema.attributes):
                    raise ValueError(
                        f"tuple {row} does not conform to {schema.name}({', '.join(schema.attributes)})"
                    )
                rows.add(row)
            instances[schema.name] = frozenset(rows)
        unknown = set(data) - set(instances)
        if unknown:
            raise ValueError(f"data for relations outside the query: {sorted(unknown)}")
        return cls(instances)

    @property
    def size(self) -> int:
        return sum(len(rows) for rows in self.instances.values())

    def restrict(self, relation_names: Iterable[str]) -> "Database":
        keep = set(relation_names)
        return Database({n: rows for n, rows in self.instances.items() if n in keep})


@dataclass(frozen=True)
class Witness:
    """Sub-database meant to reproduce the query result, with provenance."""

    tuples: Mapping[str, frozenset[Row]]
    algorithm: str

    def __post_init__(self):
        object.__setattr__(self, "tuples", dict(self.tuples))

    @classmethod
    def build(cls, query: Query, parts: Mapping[str, Iterable[Row]], algorithm: str) -> "Witness":
        tuples = {r.name: frozenset(parts.get(r.name, ())) for r in query.relations}
        return cls(tuples, algorithm)

    @property
    def size(self) -> int:
        return sum(len(rows) for rows in self.tuples.values())

    def as_database(self) -> Database:
        return Database(self.tuples)
