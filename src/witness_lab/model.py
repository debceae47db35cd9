"""Relational model: queries, databases and tuples.  A witness is a
sub-database, so it is a `Database` too.

Values are opaque strings.  Attribute names are global, so a name shared
by two relations is the same attribute (natural-join semantics).  All
types are immutable; operations on them are pure functions.

A tuple over attributes S is a plain tuple of its values in sorted(S)
order (`RelationSchema.sorted_attributes`, `Query.attributes` for a full
join result, the sorted head for a result), so equal assignments are
equal tuples and sort by value in attribute-name order.  Column order
matters only at the CSV and JSON boundary.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DuplicateAttributeInAtom, SelfJoinError, UnboundHeadAttribute

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def projection(source: Sequence[str],
               target: Iterable[str]) -> Callable[[Sequence[str]], tuple[str, ...]]:
    """Maps a tuple over `source` (its values in that attribute order) to
    one over `target`, in the order `target` lists."""
    at = {a: i for i, a in enumerate(source)}
    positions = [at[a] for a in target]
    if len(positions) == 1:  # itemgetter would return a bare value
        i = positions[0]
        return lambda row: (row[i],)
    if not positions:  # and itemgetter() raises
        return lambda row: ()
    return itemgetter(*positions)


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

    @cached_property
    def sorted_attributes(self) -> tuple[str, ...]:
        """The attribute order of this relation's tuples."""
        return tuple(sorted(self.attributes))


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

    instances: Mapping[str, frozenset[tuple[str, ...]]]

    def __post_init__(self):
        object.__setattr__(self, "instances", dict(self.instances))

    @classmethod
    def build(cls, query: Query, data: Mapping[str, Iterable[Mapping[str, str]]]) -> "Database":
        """Validate `data` against the query schema and freeze it.

        Missing relations become empty instances; each row is an
        {attribute: value} mapping, checked to be total on the schema.
        """
        instances: dict[str, frozenset[tuple[str, ...]]] = {}
        for schema in query.relations:
            rows = set()
            for raw in data.get(schema.name, ()):
                if raw.keys() != schema.attribute_set:
                    raise ValueError(
                        f"tuple {dict(raw)} does not conform to {schema.name}({', '.join(schema.attributes)})"
                    )
                rows.add(tuple(raw[a] for a in schema.sorted_attributes))
            instances[schema.name] = frozenset(rows)
        unknown = set(data) - set(instances)
        if unknown:
            raise ValueError(f"data for relations outside the query: {sorted(unknown)}")
        return cls(instances)

    @classmethod
    def of(cls, query: Query, parts: Mapping[str, Iterable[tuple[str, ...]]]) -> "Database":
        """The sub-database holding `parts`: every query relation, empty
        where `parts` lacks it."""
        return cls({r.name: frozenset(parts.get(r.name, ())) for r in query.relations})

    @property
    def size(self) -> int:
        return sum(len(rows) for rows in self.instances.values())

