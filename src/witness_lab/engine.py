"""Query evaluation and witness checking.

Evaluation runs left-to-right hash joins over the body atoms, projecting
eagerly onto the attributes still needed (the head plus anything a later
atom mentions).  Set semantics throughout.
"""
from __future__ import annotations

from typing import Iterable

from .errors import NotASubDatabase
from .model import Database, Query, Row, Witness


def _hash_join(acc: set[Row], acc_attrs: frozenset[str], rows: Iterable[Row],
               row_attrs: frozenset[str], keep: frozenset[str]) -> set[Row]:
    shared = sorted(acc_attrs & row_attrs)
    index: dict[tuple[str, ...], list[Row]] = {}
    for row in rows:
        index.setdefault(tuple(row[a] for a in shared), []).append(row)
    joined: set[Row] = set()
    for left in acc:
        key = tuple(left[a] for a in shared)
        for right in index.get(key, ()):
            joined.add(left.merge(right).project(keep))
    return joined


def _needed_after(query: Query, extra: frozenset[str]) -> list[frozenset[str]]:
    """needed[i]: attributes that matter once atom i has been joined."""
    needed: list[frozenset[str]] = [frozenset()] * len(query.relations)
    tail = extra
    for i in range(len(query.relations) - 1, -1, -1):
        needed[i] = tail
        tail = tail | query.relations[i].attribute_set
    return needed


def evaluate(query: Query, db: Database) -> frozenset[Row]:
    """The result set Q(D): rows over the head attributes."""
    needed = _needed_after(query, query.head_set)
    acc: set[Row] = {Row(())}
    acc_attrs: frozenset[str] = frozenset()
    for i, schema in enumerate(query.relations):
        keep = needed[i] & (acc_attrs | schema.attribute_set)
        acc = _hash_join(acc, acc_attrs, db.instances[schema.name],
                         schema.attribute_set, keep)
        acc_attrs = keep
        if not acc:
            return frozenset()
    return frozenset(row.project(query.head) for row in acc)


def full_join_results(query: Query, db: Database, fixed: Row | None = None) -> list[Row]:
    """All full join results (rows over every attribute), optionally only
    those agreeing with a partial assignment `fixed`."""
    all_attrs = frozenset(query.attributes)
    acc: set[Row] = {Row(())}
    acc_attrs: frozenset[str] = frozenset()
    for schema in query.relations:
        rows = db.instances[schema.name]
        if fixed is not None:
            rows = [r for r in rows if fixed.agrees_with(r.project(fixed.attributes))]
        acc = _hash_join(acc, acc_attrs, rows, schema.attribute_set, all_attrs)
        if not acc:
            return []
        acc_attrs = acc_attrs | schema.attribute_set
    return sorted(acc)


def is_witness(query: Query, db: Database, witness: Witness,
               results: frozenset[Row] | None = None) -> bool:
    """True when the witness is a sub-database reproducing Q(D) exactly.
    `results` is Q(D) when the caller has already evaluated it."""
    for schema in query.relations:
        have = db.instances[schema.name]
        for row in witness.tuples.get(schema.name, frozenset()):
            if row not in have:
                raise NotASubDatabase(schema.name, row)
    if results is None:
        results = evaluate(query, db)
    return evaluate(query, witness.as_database()) == results
