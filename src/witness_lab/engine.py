"""Query evaluation and witness checking.

Evaluation runs left-to-right hash joins over the body atoms, projecting
eagerly onto the attributes still needed (the head plus anything a later
atom mentions).  Q(D) and the full join results come from the same
loop, differing only in what each step keeps.  Set semantics throughout.

Every intermediate tuple holds its values in sorted attribute order (see
`model`); each step resolves its key and output positions once, so the
inner loop only indexes, concatenates and hashes plain tuples.  Four
steps skip work the general one would do:

* the first atom's rows, or their projection, are the accumulator: no
  index is built and nothing is probed with the empty key;
* an atom that adds no needed attribute only filters: the accumulator
  keeps the tuples whose shared values the atom holds, then projects;
* when the accumulated and new attributes are already in sorted order,
  the concatenation is the output tuple and is not reordered;
* when the step drops accumulated attributes and the ones it keeps,
  followed by the new ones, are in sorted order, each accumulated tuple
  is projected once and that projection is concatenated with each match,
  with no reorder per pair.

`full_join_results` returns its rows in no particular order (set
iteration order, which depends on the string-hash seed); callers that
need an order sort, or take a minimum, themselves.
"""
from __future__ import annotations

from typing import AbstractSet

from .errors import NotASubDatabase
from .model import Database, Query, Witness, projection


def _needed_after(query: Query, extra: frozenset[str]) -> list[frozenset[str]]:
    """needed[i]: attributes that matter once atom i has been joined."""
    needed: list[frozenset[str]] = [frozenset()] * len(query.relations)
    tail = extra
    for i in range(len(query.relations) - 1, -1, -1):
        needed[i] = tail
        tail = tail | query.relations[i].attribute_set
    return needed


def _join(query: Query, db: Database,
          needed: list[frozenset[str]]) -> AbstractSet[tuple[str, ...]]:
    """The one join loop: after atom i only attributes in needed[i] are
    kept, in sorted order.  Stops early once the accumulator is empty."""
    acc: AbstractSet[tuple[str, ...]] = frozenset()
    acc_attrs: tuple[str, ...] = ()
    for i, schema in enumerate(query.relations):
        rows = db.instances[schema.name]
        attrs = schema.sorted_attributes
        new = tuple(a for a in attrs if a in needed[i] and a not in acc_attrs)
        kept = tuple(a for a in acc_attrs if a in needed[i])
        keep = tuple(sorted(new + kept))
        shared = [a for a in acc_attrs if a in schema.attribute_set]
        left_key, right_key = projection(acc_attrs, shared), projection(attrs, shared)
        if i == 0:
            acc = rows if keep == attrs else set(map(projection(attrs, keep), rows))
        elif not new:  # the atom only filters: keep tuples whose key it holds
            keys = set(map(right_key, rows))
            if keep == acc_attrs:
                acc = {left for left in acc if left_key(left) in keys}
            else:
                out = projection(acc_attrs, keep)
                acc = {out(left) for left in acc if left_key(left) in keys}
        else:
            right_new = projection(attrs, new)
            index: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
            for row in rows:
                index.setdefault(right_key(row), set()).add(right_new(row))
            if acc_attrs + new == keep:  # already in sorted order
                acc = {left + extra for left in acc for extra in index.get(left_key(left), ())}
            elif kept + new == keep:  # sorted once the left tuple is projected
                left_kept = projection(acc_attrs, kept)
                acc = {part + extra for left in acc for part in (left_kept(left),)
                       for extra in index.get(left_key(left), ())}
            else:
                out = projection(acc_attrs + new, keep)
                acc = {out(left + extra)
                       for left in acc for extra in index.get(left_key(left), ())}
        acc_attrs = keep
        if not acc:
            break
    return acc


def evaluate(query: Query, db: Database) -> frozenset[tuple[str, ...]]:
    """The result set Q(D): tuples over the sorted head attributes."""
    return frozenset(_join(query, db, _needed_after(query, query.head_set)))


def full_join_results(query: Query, db: Database) -> list[tuple[str, ...]]:
    """All full join results (tuples over `query.attributes`), in no
    particular order."""
    every = frozenset(query.attributes)
    return list(_join(query, db, [every] * len(query.relations)))


def is_witness(query: Query, db: Database, witness: Witness,
               results: frozenset[tuple[str, ...]] | None = None) -> bool:
    """True when the witness is a sub-database reproducing Q(D) exactly.
    `results` is Q(D) when the caller has already evaluated it."""
    for schema in query.relations:
        have = db.instances[schema.name]
        for row in witness.tuples.get(schema.name, frozenset()):
            if row not in have:
                raise NotASubDatabase(schema.name, schema.sorted_attributes, row)
    if results is None:
        results = evaluate(query, db)
    return evaluate(query, witness.as_database()) == results
