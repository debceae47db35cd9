"""Query evaluation and witness checking.

Evaluation runs left-to-right hash joins over the body atoms, projecting
eagerly onto the attributes still needed (the head plus anything a later
atom mentions).  Q(D) and the full join results come from the same
loop, differing only in what each step keeps.  Set semantics throughout.
Which step does what depends on the query alone, so the steps are
planned once per query and reused.

Every intermediate tuple holds its values in sorted attribute order (see
`model`); each step resolves its key and output positions once, so the
inner loop only indexes, concatenates and hashes plain tuples.  A key on
one attribute is the bare value, and a one-attribute part is sliced, so
neither builds a tuple in Python.  Five steps skip work the general one
would do:

* the first atom's rows, or their projection, are the accumulator: no
  index is built and nothing is probed with the empty key;
* an atom that adds no needed attribute only filters: the accumulator
  keeps the tuples whose shared values the atom holds, then projects;
* the atoms right after an expansion step that hold every attribute it
  adds, and no attribute not yet bound, fold into that step: each gets
  an index from its accumulator-side key to the set of its projections
  on the added attributes, and an accumulated tuple's matches are the
  intersection of its sets (the core step of worst-case-optimal joins,
  on binary hash joins), so a cycle is never expanded only to be
  filtered.  The step keeps what is needed after the last folded atom;
* two or more key-dropping steps in a row, each joining on exactly the
  attributes the one before added (a line such as
  `Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)`), run as one chain over a
  factorised accumulator: each kept part maps to the set of values it
  reaches, each hop maps every part's set to the union of its index
  sets, and tuples are built once, after the last hop;
* when the accumulated attributes the step keeps, followed by the new
  ones, are in sorted order, each accumulated tuple is projected once
  (not at all when the step keeps all of them) and that projection,
  concatenated with a match, is the output tuple: nothing is reordered
  per pair.

On an acyclic query, `full_reduction` finds each relation's rows that
take part in some full join result without joining: Yannakakis's full
reducer, semijoins up and then down the join tree that ear removal
finds (`Classification.join_tree`), keyed as the join steps are.

`full_join_results` returns its rows in no particular order (set
iteration order, which depends on the string-hash seed); callers that
need an order sort, take a minimum, or number their tuples with
`incidence`.
"""
from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import compress, count, repeat
from operator import and_, attrgetter, itemgetter
from typing import AbstractSet, NamedTuple

from .errors import NotASubDatabase
from .model import Database, Query, projection
from .structure import pieces


def _key(source: tuple[str, ...], target: list[str]):
    """A join key over `target`: `projection`'s tuple, except that one
    position gives the bare value, which hashes and compares faster.  Both
    sides of a step build their keys over the same attributes."""
    if len(target) == 1:
        return itemgetter(source.index(target[0]))
    return projection(source, target)


def _part(source: tuple[str, ...], target: tuple[str, ...]):
    """`projection` for tuples: one position is taken as a one-element
    slice, which builds the 1-tuple in C."""
    if len(target) == 1:
        i = source.index(target[0])
        return itemgetter(slice(i, i + 1))
    return projection(source, target)


def _index(rows, key, value) -> defaultdict:
    """Each key's set of values over `rows`."""
    index: defaultdict = defaultdict(set)
    for k, v in zip(map(key, rows), map(value, rows)):
        index[k].add(v)
    return index


_NONE: frozenset = frozenset()


class _Step(NamedTuple):
    """One step of the join, planned from the query alone."""
    first: int  # its atom
    last: int  # the last atom folded into it
    acc_attrs: tuple[str, ...]  # what the accumulator holds before it
    new: tuple[str, ...]  # the needed attributes it adds
    kept: tuple[str, ...]  # the accumulated attributes it keeps
    keep: tuple[str, ...]  # all it keeps, sorted
    shared: tuple[str, ...]  # its join key
    hops: tuple = ()  # a chain's (atom, key, added attributes), one per hop


@lru_cache(maxsize=64)
def _plan(query: Query, extra: frozenset[str]) -> tuple[_Step, ...]:
    """The steps of `_join` when `extra` is what the caller needs: after
    atom i only the attributes in `extra` or in a later atom are kept.  A
    run of two or more key-dropping expansions, each joining on exactly
    what the one before added, is one step with `hops`.  Planned once
    per query."""
    relations = query.relations
    needed: list[frozenset[str]] = [frozenset()] * len(relations)
    tail = extra
    for i in range(len(relations) - 1, -1, -1):
        needed[i] = tail
        tail = tail | relations[i].attribute_set
    steps: list[_Step] = []
    acc_attrs: tuple[str, ...] = ()
    drops_before = False
    i = 0
    while i < len(relations):
        schema = relations[i]
        attrs = schema.sorted_attributes
        new = tuple(a for a in attrs if a in needed[i] and a not in acc_attrs)
        last = i  # the atoms after i that hold every new attribute and add none fold in
        if i and new:
            bound = schema.attribute_set.union(acc_attrs)
            while (last + 1 < len(relations)
                   and bound >= relations[last + 1].attribute_set >= set(new)):
                last += 1
        kept = tuple(a for a in acc_attrs if a in needed[last])
        keep = tuple(sorted(kept + tuple(a for a in new if a in needed[last])))
        shared = tuple(a for a in acc_attrs if a in schema.attribute_set)
        drops = bool(i and new and last == i and not set(kept).intersection(shared))
        if drops and drops_before and shared == steps[-1].new:
            chain = steps[-1]
            hops = chain.hops or ((chain.first, chain.shared, chain.new),)
            steps[-1] = _Step(chain.first, i, chain.acc_attrs, new, kept, keep, chain.shared,
                              hops + ((i, shared, new),))
        else:
            steps.append(_Step(i, last, acc_attrs, new, kept, keep, shared))
        drops_before = drops
        acc_attrs = keep
        i = last + 1
    return tuple(steps)


def _join(query: Query, db: Database, extra: frozenset[str]) -> AbstractSet[tuple[str, ...]]:
    """The one join loop over `_plan`'s steps.  A relation `db` lacks
    counts as empty.  Stops early once the accumulator is empty."""
    relations = query.relations
    acc: AbstractSet[tuple[str, ...]] = frozenset()
    for i, last, acc_attrs, new, kept, keep, shared, hops in _plan(query, extra):
        schema = relations[i]
        rows = db.instances.get(schema.name, _NONE)
        attrs = schema.sorted_attributes
        if i == 0:
            acc = rows if keep == attrs else set(map(_part(attrs, keep), rows))
        elif not new:  # the atom only filters: keep tuples whose key it holds
            keys = set(map(_key(attrs, shared), rows))
            left_key = _key(acc_attrs, shared)
            if keep == acc_attrs:
                acc = {left for left in acc if left_key(left) in keys}
            else:
                out = _part(acc_attrs, keep)
                acc = {out(left) for left in acc if left_key(left) in keys}
        else:
            if hops:
                # Per kept part, the set of values reached so far, advanced
                # one hop at a time by a union of index sets; the last hop
                # reaches the added parts themselves.
                reached = _index(acc, _part(acc_attrs, kept), _key(acc_attrs, shared))
                for n, (atom, on, adds) in enumerate(hops, 1):
                    hop_attrs = relations[atom].sorted_attributes
                    value = _part if n == len(hops) else _key
                    get = _index(db.instances.get(relations[atom].name, _NONE),
                                 _key(hop_attrs, on), value(hop_attrs, adds)).get
                    reached = {part: ends for part, keys in reached.items()
                               if (ends := set().union(*map(get, keys, repeat(_NONE))))}
                    if not reached:
                        break
                pairs = reached.items()
            else:
                # Per left tuple, its matches in atom i intersected with
                # those of each folded atom, every map walking the same list.
                lefts = list(acc)
                index = _index(rows, _key(attrs, shared), _part(attrs, new))
                matches = map(index.get, map(_key(acc_attrs, shared), lefts), repeat(_NONE))
                for other in relations[i + 1:last + 1]:
                    other_attrs = other.sorted_attributes
                    on = [a for a in acc_attrs if a in other.attribute_set]
                    index = _index(db.instances.get(other.name, _NONE), _key(other_attrs, on),
                                   _part(other_attrs, new))
                    matches = map(and_, matches, map(index.get, map(_key(acc_attrs, on), lefts),
                                                     repeat(_NONE)))
                pairs = zip(lefts if kept == acc_attrs else map(_part(acc_attrs, kept), lefts),
                            matches)
            # each pair is a left tuple projected onto `kept` and its matches
            if kept + new == keep:  # already in sorted order
                acc = {part + extra for part, extras in pairs for extra in extras}
            else:
                out = _part(kept + new, keep)
                acc = {out(part + extra) for part, extras in pairs for extra in extras}
        if not acc:
            break
    return acc


def evaluate(query: Query, db: Database) -> frozenset[tuple[str, ...]]:
    """The result set Q(D): tuples over the sorted head attributes."""
    return frozenset(_join(query, db, query.head_set))


def full_join_results(query: Query, db: Database) -> list[tuple[str, ...]]:
    """All full join results (tuples over `query.attributes`), in no
    particular order."""
    return list(_join(query, db, frozenset(query.attributes)))


def full_reduction(query: Query, db: Database,
                   tree: tuple[tuple[int, int], ...]) -> dict[str, frozenset[tuple[str, ...]]]:
    """Per relation, its rows that take part in some full join result, on
    an acyclic query whose (ear, parent) pairs, in removal order, are
    `tree`.  Each parent is filtered by its ears on the way up, and each
    ear by its parent on the way down: 2(n - 1) semijoins, each on the
    attributes the two atoms share.  An ear that shares none keeps all
    its rows when its parent has any, and none otherwise.  A relation the
    database lacks counts as empty."""
    relations = query.relations
    rows = [db.instances.get(schema.name, _NONE) for schema in relations]

    def semijoin(kept: int, by: int) -> None:
        on = sorted(relations[kept].attribute_set & relations[by].attribute_set)
        keys = set(map(_key(relations[by].sorted_attributes, on), rows[by]))
        key = _key(relations[kept].sorted_attributes, on)
        rows[kept] = frozenset(compress(rows[kept], map(keys.__contains__, map(key, rows[kept]))))

    for ear, parent in tree:
        semijoin(parent, ear)
    for ear, parent in reversed(tree):
        semijoin(ear, parent)
    return {schema.name: kept for schema, kept in zip(relations, rows)}


def _number(values: list, first: int = 0) -> tuple[list, list[int]]:
    """The distinct `values`, sorted, and per value its id: `first` plus
    its index among them."""
    ordered = sorted(set(values))
    return ordered, list(map(dict(zip(ordered, count(first))).__getitem__, values))


def incidence(query: Query, rows: list[tuple[str, ...]]) -> tuple[list, list, dict, list]:
    """Numbers the full join results `rows` once.  Returns the vertices
    ((relation name, tuple) per id: relations in name order, each
    relation's joined tuples sorted), the results (the distinct head
    tuples, in the order they first appear in `rows`), per relation in
    name order each row's vertex id, and per row its result id.  The
    vertex ids depend on the set of rows, not their order; a caller
    whose work follows result ids sorts them itself."""
    vertices: list[tuple[str, tuple[str, ...]]] = []
    columns: dict[str, list[int]] = {}
    for schema in sorted(query.relations, key=attrgetter("name")):
        to_relation = projection(query.attributes, schema.sorted_attributes)
        ordered, columns[schema.name] = _number(list(map(to_relation, rows)), len(vertices))
        vertices += [(schema.name, t) for t in ordered]
    heads = list(map(projection(query.attributes, sorted(query.head)), rows))
    number = dict(zip(dict.fromkeys(heads), count()))
    return vertices, list(number), columns, list(map(number.__getitem__, heads))


# Q(D) as (piece, result set) pairs, one per `structure.pieces` entry; a
# piece's results are tuples over its sorted head.
Factors = tuple[tuple[Query, frozenset[tuple[str, ...]]], ...]


def is_witness(query: Query, db: Database, witness: Database,
               results: Factors | None = None) -> bool:
    """True when the witness is a sub-database reproducing Q(D) exactly; a
    query relation either database lacks counts as empty.  `results` is
    Q(D)'s factors when the caller has already evaluated them.

    Pieces share no attribute, so Q(D) is the product of their result
    sets, and Q(W) of theirs over the witness.  When every factor over D
    is nonempty, each is a projection of Q(D), so the products are equal
    exactly when every factor is.  When one is empty Q(D) is empty, and
    Q(W) equals it exactly when some factor over W is empty too.  Each
    piece is evaluated over W; the products are never built."""
    for schema in query.relations:
        rows = witness.instances.get(schema.name, _NONE)
        have = db.instances.get(schema.name, _NONE)
        if not rows <= have:  # name the smallest foreign row, whatever the set order
            raise NotASubDatabase(schema.name, schema.sorted_attributes, min(rows - have))
    if results is None:
        results = tuple((sub, evaluate(sub, db)) for sub in pieces(query))
    wanted = [rows for _, rows in results]
    got = [evaluate(sub, witness) for sub, _ in results]
    return got == wanted or not (all(got) or all(wanted))
