"""Shared fixtures: the worked example, a catalog of queries with known
classes, an independent nested-loop evaluator, random query/instance
builders for each structural class, live pricing groups, and the
per-query caches."""
from __future__ import annotations

import itertools
import random

from witness_lab import engine
from witness_lab.linprog import fractional_edge_cover
from witness_lab.model import Database, Query, RelationSchema
from witness_lab.qparser import parse_query
from witness_lab.structure import classify

# everything `solve` computes from the query alone, each kept per query
QUERY_CACHES = (parse_query, classify, fractional_edge_cover, engine._plan)

WORKED_TEXT = "Q(A, C, F) :- R1(A, B), R2(B, C), R3(C, F), R4(C, H)"
WORKED_TABLES = {
    "R1": [("a1", "b1"), ("a2", "b2"), ("a3", "b2")],
    "R2": [("b1", "c1"), ("b2", "c3"), ("b3", "c2"), ("b3", "c3")],
    "R3": [("c1", "f1"), ("c2", "f3"), ("c3", "f3")],
    "R4": [("c1", "h1"), ("c2", "h1"), ("c3", "h1"), ("c3", "h2")],
}
WORKED_RESULTS = {("a1", "c1", "f1"), ("a2", "c3", "f3"), ("a3", "c3", "f3")}
WORKED_OPTIMUM = 9
WORKED_SINGLE_RESULT = ("a1", "c1", "f1")
WORKED_SINGLE_WITNESS = {
    "R1": {("a1", "b1")},
    "R2": {("b1", "c1")},
    "R3": {("c1", "f1")},
    "R4": {("c1", "h1")},
}

# name, query text, expected class label
CATALOG = [
    ("worked", WORKED_TEXT, "LogHard"),
    ("cover", "Q(A) :- R1(A, B), R2(B)", "ConstApprox"),
    ("matrix", "Q(A, C) :- R1(A, B), R2(B, C)", "LogHard"),
    ("pyramid", "Q(A, B, C) :- R1(A, B), R2(A, C), R3(B, C), R4(A, F), R5(B, F), R6(C, F)",
     "LogHard"),
    ("line3", "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)", "LogHard"),
    ("triangle", "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)", "ExactPTime"),
    ("star3", "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)", "LogHard"),
    ("acyclic_list", "Q(A1, A2, A3, A7) :- R1(A1, A2, A3), R2(A3, A7), R3(A1, B1), "
     "R4(A2, B2), R5(B2, B3), R6(B3), R7(A7, B4), R8(B4), R9(B1)", "ConstApprox"),
    ("two_hop_tail", "Q(A1, A2, A3) :- R1(A1, B1), R2(B1, B2), R3(A2, B2, B3), "
     "R4(A2, A3, B4), R5(A1, A2)", "ConstApprox"),
    ("boolean_edge", "Q() :- R8(B6, B7)", "ExactPTime"),
]


# Five output attributes, four existential components, one of them
# undominated: exercises every branch of the component analysis.
WIDE_TEXT = ("Q(A1, A2, A3, A4, A5) :- R1(A1, B1), R2(B1, B2), R3(A2, B2, B3), "
             "R4(A2, A3, B4), R5(A1, A2), R6(A4, B5), R7(B5, A5), R8(B6, B7)")


def build_db(query: Query, tables: dict[str, list[tuple[str, ...]]]) -> Database:
    data = {}
    for name, rows in tables.items():
        attrs = query.schema(name).attributes
        data[name] = [dict(zip(attrs, row)) for row in rows]
    return Database.build(query, data)


def worked_example() -> tuple[Query, Database]:
    query = parse_query(WORKED_TEXT)
    return query, build_db(query, WORKED_TABLES)


def naive_evaluate(query: Query, db: Database) -> set[tuple[str, ...]]:
    """Nested-loop reference evaluator, kept independent of the engine."""
    out: set[tuple[str, ...]] = set()
    pools = [sorted(db.instances[r.name]) for r in query.relations]
    for combo in itertools.product(*pools):
        binding: dict[str, str] = {}
        consistent = True
        for schema, row in zip(query.relations, combo):
            for attr, value in zip(sorted(schema.attributes), row):
                if binding.get(attr, value) != value:
                    consistent = False
                    break
                binding[attr] = value
            if not consistent:
                break
        if consistent:
            out.add(tuple(binding[a] for a in query.head))
    return out


def rows_to_tuples(query: Query, results) -> set[tuple[str, ...]]:
    """Result tuples (sorted head order) re-read in the head's listed order."""
    head = sorted(query.head)
    return {tuple(dict(zip(head, t))[a] for a in query.head) for t in results}


def project(attributes, row: tuple[str, ...], target) -> tuple[str, ...]:
    """A tuple over `attributes` re-read over `target`, both stored in
    sorted attribute order; kept independent of the package's helper."""
    values = dict(zip(sorted(attributes), row))
    return tuple(values[a] for a in sorted(target))


def as_columns(schema: RelationSchema, row: tuple[str, ...]) -> tuple[str, ...]:
    """A stored tuple (sorted attribute order) in the schema's column order."""
    values = dict(zip(sorted(schema.attributes), row))
    return tuple(values[a] for a in schema.attributes)


def live_group(pairs) -> dict[tuple[int, ...], set[int]]:
    """A live group as `densest.min_price_candidate` takes it, from
    (result id, demand key) pairs of uncovered results: each key with the
    ids of its results, so a key repeated over results weighs that many."""
    live: dict[tuple[int, ...], set[int]] = {}
    for r, key in pairs:
        live.setdefault(key, set()).add(r)
    return live


def random_query(rng: random.Random, max_relations: int = 6,
                 max_attributes: int = 7) -> Query:
    attrs = [f"X{i}" for i in range(1, rng.randint(2, max_attributes) + 1)]
    relations = []
    used: set[str] = set()
    for i in range(rng.randint(1, max_relations)):
        width = rng.randint(1, min(3, len(attrs)))
        chosen = tuple(sorted(rng.sample(attrs, width)))
        relations.append(RelationSchema(f"R{i + 1}", chosen))
        used.update(chosen)
    pool = sorted(used)
    head = tuple(sorted(rng.sample(pool, rng.randint(0, len(pool)))))
    return Query(head, tuple(relations))


def _assemble(rng: random.Random, component_specs: list[list[tuple[str, ...]]],
              head_attrs: set[str], extra_head_only: int) -> Query:
    relations = []
    for member_attrs in (m for comp in component_specs for m in comp):
        relations.append(member_attrs)
    pool = sorted(head_attrs)
    for _ in range(extra_head_only):
        width = rng.randint(1, min(2, len(pool)))
        relations.append(tuple(sorted(rng.sample(pool, width))))
    schemas = tuple(RelationSchema(f"R{i + 1}", attrs)
                    for i, attrs in enumerate(relations))
    used_heads = sorted(head_attrs & {a for s in schemas for a in s.attributes})
    return Query(tuple(used_heads), schemas)


def random_head_cluster_query(rng: random.Random) -> Query:
    """Every member of each existential component carries the same output
    attributes, so each member dominates its component."""
    head_pool = [f"A{i}" for i in range(1, rng.randint(1, 4) + 1)]
    comps = []
    for c in range(rng.randint(1, 3)):
        locals_ = [f"B{c}{j}" for j in range(1, rng.randint(1, 2) + 1)]
        shared_head = tuple(sorted(rng.sample(head_pool, rng.randint(0, len(head_pool)))))
        members = []
        for _ in range(rng.randint(1, 2)):
            extra = rng.sample(locals_, rng.randint(0, len(locals_) - 1))
            members.append(tuple(sorted(set(shared_head) | {locals_[0]} | set(extra))))
        comps.append(members)
    return _assemble(rng, comps, set(head_pool), rng.randint(0, 2))


def random_head_domination_query(rng: random.Random) -> Query:
    """Each existential component contains one member whose output
    attributes cover all the others'."""
    head_pool = [f"A{i}" for i in range(1, rng.randint(1, 4) + 1)]
    comps = []
    for c in range(rng.randint(1, 3)):
        locals_ = [f"B{c}{j}" for j in range(1, rng.randint(1, 2) + 1)]
        dom_head = tuple(sorted(rng.sample(head_pool, rng.randint(0, len(head_pool)))))
        members = [tuple(sorted(set(dom_head) | {locals_[0]}))]
        for _ in range(rng.randint(0, 2)):
            part = rng.sample(dom_head, rng.randint(0, len(dom_head)))
            extra = rng.sample(locals_, rng.randint(0, len(locals_) - 1))
            members.append(tuple(sorted(set(part) | {locals_[0]} | set(extra))))
        comps.append(members)
    return _assemble(rng, comps, set(head_pool), rng.randint(0, 2))


def random_single_nonoutput_query(rng: random.Random) -> Query:
    head_pool = [f"A{i}" for i in range(1, rng.randint(1, 4) + 1)]
    comps = [[]]
    for _ in range(rng.randint(1, 3)):
        part = rng.sample(head_pool, rng.randint(0, len(head_pool)))
        comps[0].append(tuple(sorted(set(part) | {"B"})))
    return _assemble(rng, comps, set(head_pool), rng.randint(0, 2))


def small_random_queries(count: int = 2600, seed: int = 6021) -> list[Query]:
    """`random_query`'s queries of up to five atoms: about one in twenty is
    cyclic, and about one acyclic query in four has a disconnected
    relation graph."""
    rng = random.Random(seed)
    return [random_query(rng, max_relations=5) for _ in range(count)]


def random_db(query: Query, rng: random.Random, max_rows: int = 6,
              domain: int = 3, empty: float = 0.0) -> Database:
    """Each relation gets 1 to `max_rows` random rows, or with chance
    `empty` none at all."""
    tables: dict[str, list[dict[str, str]]] = {}
    for schema in query.relations:
        rows = 0 if empty and rng.random() < empty else rng.randint(1, max_rows)
        tables[schema.name] = [{a: f"{a.lower()}v{rng.randint(1, domain)}"
                                for a in schema.attributes}
                               for _ in range(rows)]
    return Database.build(query, tables)
