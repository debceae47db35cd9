"""Test-side reference code that no `witness-lab` route runs: a single
result's witness, the densest set of labelled hyperedges, the directed
Steiner forest side of the path-query reduction (per-pair paths, the
demand check, and the maps between witnesses and edge sets),
exhaustive minimum set cover and label cover, a CSV loader that reads
one record at a time, the existential components with their dominant
relations found by two searches, and the free sequence found among
every simple path."""
from __future__ import annotations

import csv
import io
import itertools
from fractions import Fraction
from pathlib import Path

from witness_lab.densest import _DensityCore
from witness_lab.dsf import DsfEdge, DsfInstance
from witness_lab.engine import full_join_results
from witness_lab.errors import (
    HeaderMismatch,
    MalformedCsv,
    RaggedRow,
    UncoverableUniverse,
    UnsatisfiableConstraint,
)
from witness_lab.generators import LabelCoverInstance, SetCoverInstance
from witness_lab.model import Database, Query, projection
from witness_lab.structure import Component, _overlap_components


def single_result_witness(query: Query, db: Database, result: tuple[str, ...]) -> Database:
    """One tuple per relation reproducing `result`, a tuple over the sorted
    head: the smallest full join result projecting onto it."""
    to_head = projection(query.attributes, sorted(query.head))
    fj = min(row for row in full_join_results(query, db) if to_head(row) == result)
    parts = {schema.name: {projection(query.attributes, schema.sorted_attributes)(fj)}
             for schema in query.relations}
    return Database.of(query, parts)


def load_database_per_record(query: Query, directory: Path) -> Database:
    """`storage.load_database` on readable relation files, as a loop that
    checks and projects each CSV record in turn: the first record that is
    ragged or not valid CSV raises with the line the reader is on."""
    instances = {}
    for schema in query.relations:
        text = (directory / f"{schema.name}.csv").read_bytes().decode("utf-8-sig")
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader, ())
            if sorted(header) != sorted(schema.attributes):
                raise HeaderMismatch(schema.name, schema.attributes, header)
            to_row = projection(header, schema.sorted_attributes)
            rows = set()
            for record in reader:
                if not record:
                    continue  # blank line
                if len(record) != len(header):
                    raise RaggedRow(schema.name, reader.line_num)
                rows.add(to_row(record))
        except csv.Error as exc:
            raise MalformedCsv(schema.name, reader.line_num, str(exc)) from None
        instances[schema.name] = frozenset(rows)
    return Database(instances)


def max_density_set(edges: dict[frozenset, int]) -> tuple[frozenset, Fraction]:
    """The lexicographically smallest densest set of a dict of weighted,
    labelled hyperedges, and its density; labels are numbered in sorted
    order."""
    vertices = sorted(set().union(*edges))
    index = {v: i for i, v in enumerate(vertices)}
    core = _DensityCore([sorted(index[v] for v in edge) for edge in edges],
                        list(edges.values()), len(vertices))
    subset, _, p, q = core.densest()
    return frozenset(vertices[v] for v in subset), Fraction(p, q)


def _reach(adjacency: dict[str, list[str]], start: str) -> set[str]:
    """The nodes `adjacency` leads to from `start`, `start` included."""
    seen = {start}
    frontier = [start]
    while frontier:
        for node in adjacency.get(frontier.pop(), ()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return seen


def dsf_per_pair_paths(instance: DsfInstance) -> frozenset[int]:
    """One path per demand, each the lexicographically smallest among the
    demand's paths; returns the union of their edge ids."""
    outgoing: dict[str, list[DsfEdge]] = {}
    incoming: dict[str, list[str]] = {}
    for edge in instance.edges:
        outgoing.setdefault(edge.source, []).append(edge)
        incoming.setdefault(edge.target, []).append(edge.source)
    reaches = {target: _reach(incoming, target) for _, target in instance.demands}
    chosen: set[int] = set()
    for source, target in instance.demands:
        reach = reaches[target]
        if source not in reach:
            raise ValueError(f"demand pair {(source, target)} has no connecting path")
        node = source
        while node != target:
            step = min((e for e in outgoing[node] if e.target in reach),
                       key=lambda e: (e.target, e.id))
            chosen.add(step.id)
            node = step.target
    return frozenset(chosen)


def edges_connect_demands(instance: DsfInstance, edge_ids: frozenset[int]) -> bool:
    """Whether the edge selection routes every demand pair."""
    outgoing: dict[str, list[str]] = {}
    for edge in instance.edges:
        if edge.id in edge_ids:
            outgoing.setdefault(edge.source, []).append(edge.target)
    reaches = {source: _reach(outgoing, source) for source, _ in instance.demands}
    return all(target in reaches[source] for source, target in instance.demands)


def witness_to_edge_ids(instance: DsfInstance, witness: Database) -> frozenset[int]:
    return frozenset(e.id for e in instance.edges
                     if e.row in witness.instances.get(e.relation, frozenset()))


def pull_back(query: Query, instance: DsfInstance, edge_ids: frozenset[int]) -> Database:
    parts: dict[str, set[tuple[str, ...]]] = {}
    for edge in instance.edges:
        if edge.id in edge_ids:
            parts.setdefault(edge.relation, set()).add(edge.row)
    return Database.of(query, parts)


def min_cover_size(instance: SetCoverInstance) -> int:
    """Exhaustive minimum set cover size."""
    universe = set(instance.universe)
    for size in range(1, len(instance.subsets) + 1):
        for combo in itertools.combinations(instance.subsets, size):
            if set().union(*combo) == universe:
                return size
    raise UncoverableUniverse()  # unreachable; construction validates coverage


def min_label_cover_cost(instance: LabelCoverInstance) -> int:
    """Exhaustive minimum labelling cost: every left vertex gets a
    nonempty label set, every right vertex a label set hitting one
    admissible pair against every left vertex's labels."""
    n = instance.n
    left_choices = [frozenset(c)
                    for size in range(1, len(instance.alphabet) + 1)
                    for c in itertools.combinations(instance.alphabet, size)]

    def min_hitting(targets: list[frozenset[str]]) -> int | None:
        pool = sorted(set().union(*targets)) if targets else []
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                picked = set(combo)
                if all(t & picked for t in targets):
                    return size
        return None

    best: int | None = None
    for assignment in itertools.product(left_choices, repeat=n):
        cost = sum(len(labels) for labels in assignment)
        if best is not None and cost + n >= best:
            continue
        feasible = True
        for v in range(1, n + 1):
            targets = []
            for u in range(1, n + 1):
                allowed = frozenset(y for x, y in instance.constraints[(u, v)]
                                    if x in assignment[u - 1])
                if not allowed:
                    feasible = False
                    break
                targets.append(allowed)
            if not feasible:
                break
            hit = min_hitting(targets)
            if hit is None:
                feasible = False
                break
            cost += hit
        if feasible and (best is None or cost < best):
            best = cost
    if best is None:
        raise UnsatisfiableConstraint((0, 0))  # unreachable: full alphabet always works
    return best


def two_loop_existential_components(query: Query) -> tuple[Component, ...]:
    """`structure.existential_components` as two searches for the
    dominant relation: first the members, then every other relation by
    name, testing its output attributes."""
    head = query.head_set
    comps = []
    for members in _overlap_components({r.name: r.attribute_set - head
                                        for r in query.relations if r.attribute_set - head}):
        covered = frozenset().union(*(query.head_of(name) for name in members))
        dominant = None
        for name in members:
            if covered <= query.schema(name).attribute_set:
                dominant = name
                break
        if dominant is None:
            for schema in sorted(query.relations, key=lambda r: r.name):
                if schema.name not in members and covered <= schema.attribute_set & query.head_set:
                    dominant = schema.name
                    break
        comps.append(Component(members, tuple(sorted(covered)), dominant))
    return tuple(comps)


def brute_force_free_sequence(query: Query) -> tuple[str, ...] | None:
    """Every simple path from an output attribute, through non-output
    attributes, to an output attribute not co-located with the start; the
    shortest, ties to the lexicographically smallest, or None when there
    is none."""
    head = set(query.head)
    colocated = {(a, b) for r in query.relations for a in r.attributes for b in r.attributes}
    attributes = {a for r in query.relations for a in r.attributes}
    paths = []

    def extend(path: tuple[str, ...]) -> None:
        for attribute in attributes - set(path):
            if (path[-1], attribute) not in colocated:
                continue
            if attribute not in head:
                extend(path + (attribute,))
            elif (path[0], attribute) not in colocated:
                paths.append(path + (attribute,))

    for start in head:
        extend((start,))
    return min(paths, key=lambda path: (len(path), path), default=None)
