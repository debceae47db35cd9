"""Structural analysis of a query and its complexity classification.

Three graphs drive everything:

* relation graph: one vertex per body atom, an edge when two atoms share
  any attribute;
* existential graph: only atoms containing a non-output attribute, an
  edge when two share a non-output attribute;
* non-output co-occurrence graph: one vertex per non-output attribute,
  an edge when two sit together in some atom.

A component of the existential graph is "dominated" when some relation's
output attributes cover the output attributes of the whole component.
Domination everywhere yields constant-factor approximability; if every
member of every component dominates it, exact solving is polynomial.
Otherwise the query carries a logarithmic hardness certificate: either a
chain of attributes whose endpoints are output attributes never stored
together (a free sequence), or, after collapsing each co-occurrence
component to a single fresh attribute, a set of pairwise co-located
attributes mixing output and non-output such that no relation's output
part covers the set (a nested clique).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from .errors import InternalInconsistency
from .model import Query, RelationSchema


class Label(str, enum.Enum):
    EXACT_PTIME = "ExactPTime"
    CONST_APPROX = "ConstApprox"
    LOG_HARD = "LogHard"


@dataclass(frozen=True)
class Graph:
    """Tiny undirected graph with deterministic component order."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # each edge stored as a sorted pair

    def neighbours(self, v: str) -> list[str]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return sorted(out)

    def components(self) -> tuple[tuple[str, ...], ...]:
        remaining = set(self.vertices)
        comps: list[tuple[str, ...]] = []
        while remaining:
            start = min(remaining)
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in self.neighbours(v):
                    if w in remaining and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            remaining -= seen
            comps.append(tuple(sorted(seen)))
        return tuple(sorted(comps, key=lambda c: c[0]))

    @property
    def connected(self) -> bool:
        return len(self.components()) <= 1


@dataclass(frozen=True)
class StructureGraphs:
    relation_graph: Graph
    existential_graph: Graph
    nonoutput_graph: Graph


def build_graphs(query: Query) -> StructureGraphs:
    rels = query.relations
    head = query.head_set

    rel_edges = set()
    for a, b in combinations(rels, 2):
        if a.attribute_set & b.attribute_set:
            rel_edges.add(tuple(sorted((a.name, b.name))))
    relation_graph = Graph(tuple(sorted(r.name for r in rels)), frozenset(rel_edges))

    exist_rels = [r for r in rels if r.attribute_set - head]
    exist_edges = set()
    for a, b in combinations(exist_rels, 2):
        if (a.attribute_set & b.attribute_set) - head:
            exist_edges.add(tuple(sorted((a.name, b.name))))
    existential_graph = Graph(tuple(sorted(r.name for r in exist_rels)), frozenset(exist_edges))

    nonoutput = [a for a in query.attributes if a not in head]
    no_edges = set()
    for r in rels:
        private = sorted(r.attribute_set - head)
        for a, b in combinations(private, 2):
            no_edges.add((a, b))
    nonoutput_graph = Graph(tuple(nonoutput), frozenset(no_edges))

    return StructureGraphs(relation_graph, existential_graph, nonoutput_graph)


# --- acyclicity via ear removal ------------------------------------------

def _acyclic(atoms: list[frozenset[str]]) -> bool:
    """Ear removal (Graham; Yu and Ozsoyoglu, 1979).  An atom is an ear
    when every attribute it shares with the rest sits inside one other
    atom.  Removing an ear never changes the outcome, so any order works."""
    alive = list(atoms)
    while len(alive) > 1:
        for i, attrs in enumerate(alive):
            others = alive[:i] + alive[i + 1:]
            shared = attrs & frozenset().union(*others)
            if any(shared <= other for other in others):
                del alive[i]
                break
        else:
            return False
    return True


def is_acyclic(query: Query) -> bool:
    return _acyclic([r.attribute_set for r in query.relations])


def is_free_connex(query: Query) -> bool:
    """Acyclic, and still acyclic after adding an atom holding exactly the
    head attributes."""
    atoms = [r.attribute_set for r in query.relations]
    return _acyclic(atoms) and _acyclic(atoms + [query.head_set])


# --- domination -----------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One existential-graph component with its output attributes and, when
    one exists, a relation whose output attributes cover them."""

    relations: tuple[str, ...]
    output_attributes: tuple[str, ...]
    dominant: str | None


def existential_components(query: Query) -> tuple[Component, ...]:
    graphs = build_graphs(query)
    comps = []
    for members in graphs.existential_graph.components():
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


def has_head_domination(query: Query) -> bool:
    return all(c.dominant is not None for c in existential_components(query))


def has_head_cluster(query: Query) -> bool:
    """Pairwise form: relations with different output-attribute sets may
    only share output attributes.  Cross-validated against the
    component-wise form (every member dominates its component)."""
    head = query.head_set
    pairwise = True
    for a, b in combinations(query.relations, 2):
        if query.head_of(a.name) != query.head_of(b.name):
            if (a.attribute_set & b.attribute_set) - head:
                pairwise = False
                break
    by_components = all(
        query.head_of(name) == frozenset(c.output_attributes)
        for c in existential_components(query)
        for name in c.relations
    )
    if pairwise != by_components:
        raise InternalInconsistency(
            f"head-cluster checks disagree: pairwise={pairwise}, component-wise={by_components}"
        )
    return pairwise


# --- hardness certificates ------------------------------------------------

@dataclass(frozen=True)
class FreeSequence:
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class NestedClique:
    attributes: tuple[str, ...]
    in_renamed_query: bool = True


def _colocated(query: Query) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {a: set() for a in query.attributes}
    for r in query.relations:
        for a, b in combinations(sorted(r.attribute_set), 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def find_free_sequence(query: Query) -> FreeSequence | None:
    """Shortest chain of attributes, output at the ends only, consecutive
    ones co-located, endpoints never co-located.  Among shortest chains
    the lexicographically smallest wins."""
    adj = _colocated(query)
    head = sorted(query.head_set)
    non_output = set(query.non_output)
    best: tuple[str, ...] | None = None
    for start in head:
        for goal in head:
            if goal == start or goal in adj[start]:
                continue
            allowed = non_output | {start, goal}
            dist = {goal: 0}
            frontier = [goal]
            while frontier:
                nxt: list[str] = []
                for v in frontier:
                    for w in sorted(adj[v]):
                        if w in allowed and w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            if start not in dist:
                continue
            path = [start]
            current = start
            while current != goal:
                current = min(w for w in adj[current]
                              if w in dist and dist[w] == dist[current] - 1
                              and (w in non_output or w == goal))
                path.append(current)
            candidate = tuple(path)
            key = (len(candidate), candidate)
            if best is None or key < (len(best), best):
                best = candidate
    return FreeSequence(best) if best is not None else None


def rename(query: Query) -> Query:
    """Collapse each component of the non-output co-occurrence graph into
    one fresh attribute; output attributes stay put."""
    graphs = build_graphs(query)
    comps = graphs.nonoutput_graph.components()
    taken = set(query.attributes)
    fresh: dict[frozenset[str], str] = {}
    counter = 1
    for members in comps:
        name = f"F{counter}"
        while name in taken:
            name += "_"
        taken.add(name)
        fresh[frozenset(members)] = name
        counter += 1
    relations = []
    for r in query.relations:
        attrs = [a for a in r.attributes if a in query.head_set]
        for members in comps:
            if set(members) & r.attribute_set:
                attrs.append(fresh[frozenset(members)])
        relations.append(RelationSchema(r.name, tuple(attrs)))
    return Query(query.head, tuple(relations))


def find_nested_clique(query: Query) -> NestedClique | None:
    """Smallest pairwise co-located attribute set mixing output and
    non-output attributes whose output part no relation covers.
    Searched in increasing size, then lexicographic order."""
    adj = _colocated(query)
    attrs = query.attributes
    head = query.head_set
    for size in range(2, len(attrs) + 1):
        for subset in combinations(attrs, size):
            if not all(b in adj[a] for a, b in combinations(subset, 2)):
                continue
            inside = set(subset) & head
            outside = set(subset) - head
            if not inside or not outside:
                continue
            if any(inside <= query.head_of(r.name) for r in query.relations):
                continue
            return NestedClique(subset, in_renamed_query=False)
    return None


# --- the classification ---------------------------------------------------

@dataclass(frozen=True)
class Classification:
    label: Label
    connected: bool
    acyclic: bool
    free_connex: bool
    full: bool
    head_cluster: bool
    head_domination: bool
    components: tuple[Component, ...]
    certificate: FreeSequence | NestedClique | None


def classify(query: Query) -> Classification:
    graphs = build_graphs(query)
    components = existential_components(query)
    cluster = has_head_cluster(query)
    domination = all(c.dominant is not None for c in components)

    certificate: FreeSequence | NestedClique | None = None
    if cluster:
        label = Label.EXACT_PTIME
    elif domination:
        label = Label.CONST_APPROX
    else:
        label = Label.LOG_HARD
        sequence = find_free_sequence(query)
        if sequence is not None:
            certificate = sequence
        else:
            clique = find_nested_clique(rename(query))
            if clique is None:
                raise InternalInconsistency(
                    "no domination, yet neither hardness certificate was found"
                )
            certificate = NestedClique(clique.attributes, in_renamed_query=True)

    return Classification(
        label=label,
        connected=graphs.relation_graph.connected,
        acyclic=is_acyclic(query),
        free_connex=is_free_connex(query),
        full=query.is_full,
        head_cluster=cluster,
        head_domination=domination,
        components=components,
        certificate=certificate,
    )


def classification_to_json_dict(c: Classification) -> dict:
    if c.certificate is None:
        certificate = None
    elif isinstance(c.certificate, FreeSequence):
        certificate = {"type": "free_sequence", "attributes": list(c.certificate.attributes)}
    else:
        certificate = {
            "type": "nested_clique",
            "attributes": sorted(c.certificate.attributes),
            "in_renamed_query": c.certificate.in_renamed_query,
        }
    return {
        "spec": "1",
        "label": c.label.value,
        "connected": c.connected,
        "acyclic": c.acyclic,
        "free_connex": c.free_connex,
        "full": c.full,
        "head_cluster": c.head_cluster,
        "head_domination": c.head_domination,
        "components": [
            {
                "relations": list(comp.relations),
                "output_attrs": list(comp.output_attributes),
                "dominant": comp.dominant,
            }
            for comp in c.components
        ],
        "certificate": certificate,
    }
