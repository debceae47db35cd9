"""Structural analysis of a query and its complexity classification.

Three graphs drive everything:

* relation graph: one vertex per body atom, an edge when two atoms share
  any attribute;
* existential graph: only atoms containing a non-output attribute, an
  edge when two share a non-output attribute;
* non-output co-occurrence graph: one vertex per non-output attribute,
  an edge when two sit together in some atom.

Only their connected components are ever used, and each is found as the
overlap components of one set per vertex: an atom's attributes, an
atom's non-output attributes, or the atoms holding a non-output
attribute.

A component of the existential graph is "dominated" when some relation's
output attributes cover the output attributes of the whole component.
Domination everywhere yields constant-factor approximability; if every
member of every component dominates it, exact solving is polynomial.
Otherwise the query carries a logarithmic hardness certificate: either a
chain of attributes whose endpoints are output attributes never stored
together (a free sequence), or, after collapsing each co-occurrence
component to a single fresh attribute, a set of pairwise co-located
attributes mixing output and non-output such that no relation's output
part covers the set (a nested clique).  None of this reads a database, so
`classify` keeps its last 64 results by query; a result is a frozen
dataclass of tuples, safe to share.  The exact and approx solvers read
their precondition and the existential components from it, the
solvers' head-only witness parts read the join tree that ear removal
finds on an acyclic query, and `pieces` reads the relation components.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InternalInconsistency
from .model import Query, RelationSchema


class Label(str, enum.Enum):
    EXACT_PTIME = "ExactPTime"
    CONST_APPROX = "ConstApprox"
    LOG_HARD = "LogHard"


def _overlap_components(sets: dict[str, frozenset[str]]) -> tuple[tuple[str, ...], ...]:
    """Names grouped when their sets share a member, closed transitively.
    Each group is sorted; groups are ordered by their first name."""
    groups: list[tuple[set[str], set[str]]] = []  # (names, union of their sets)
    for name in sorted(sets):
        names, members = {name}, set(sets[name])
        for group in [g for g in groups if g[1] & members]:
            groups.remove(group)
            names |= group[0]
            members |= group[1]
        groups.append((names, members))
    return tuple(sorted(tuple(sorted(names)) for names, _ in groups))


def relation_components(query: Query) -> tuple[tuple[str, ...], ...]:
    """Components of the relation graph."""
    return _overlap_components({r.name: r.attribute_set for r in query.relations})


# --- acyclicity via ear removal ------------------------------------------

JoinTree = tuple[tuple[int, int], ...]


def _ear_removal(atoms: list[frozenset[str]]) -> JoinTree | None:
    """Ear removal (Graham; Yu and Ozsoyoglu, 1979).  An atom is an ear
    when every attribute it shares with the rest sits inside one other
    atom, its parent.  Removing an ear never changes the outcome, so any
    order works.  Returns the (ear, parent) index pairs in removal order,
    a join tree over every atom but the last one left, or None when the
    atoms are cyclic."""
    alive = list(range(len(atoms)))
    tree: list[tuple[int, int]] = []
    while len(alive) > 1:
        for ear in alive:
            others = [i for i in alive if i != ear]
            shared = atoms[ear] & frozenset().union(*map(atoms.__getitem__, others))
            parent = next((i for i in others if shared <= atoms[i]), None)
            if parent is not None:
                tree.append((ear, parent))
                alive.remove(ear)
                break
        else:
            return None
    return tuple(tree)


# --- domination -----------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One existential-graph component with its output attributes and, when
    one exists, a relation whose output attributes cover them."""

    relations: tuple[str, ...]
    output_attributes: tuple[str, ...]
    dominant: str | None


def existential_components(query: Query) -> tuple[Component, ...]:
    head = query.head_set
    comps = []
    for members in _overlap_components({r.name: r.attribute_set - head
                                        for r in query.relations if r.attribute_set - head}):
        covered = frozenset().union(*(query.head_of(name) for name in members))
        # members first, then every other relation by name; `covered` lies
        # in the head, so holding it is covering it with output attributes
        outside = sorted(r.name for r in query.relations if r.name not in members)
        dominant = next((name for name in members + tuple(outside)
                         if covered <= query.schema(name).attribute_set), None)
        comps.append(Component(members, tuple(sorted(covered)), dominant))
    return tuple(comps)


# --- hardness certificates ------------------------------------------------

@dataclass(frozen=True)
class FreeSequence:
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class NestedClique:
    """A classification's clique is found in, and names attributes of, the
    renamed query (`rename`)."""

    attributes: tuple[str, ...]


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
    the lexicographically smallest wins.

    One breadth-first search per output attribute, expanding only it and
    non-output attributes, each level in order and each attribute's
    neighbours sorted: the first path to reach an attribute is its
    lexicographically smallest shortest one.  The start reaches every
    attribute co-located with it in one step, so an output attribute whose
    path holds three or more attributes is an endpoint never co-located
    with the start."""
    adj = _colocated(query)
    head = query.head_set
    chains: list[tuple[str, ...]] = []
    for start in sorted(head):
        paths = {start: (start,)}
        frontier = [start]
        while frontier:
            nxt: list[str] = []
            for v in frontier:
                for w in sorted(adj[v] - paths.keys()):
                    paths[w] = paths[v] + (w,)
                    if w not in head:
                        nxt.append(w)
            frontier = nxt
        chains += (path for end, path in paths.items() if end in head and len(path) > 2)
    best = min(chains, key=lambda path: (len(path), path), default=None)
    return FreeSequence(best) if best is not None else None


def rename(query: Query) -> Query:
    """Collapse each component of the non-output co-occurrence graph into
    one fresh attribute; output attributes stay put."""
    comps = _overlap_components({a: frozenset(r.name for r in query.relations
                                              if a in r.attribute_set)
                                 for a in query.non_output})
    taken = set(query.attributes)
    fresh: dict[str, str] = {}  # per non-output attribute, its component's name
    for counter, members in enumerate(comps, 1):
        name = f"F{counter}"
        while name in taken:
            name += "_"
        taken.add(name)
        fresh.update(dict.fromkeys(members, name))
    # an atom's non-output attributes are co-located, so all lie in one
    # component and the set below holds at most one name
    return Query(query.head, tuple(
        RelationSchema(r.name, tuple(a for a in r.attributes if a in query.head_set)
                       + tuple({fresh[a] for a in r.attributes if a in fresh}))
        for r in query.relations))


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
            return NestedClique(subset)
    return None


# --- the classification ---------------------------------------------------

@dataclass(frozen=True)
class Classification:
    label: Label
    relation_components: tuple[tuple[str, ...], ...]
    join_tree: JoinTree | None  # ear removal's pairs over `query.relations`; None when cyclic
    free_connex: bool
    full: bool
    head_cluster: bool
    head_domination: bool
    components: tuple[Component, ...]
    certificate: FreeSequence | NestedClique | None

    @property
    def connected(self) -> bool:
        return len(self.relation_components) <= 1

    @property
    def acyclic(self) -> bool:
        return self.join_tree is not None


@lru_cache(maxsize=64)
def classify(query: Query) -> Classification:
    components = existential_components(query)
    head = query.head_set
    # head cluster, pairwise: relations with different output-attribute sets
    # may only share output attributes; cross-checked against the
    # component-wise form, where every member dominates its component
    cluster = True
    for a, b in combinations(query.relations, 2):
        if query.head_of(a.name) != query.head_of(b.name):
            if (a.attribute_set & b.attribute_set) - head:
                cluster = False
                break
    by_components = all(
        query.head_of(name) == frozenset(c.output_attributes)
        for c in components
        for name in c.relations
    )
    if cluster != by_components:
        raise InternalInconsistency(
            f"head-cluster checks disagree: pairwise={cluster}, component-wise={by_components}"
        )
    domination = all(c.dominant is not None for c in components)

    certificate: FreeSequence | NestedClique | None = None
    if cluster:
        label = Label.EXACT_PTIME
    elif domination:
        label = Label.CONST_APPROX
    else:
        label = Label.LOG_HARD
        certificate = find_free_sequence(query) or find_nested_clique(rename(query))
        if certificate is None:
            raise InternalInconsistency("no domination, yet neither hardness certificate was found")

    # free-connex: acyclic, and still so with an atom holding exactly the head
    atoms = [r.attribute_set for r in query.relations]
    tree = _ear_removal(atoms)
    return Classification(
        label=label,
        relation_components=relation_components(query),
        join_tree=tree,
        free_connex=tree is not None and _ear_removal(atoms + [head]) is not None,
        full=query.is_full,
        head_cluster=cluster,
        head_domination=domination,
        components=components,
        certificate=certificate,
    )


def pieces(query: Query) -> tuple[Query, ...]:
    """Q(D)'s factors: per relation component, in `relation_components`'
    order, the subquery of its atoms whose head is the output attributes
    among them, sorted; the query itself when it is connected.  Pieces
    share no attribute, so Q(D) is the product of their result sets."""
    classification = classify(query)
    if classification.connected:
        return (query,)
    return tuple(query.subquery(sorted(frozenset().union(*map(query.head_of, names))), names)
                 for names in classification.relation_components)


def classification_to_json_dict(c: Classification) -> dict:
    if c.certificate is None:
        certificate = None
    elif isinstance(c.certificate, FreeSequence):
        certificate = {"type": "free_sequence", "attributes": list(c.certificate.attributes)}
    else:
        certificate = {
            "type": "nested_clique",
            "attributes": sorted(c.certificate.attributes),
            "in_renamed_query": True,
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
