"""Densest-set search by parametric minimum cut, in exact rationals.

Density of a vertex set S is the total weight of (hyper)edges falling
inside S divided by |S|.  For a guessed density g = p/q the flow network
is Goldberg's ("Finding a maximum density subgraph", UCB TR 1984), with
weighted hyperedges: source -> hyperedge (weight * q), hyperedge -> each
member (infinite), vertex -> sink (p).  A minimum cut's source side
holds a set maximising q*weight(S) - p*|S|, and that maximum is
q*(total weight) minus the maximum flow.  The guess is scaled to
integers, which keeps flow values exact.

The max-flow is written for this network alone, on plain lists: the
spare supply of each hyperedge, the spare room of each vertex and the
flow on each (hyperedge, member) pair.  A greedy pass pushes what fits
along each hyperedge's members.  Shortest augmenting paths (Edmonds and
Karp, JACM 1972) finish the flow: a breadth-first search starts at every
hyperedge with spare supply, goes hyperedge -> member always and vertex
-> hyperedge where that pair carries flow, and a path ends at a vertex
with room.  Because the paths are shortest, the number of augmentations
is bounded by the network's size whatever the capacities are.

Minimum cuts form a lattice (Picard and Queyranne, Math. Prog. Study
13, 1980): after any maximum flow, the nodes the source still reaches in
the residual network are the smallest min-cut source side, and the nodes
that cannot reach the sink are the largest.  So one flow yields the
smallest maximiser, the largest maximiser and the maximum itself.

The optimum comes from Dinkelbach's iteration (Management Science,
1967): start at the density of the whole vertex set and move g to the
density of the smallest maximiser until it is empty.  Each step strictly
raises g, and a search of k steps runs k + 1 max-flows.

The returned set is the lexicographically smallest optimal one.  At the
optimal density d* the maximisers of weight(S) - d*|S| are the empty set
and the optimal sets; they are closed under union, so the largest
maximiser of the last flow is the union of all optimal sets.  Every
optimal set lies inside it, so the answer is the shortest prefix of the
sorted union that reaches the optimal density.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

# Pricing never evaluates Q(D); `evaluate` stays importable because the
# benchmark's traced run (bench/layers.py) wraps `densest.evaluate`.
from .engine import evaluate  # noqa: F401
from .errors import EmptyEdgeSet, InternalInconsistency
from .model import Query, projection


_WeightedEdge = tuple[frozenset, int]


class _DensityCore:
    """One weighted hypergraph plus the flow-based decision oracles.

    Hyperedges and vertices are numbered: `members[e]` lists the vertex
    indices of hyperedge e, and `incident[v]` the (hyperedge, position)
    pairs that hold vertex v."""

    def __init__(self, edges: Mapping[frozenset, int]):
        if not edges:
            raise EmptyEdgeSet
        for edge in edges:
            if not edge:
                raise ValueError("hyperedges must be nonempty")
        self.edges: list[_WeightedEdge] = list(edges.items())
        self.vertices: list = sorted(set().union(*edges))
        self.total_weight = sum(w for _, w in self.edges)
        index = {v: i for i, v in enumerate(self.vertices)}
        self.members = [sorted(index[v] for v in edge) for edge, _ in self.edges]
        self.incident: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e, members in enumerate(self.members):
            for k, v in enumerate(members):
                self.incident[v].append((e, k))

    def max_flow(self, supply: list[int], room: list[int],
                 flow: list[list[int]]) -> tuple[int, list]:
        """Saturates the network in place: `supply[e]` is the spare
        capacity of source -> e, `room[v]` that of v -> sink, `flow[e][k]`
        the flow on e -> members[e][k].  Returns the flow value and, per
        vertex, the arc by which the last (failing) search reached it."""
        members, incident = self.members, self.incident
        total = sum(supply)
        for e, ms in enumerate(members):  # greedy: push what fits
            for k, v in enumerate(ms):
                x = flow[e][k] = min(supply[e], room[v])
                supply[e] -= x
                room[v] -= x
        while True:
            # Shortest augmenting paths: hyperedge -> member always, vertex
            # -> hyperedge where that pair carries flow; a path ends at a
            # vertex with room.
            via: list = [None] * len(self.vertices)  # (e, k) reaching each vertex
            # per hyperedge: -1 at a start, else k of the vertex reaching it
            back: list = [-1 if s else None for s in supply]
            frontier = [e for e, s in enumerate(supply) if s]
            ends: list[int] = []
            while frontier and not ends:
                reached = []
                for e in frontier:
                    for k, v in enumerate(members[e]):
                        if via[v] is None:
                            via[v] = (e, k)
                            (ends if room[v] else reached).append(v)
                frontier = []
                if not ends:
                    for v in reached:
                        for e, k in incident[v]:
                            if back[e] is None and flow[e][k]:
                                back[e] = k
                                frontier.append(e)
            if not ends:
                return total - sum(supply), via
            # Augmenting never shortens a residual distance, so a tree
            # path to a later end whose arcs all keep spare capacity is
            # again a shortest path.
            for end in ends:
                path, v = [], end  # (hyperedge, member position) arcs
                while True:
                    e, k = via[v]
                    path.append((e, k))
                    if back[e] < 0:
                        break
                    v = members[e][back[e]]
                x = min(room[end], supply[e], *(flow[f][back[f]] for f, _ in path[:-1]))
                if x:
                    room[end] -= x
                    supply[e] -= x
                    for f, k in path:
                        flow[f][k] += x
                        if back[f] >= 0:
                            flow[f][back[f]] -= x

    def cuts(self, g: Fraction) -> tuple[frozenset, frozenset, int]:
        """From one maximum flow at g = p/q: the smallest and the largest
        maximiser of weight(S) - g*|S| (the vertices the source reaches in
        the residual network, and those that cannot reach the sink), and
        the maximum q*weight(S) - p*|S| as a scaled integer."""
        p, q = g.numerator, g.denominator
        supply = [w * q for _, w in self.edges]
        room = [p] * len(self.vertices)
        flow = [[0] * len(ms) for ms in self.members]
        pushed, via = self.max_flow(supply, room, flow)
        # backwards from the sink: v -> sink with room, e -> any member,
        # and a member -> e where the pair carries flow
        drains = [bool(r) for r in room]
        stack = [v for v, r in enumerate(room) if r]
        seen = [False] * len(self.members)
        while stack:
            for e, _ in self.incident[stack.pop()]:
                if not seen[e]:
                    seen[e] = True
                    for k, u in enumerate(self.members[e]):
                        if not drains[u] and flow[e][k]:
                            drains[u] = True
                            stack.append(u)
        smallest = frozenset(v for v, arc in zip(self.vertices, via) if arc is not None)
        largest = frozenset(v for v, d in zip(self.vertices, drains) if not d)
        return smallest, largest, q * self.total_weight - pushed

    def density(self, subset: frozenset) -> Fraction:
        return Fraction(sum(w for e, w in self.edges if e <= subset), len(subset))


def _max_density_set(edges: Mapping[frozenset, int]) -> tuple[frozenset, Fraction]:
    core = _DensityCore(edges)

    # Dinkelbach: each nonempty maximiser at g is strictly denser than g.
    density = Fraction(core.total_weight, len(core.vertices))
    while True:
        improving, union, best = core.cuts(density)
        if not improving:
            break
        density, previous = core.density(improving), density
        if density <= previous:
            raise InternalInconsistency(f"maximiser at {previous} is no denser")
    if best != 0:
        raise InternalInconsistency(
            f"density search did not converge: best value {best} at {density}")

    # At the optimum the maximisers are the empty set and the optimal
    # sets, so the largest one is the union of all optimal sets.
    if not union:
        raise InternalInconsistency("empty union of the optimal sets")

    # Every optimal set lies inside the union, so the lexicographically
    # smallest one is its shortest optimal prefix in sorted order.  An
    # edge falls inside a prefix once the prefix reaches its largest vertex.
    ordered = sorted(union)
    position = {v: i for i, v in enumerate(ordered)}
    weight_closed_at = [0] * len(ordered)
    for edge, w in core.edges:
        if edge <= union:
            weight_closed_at[max(position[v] for v in edge)] += w
    inside = 0
    for size, closed in enumerate(weight_closed_at, start=1):
        inside += closed
        if inside * density.denominator == density.numerator * size:
            break
    subset = frozenset(ordered[:size])
    achieved = core.density(subset)
    if achieved != density:
        raise InternalInconsistency(f"returned set achieves {achieved}, search said {density}")
    return subset, density


# --- pricing for the greedy cover solver ----------------------------------

@dataclass(frozen=True)
class PricedCandidate:
    """Per-relation tuple subsets at one join value, with the results they
    newly cover and the exact price (tuples spent per new result)."""

    subsets: Mapping[str, frozenset]
    new_results: frozenset
    price: Fraction


_Group = list[tuple[tuple[str, ...], frozenset]]


def demand_groups(query: Query, rows: Iterable[tuple[str, ...]]) -> dict[str, _Group]:
    """Full join results grouped by the value of the single non-output
    attribute b: per value, (result, demand key) pairs in row order.  A
    result reachable at b demands one tuple per relation holding b, and
    its key is the frozenset of those (relation name, tuple) pairs."""
    b_attr, = query.non_output
    at = query.attributes.index(b_attr)
    to_head = projection(query.attributes, sorted(query.head))
    b_rels = [(rel.name, projection(query.attributes, rel.sorted_attributes))
              for rel in query.relations if b_attr in rel.attribute_set]
    groups: dict[str, _Group] = {}
    for fj in rows:
        key = frozenset([(name, to_rel(fj)) for name, to_rel in b_rels])
        groups.setdefault(fj[at], []).append((to_head(fj), key))
    return groups


def min_price_candidate(group: _Group, covered: frozenset) -> PricedCandidate | None:
    """Cheapest tuple selection at one value of the single non-output
    attribute, from that value's entry of `demand_groups`.  Each
    yet-uncovered result in the group demands one specific tuple per
    relation containing that attribute, so the best selection is a
    maximum-density vertex set; identical demands from several results
    count with multiplicity."""
    edge_weight: dict[frozenset, int] = {}
    edge_results: dict[frozenset, list[tuple[str, ...]]] = {}
    for t, key in group:
        if t not in covered:
            edge_weight[key] = edge_weight.get(key, 0) + 1
            edge_results.setdefault(key, []).append(t)
    if not edge_weight:
        return None

    subset, density = _max_density_set(edge_weight)
    new_results = frozenset(t for key, ts in edge_results.items() if key <= subset for t in ts)
    price = Fraction(len(subset), len(new_results))
    if price != 1 / density:
        raise InternalInconsistency(f"price {price} disagrees with density {density}")
    parts: dict[str, set[tuple[str, ...]]] = {}
    for rel_name, row in subset:
        parts.setdefault(rel_name, set()).add(row)
    return PricedCandidate({k: frozenset(v) for k, v in parts.items()}, new_results, price)
