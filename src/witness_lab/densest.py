"""Densest-set search by parametric minimum cut, in exact rationals.

Density of a vertex set S is the total weight of (hyper)edges falling
inside S divided by |S|.  For a guessed density g = p/q the flow network
has source -> edge-node (weight * q), edge-node -> each endpoint
(infinite), vertex -> sink (p).  A minimum cut's source side holds a set
maximising q*weight(S) - p*|S|, and that maximum is q*(total weight)
minus the maximum flow.  The guess is scaled to integers, which keeps
flow values exact.

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
from typing import Mapping

from .engine import evaluate
from .errors import EmptyEdgeSet, InternalInconsistency, PreconditionViolated
from .model import Database, Query, projection


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def levels(self, start: int, forward: bool = True) -> list[int]:
        """Residual BFS distance of each node from `start`, or with
        forward=False to `start`; -1 where there is no residual path."""
        adj = self.adj
        level = [-1] * self.n
        level[start] = 0
        queue = [start]
        for u in queue:
            for v, cap, rev in adj[u]:
                if level[v] < 0 and (cap if forward else adj[v][rev][1]) > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs(self, u: int, t: int, flow: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return flow
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(flow, cap), level, it)
                if pushed:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (level := self.levels(s))[t] >= 0:
            it = [0] * self.n
            while pushed := self._dfs(s, t, 1 << 62, level, it):
                total += pushed
        return total


_WeightedEdge = tuple[frozenset, int]


class _DensityCore:
    """One weighted hypergraph plus the flow-based decision oracles."""

    def __init__(self, edges: Mapping[frozenset, int]):
        if not edges:
            raise EmptyEdgeSet
        for edge in edges:
            if not edge:
                raise ValueError("hyperedges must be nonempty")
        self.edges: list[_WeightedEdge] = list(edges.items())
        self.vertices: list = sorted(set().union(*edges))
        self.total_weight = sum(w for _, w in self.edges)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.first_vertex = 2 + len(self.edges)  # network node of vertices[0]

    def cuts(self, g: Fraction) -> tuple[frozenset, frozenset, int]:
        """From one maximum flow at g = p/q: the smallest and the largest
        maximiser of weight(S) - g*|S| (the vertices the source reaches in
        the residual network, and those that cannot reach the sink), and
        the maximum q*weight(S) - p*|S| as a scaled integer."""
        p, q = g.numerator, g.denominator
        infinite = q * self.total_weight + p * len(self.vertices) + 1
        dinic = _Dinic(2 + len(self.edges) + len(self.vertices))
        source, sink = 0, 1
        for i, (edge, w) in enumerate(self.edges):
            dinic.add_edge(source, 2 + i, w * q)
            for v in edge:
                dinic.add_edge(2 + i, self.first_vertex + self.index[v], infinite)
        for i in range(len(self.vertices)):
            dinic.add_edge(self.first_vertex + i, sink, p)
        best = q * self.total_weight - dinic.max_flow(source, sink)
        from_source = dinic.levels(source)[self.first_vertex:]
        to_sink = dinic.levels(sink, forward=False)[self.first_vertex:]
        smallest = frozenset(v for v, level in zip(self.vertices, from_source) if level >= 0)
        largest = frozenset(v for v, level in zip(self.vertices, to_sink) if level < 0)
        return smallest, largest, best

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


# --- public instances -----------------------------------------------------

@dataclass(frozen=True)
class BipartiteDensityInstance:
    left: tuple
    right: tuple
    edges: frozenset  # of (left vertex, right vertex) pairs

    def __post_init__(self):
        left, right = set(self.left), set(self.right)
        for x, y in self.edges:
            if x not in left or y not in right:
                raise ValueError(f"edge ({x!r}, {y!r}) leaves the vertex sets")


@dataclass(frozen=True)
class HypergraphDensityInstance:
    vertices: tuple
    edges: frozenset  # of frozensets, all the same rank

    def __post_init__(self):
        ranks = {len(e) for e in self.edges}
        if len(ranks) > 1:
            raise ValueError(f"mixed hyperedge ranks {sorted(ranks)}")
        vertex_set = set(self.vertices)
        for edge in self.edges:
            if not edge:
                raise ValueError("hyperedges must be nonempty")
            if not set(edge) <= vertex_set:
                raise ValueError(f"hyperedge {sorted(map(repr, edge))} leaves the vertex set")


def densest_bipartite(instance: BipartiteDensityInstance) -> tuple[frozenset, frozenset, Fraction]:
    """Densest subgraph (edges inside over vertices chosen); isolated
    vertices never help, so they are dropped up front."""
    edges = {frozenset({("L", x), ("R", y)}): 1 for x, y in instance.edges}
    subset, density = _max_density_set(edges)
    chosen_left = frozenset(v for side, v in subset if side == "L")
    chosen_right = frozenset(v for side, v in subset if side == "R")
    return chosen_left, chosen_right, density


def densest_hypergraph(instance: HypergraphDensityInstance) -> tuple[frozenset, Fraction]:
    edges = {frozenset(e): 1 for e in instance.edges}
    subset, density = _max_density_set(edges)
    return subset, density


# --- pricing for the greedy cover solver ----------------------------------

@dataclass(frozen=True)
class PricedCandidate:
    """Per-relation tuple subsets at one join value, with the results they
    newly cover and the exact price (tuples spent per new result)."""

    b_value: str
    subsets: Mapping[str, frozenset]
    new_results: frozenset
    price: Fraction

    def __post_init__(self):
        object.__setattr__(self, "subsets", dict(self.subsets))


def min_price_candidate(query: Query, db: Database, b_value: str,
                        covered: frozenset, results: frozenset | None = None) -> PricedCandidate | None:
    """Cheapest tuple selection at one value of the single non-output
    attribute.  Each yet-uncovered result reachable at the value demands
    one specific tuple per relation containing that attribute, so the
    best selection is a maximum-density vertex set; identical demands
    from several results count with multiplicity."""
    non_output = query.non_output
    if len(non_output) != 1:
        raise PreconditionViolated("exactly one non-output attribute")
    b_attr = non_output[0]
    if results is None:
        results = evaluate(query, db)

    # per relation holding b_attr: its tuples, its head values, b_attr's position
    head = sorted(query.head)
    b_rels = [(rel.name, db.instances[rel.name],
               projection(head, [a for a in rel.sorted_attributes if a != b_attr]),
               rel.sorted_attributes.index(b_attr))
              for rel in query.relations if b_attr in rel.attribute_set]
    edge_weight: dict[frozenset, int] = {}
    edge_results: dict[frozenset, list[tuple[str, ...]]] = {}
    for t in results - covered:
        needed = []
        for name, instance, values_of, at in b_rels:
            values = values_of(t)
            row = values[:at] + (b_value,) + values[at:]
            if row not in instance:
                break
            needed.append((name, row))
        else:
            key = frozenset(needed)
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
    return PricedCandidate(b_value, {k: frozenset(v) for k, v in parts.items()},
                           new_results, price)

