"""Densest-set search by parametric minimum cut, in exact rationals.

Density of a vertex set S is the total weight of (hyper)edges falling
inside S divided by |S|.  For a guessed density g = p/q the flow network
has source -> edge-node (weight * q), edge-node -> each endpoint
(infinite), vertex -> sink (p).  The source side of the minimal minimum
cut is the smallest set maximising q*weight(S) - p*|S|, which is
nonempty exactly when some set is denser than g.  The guess is scaled to
integers, which keeps max-flow values exact.

The optimum comes from Dinkelbach's iteration (Management Science,
1967): start at the density of the whole vertex set and move g to the
density of the cut set until the cut set is empty.  Each step strictly
raises g, and only a few steps are needed in practice.

The returned set is the lexicographically smallest optimal one.  One
more cut, just below the optimum, yields the union of all optimal sets;
every optimal set lies inside it, so the answer is the shortest prefix of
the sorted union that reaches the optimal density.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .engine import evaluate
from .errors import EmptyEdgeSet, InternalInconsistency, PreconditionViolated
from .model import Database, Query, Row


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else []

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
        while True:
            level = self._bfs(s, t)
            if not level:
                return total
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 62, level, it)
                if not pushed:
                    break
                total += pushed

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


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

    def _network(self, g: Fraction):
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
        return dinic

    def best_value(self, g: Fraction) -> int:
        """max over S of q*weight(S) - p*|S|, as a scaled integer."""
        return g.denominator * self.total_weight - self._network(g).max_flow(0, 1)

    def cut_set(self, g: Fraction) -> frozenset:
        """Vertices on the source side of the minimal minimum cut: the
        smallest maximiser of weight(S) - g*|S|."""
        dinic = self._network(g)
        dinic.max_flow(0, 1)
        reach = dinic.residual_reachable(0)
        return frozenset(v for i, v in enumerate(self.vertices) if self.first_vertex + i in reach)

    def density(self, subset: frozenset) -> Fraction:
        return Fraction(sum(w for e, w in self.edges if e <= subset), len(subset))


def _max_density_set(edges: Mapping[frozenset, int]) -> tuple[frozenset, Fraction]:
    core = _DensityCore(edges)
    n_vertices = len(core.vertices)

    # Dinkelbach: each nonempty maximiser at g is strictly denser than g.
    density = Fraction(core.total_weight, n_vertices)
    while improving := core.cut_set(density):
        density, previous = core.density(improving), density
        if density <= previous:
            raise InternalInconsistency(f"maximiser at {previous} is no denser")
    if core.best_value(density) > 0:
        raise InternalInconsistency("density search did not converge")

    # Union of all optimal sets: distinct densities with denominators at
    # most n differ by at least 1/n^2, so below the optimum by half that
    # every non-optimal set scores negative and the largest optimal set,
    # the union, is the unique maximiser.
    union = core.cut_set(density - Fraction(1, 2 * n_vertices * n_vertices))
    if not union:
        raise InternalInconsistency("empty maximiser below the optimal density")

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
    b_rels = [r for r in query.relations if b_attr in r.attribute_set]
    if results is None:
        results = evaluate(query, db)

    edge_weight: dict[frozenset, int] = {}
    edge_results: dict[frozenset, list[Row]] = {}
    for t in sorted(results - covered):
        needed = []
        reachable = True
        for rel in b_rels:
            values = {a: t[a] for a in rel.attributes if a != b_attr}
            values[b_attr] = b_value
            row = Row.make(values)
            if row not in db.instances[rel.name]:
                reachable = False
                break
            needed.append((rel.name, row))
        if reachable:
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
    parts: dict[str, set[Row]] = {}
    for rel_name, row in subset:
        parts.setdefault(rel_name, set()).add(row)
    return PricedCandidate(b_value, {k: frozenset(v) for k, v in parts.items()},
                           new_results, price)

