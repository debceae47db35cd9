"""Densest-set search by parametric minimum cut, in exact rationals.

Density of a vertex set S is the total weight of (hyper)edges falling
inside S divided by |S|.  For a guessed density g = p/q the flow network
has source -> edge-node (weight * q), edge-node -> each endpoint
(infinite), vertex -> sink (p).  Some S beats g exactly when the minimum
cut is smaller than q times the total edge weight, so the optimum is
found by a monotone search over the finite grid of candidate densities
p/q with q at most the vertex count.  The guess is scaled to integers,
which keeps max-flow values exact.

The returned set is the lexicographically smallest optimal one: a first
min-cut just below the optimum yields the union of all optimal sets, and
a greedy scan with forced/banned vertices shrinks it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

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


Vertex = Hashable
_WeightedEdge = tuple[frozenset, int]


class _DensityCore:
    """One weighted hypergraph plus the flow-based decision oracles."""

    def __init__(self, edges: Mapping[frozenset, int]):
        if not edges:
            raise EmptyEdgeSet
        for edge in edges:
            if not edge:
                raise ValueError("hyperedges must be nonempty")
        self.edges: list[_WeightedEdge] = sorted(edges.items(), key=lambda e: sorted(map(repr, e[0])))
        self.vertices: list = sorted(set().union(*edges))
        self.total_weight = sum(w for _, w in self.edges)

    def _network(self, g: Fraction, forced: frozenset, banned: frozenset):
        active = [(e, w) for e, w in self.edges if not (e & banned)]
        nodes = sorted((set().union(*(e for e, _ in active)) if active else set()) | set(forced))
        index = {v: i for i, v in enumerate(nodes)}
        p, q = g.numerator, g.denominator
        total = sum(w for _, w in active)
        infinite = q * total + p * len(nodes) + 1
        dinic = _Dinic(2 + len(active) + len(nodes))
        source, sink = 0, 1
        for i, (edge, w) in enumerate(active):
            dinic.add_edge(source, 2 + i, w * q)
            for v in edge:
                dinic.add_edge(2 + i, 2 + len(active) + index[v], infinite)
        for v in nodes:
            dinic.add_edge(2 + len(active) + index[v], sink, p)
        for v in forced:
            dinic.add_edge(source, 2 + len(active) + index[v], infinite)
        return dinic, active, nodes, q * total

    def best_value(self, g: Fraction, forced: frozenset = frozenset(),
                   banned: frozenset = frozenset()) -> int:
        """max over allowed S of q*weight(S) - p*|S|, as a scaled integer."""
        dinic, _, _, offset = self._network(g, forced, banned)
        return offset - dinic.max_flow(0, 1)

    def cut_set(self, g: Fraction) -> frozenset:
        """Vertices on the source side of the (here unique) minimum cut."""
        dinic, active, nodes, _ = self._network(g, frozenset(), frozenset())
        dinic.max_flow(0, 1)
        reach = dinic.residual_reachable(0)
        return frozenset(v for i, v in enumerate(nodes) if 2 + len(active) + i in reach)

    def inside_weight(self, subset: frozenset) -> int:
        return sum(w for e, w in self.edges if e <= subset)


def _max_density_set(edges: Mapping[frozenset, int]) -> tuple[frozenset, Fraction]:
    core = _DensityCore(edges)
    n_vertices = len(core.vertices)
    grid = sorted({Fraction(p, q)
                   for q in range(1, n_vertices + 1)
                   for p in range(0, core.total_weight + 1)})
    lo, hi = 0, len(grid) - 1  # decision(grid[0]=0) is true, decision(max) is false
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if core.best_value(grid[mid]) > 0:
            lo = mid
        else:
            hi = mid
    density = grid[hi] if core.best_value(grid[lo]) > 0 else grid[lo]
    if core.best_value(density) > 0:
        raise InternalInconsistency("density search did not converge")

    # Union of all optimal sets: unique min cut just below the optimum.
    below = grid[grid.index(density) - 1]
    union = core.cut_set(below)
    if not union:
        raise InternalInconsistency("empty maximiser below the optimal density")

    # Lexicographically smallest optimal subset of the union.
    excluded = frozenset(core.vertices) - union
    chosen: list = []
    while True:
        if chosen:
            inside = core.inside_weight(frozenset(chosen))
            if inside * density.denominator == density.numerator * len(chosen):
                break
        progressed = False
        for v in sorted(union - excluded - set(chosen)):
            if chosen and not (v > chosen[-1]):
                continue
            skipped = frozenset(w for w in union
                                if w not in chosen and w not in excluded and w < v)
            trial = excluded | skipped
            if core.best_value(density, forced=frozenset(chosen) | {v}, banned=trial) >= 0:
                chosen.append(v)
                excluded = trial
                progressed = True
                break
        if not progressed:
            raise InternalInconsistency("lexicographic extraction stalled")

    subset = frozenset(chosen)
    achieved = Fraction(core.inside_weight(subset), len(subset))
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

    @property
    def tuple_count(self) -> int:
        return sum(len(rows) for rows in self.subsets.values())


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

