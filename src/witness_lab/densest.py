"""Densest-set search by parametric minimum cut, in exact integers.

Density of a vertex set S is the total weight of the (hyper)edges inside
S divided by |S|.  For a guessed density p/q the network is Goldberg's
("Finding a maximum density subgraph", UCB TR 1984) with weighted
hyperedges: source -> hyperedge (weight * q), hyperedge -> each member
(infinite), vertex -> sink (p).  A minimum cut's source side maximises
q*weight(S) - p*|S|, which is q*(total weight) minus the maximum flow.
The max-flow, on plain lists, is a greedy pass and then shortest
augmenting paths (Edmonds and Karp, JACM 1972), whose number is bounded
by the network's size whatever the capacities are.

Minimum cuts form a lattice (Picard and Queyranne, Math. Prog. Study
13, 1980): after any maximum flow, the nodes the source still reaches in
the residual network are the smallest min-cut source side and the nodes
that cannot reach the sink the largest.  Dinkelbach's iteration
(Management Science, 1967) starts at the density of the whole vertex set
and moves to the density of the smallest maximiser until that is empty;
each step strictly raises the density, so k steps run k + 1 max-flows.
At the optimum the maximisers are the empty set and the optimal sets,
closed under union, so the last flow's largest maximiser is the union of
all optimal sets, and its shortest sorted prefix that reaches the
optimum is the lexicographically smallest optimal set.

Vertices are numbered 0..n-1 in sorted order.  The greedy route numbers
the tuples and results of its full join once per component
(`engine.incidence`, tuples in sorted order and results as they first
appear) and groups the demand keys by join value.  Each group holds its
live keys only, each with the ids of the uncovered results that demand
it, so a pricing reads its hyperedges and their weights directly and
renumbers only the live vertices.

Pricing takes one of two paths, chosen by the shape of the live demand
keys.  When k >= 2 relations hold the join value, the distinct live keys
are the full product of the per-relation live tuple sets (sizes s_i) and
every key has the same weight w, a vertex set S holds exactly the keys
of the product of its parts S_i, so its density w * prod |S_i| / sum |S_i|
strictly grows in each |S_i| (for k >= 2 and no empty part).  The whole
live set is then the only densest set, of density w * prod s_i / sum s_i,
and no network is built.  Every other group (k = 1, where all nonempty
sets tie; a product with a key missing; unequal weights) runs the flow
search above.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, count
from math import prod
from operator import itemgetter
from typing import Iterable, NamedTuple

# Pricing never evaluates Q(D); `evaluate` stays importable because the
# benchmark's traced run (bench/layers.py) wraps `densest.evaluate`.
from .engine import evaluate, incidence  # noqa: F401
from .errors import InternalInconsistency
from .model import Query


class _DensityCore:
    """One weighted hypergraph on vertices 0..n-1 plus the flow-based
    decision oracles: `members[e]` lists the distinct vertices of
    hyperedge e, `weight[e]` is its weight and `incident[v]` holds the
    (hyperedge, position) pairs of vertex v."""

    def __init__(self, members: list[list[int]], weight: list[int], n: int):
        self.members, self.weight, self.n = members, weight, n
        self.total_weight = sum(weight)
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, ms in enumerate(members):
            for k, v in enumerate(ms):
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
            s, pushed = supply[e], flow[e]
            for k, v in enumerate(ms):
                x = pushed[k] = s if s < room[v] else room[v]
                room[v] -= x
                s -= x
            supply[e] = s
        while True:
            # Shortest augmenting paths: hyperedge -> member always, vertex
            # -> hyperedge where that pair carries flow; a path ends at a
            # vertex with room.
            via: list = [None] * self.n  # (e, k) reaching each vertex
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
                x = room[end]  # the bottleneck, taken on the way back
                while True:
                    e, k = via[v]
                    path.append((e, k))
                    j = back[e]
                    if j < 0:
                        break
                    if flow[e][j] < x:
                        x = flow[e][j]
                    v = members[e][j]
                if supply[e] < x:
                    x = supply[e]
                if x:
                    room[end] -= x
                    supply[e] -= x
                    for f, k in path:
                        flow[f][k] += x
                        if back[f] >= 0:
                            flow[f][back[f]] -= x

    def cuts(self, p: int, q: int) -> tuple[list[int], list[int], int]:
        """From one maximum flow at g = p/q: the smallest and the largest
        maximiser of weight(S) - g*|S| (the vertices the source reaches in
        the residual network, and those that cannot reach the sink), each
        in increasing order, and the maximum q*weight(S) - p*|S|."""
        supply = [w * q for w in self.weight]
        room = [p] * self.n
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
        smallest = [v for v, arc in enumerate(via) if arc is not None]
        largest = [v for v, d in enumerate(drains) if not d]
        return smallest, largest, q * self.total_weight - pushed

    def inside(self, subset: Iterable[int]) -> list[bool]:
        """Per hyperedge, whether it falls inside `subset`."""
        marked = set(subset)
        return [all(map(marked.__contains__, ms)) for ms in self.members]

    def densest(self) -> tuple[list[int], list[bool], int, int]:
        """The lexicographically smallest densest set, in increasing
        order, which hyperedges fall inside it, and its density p/q."""
        # Dinkelbach: each nonempty maximiser at p/q is strictly denser.
        p, q = self.total_weight, self.n
        while True:
            improving, union, best = self.cuts(p, q)
            if not improving:
                break
            p_next = sum(compress(self.weight, self.inside(improving)))
            if p_next * q <= p * len(improving):
                raise InternalInconsistency(f"maximiser at {Fraction(p, q)} is no denser")
            p, q = p_next, len(improving)
        if best != 0:
            raise InternalInconsistency(
                f"density search did not converge: best value {best} at {Fraction(p, q)}")
        if not union:  # the union of all optimal sets
            raise InternalInconsistency("empty union of the optimal sets")

        # Every optimal set lies inside the union, so the lexicographically
        # smallest one is its shortest optimal prefix.  Walking the union in
        # order, an edge falls inside the prefix at its last vertex.
        missing, weight = list(map(len, self.members)), 0
        for size, v in enumerate(union, start=1):
            for e, _ in self.incident[v]:
                missing[e] -= 1
                if not missing[e]:
                    weight += self.weight[e]
            if weight * q == p * size:
                break
        subset = union[:size]
        inside = self.inside(subset)
        achieved = sum(compress(self.weight, inside))
        if achieved * q != p * size:
            raise InternalInconsistency(
                f"returned set achieves {Fraction(achieved, size)}, search said {Fraction(p, q)}")
        return subset, inside, p, q


# --- pricing for the greedy cover solver ----------------------------------

class PricedCandidate(NamedTuple):
    """Vertex ids of a tuple selection at one join value and the ids of
    the results it newly covers."""

    vertices: tuple[int, ...]
    new_results: tuple[int, ...]

    @property
    def price(self) -> Fraction:
        """The exact price: tuples bought per result newly covered."""
        return Fraction(len(self.vertices), len(self.new_results))


def demand_groups(query: Query, rows: list[tuple[str, ...]]) -> tuple[list, list, dict]:
    """Numbers the full join `rows` once (`engine.incidence`) and groups
    it by the value b of the single non-output attribute.  A result
    reachable at b demands one tuple per relation holding b: its demand
    key (increasing vertex ids).  Returns the vertices and the results,
    as `incidence` numbers them, and the groups: per b, each demand key
    with the set of ids of the results that demand it.  A result is
    reachable at b along one full join row, so it occurs under one key
    of b's group.  The greedy cover keeps each group live by removing a
    result from it once covered, and a key once no result demands it."""
    b_attr, = query.non_output
    vertices, results, columns, result_ids = incidence(query, rows)
    holding = [ids for name, ids in columns.items() if b_attr in query.schema(name).attribute_set]
    groups: defaultdict[str, defaultdict] = defaultdict(lambda: defaultdict(set))
    for b, r, key in zip(map(itemgetter(query.attributes.index(b_attr)), rows), result_ids,
                         zip(*holding)):
        groups[b][key].add(r)
    return vertices, results, {b: dict(live) for b, live in groups.items()}


def min_price_candidate(live: dict[tuple[int, ...], set[int]]) -> PricedCandidate | None:
    """Cheapest tuple selection at one join value, from its live group:
    each demand key with the ids of the uncovered results demanding it.
    The keys are the hyperedges, each weighted by its number of results,
    and the best selection is a maximum-density vertex set.  None when no
    key is left.

    A product-shaped group is priced in closed form, with no max-flow:
    k >= 2 relations hold b, the distinct live keys number the product
    of the per-relation distinct live tuple counts s_i, and every key
    has the same weight w.  A set S then holds the keys of the product
    of its parts S_i, so its density is w * prod |S_i| / sum |S_i|,
    which strictly grows in each |S_i| while k >= 2 and no part is
    empty.  The whole live set is the only densest set: it buys every
    live result at price (sum s_i) / (w * prod s_i).  Any other group
    (k = 1, where every nonempty set ties; a missing key; unequal
    weights) runs the flow search."""
    if not live:
        return None
    weight = list(map(len, live.values()))
    used = sorted(set().union(*live))
    sizes = [len(set(part)) for part in zip(*live)]
    if len(sizes) >= 2 and len(live) == prod(sizes) and weight.count(weight[0]) == len(weight):
        return PricedCandidate(tuple(used), tuple(chain.from_iterable(live.values())))
    local = dict(zip(used, count()))  # renumbered, keeping their order
    core = _DensityCore([list(map(local.__getitem__, key)) for key in live], weight, len(used))
    subset, inside, p, q = core.densest()
    new_results = tuple(chain.from_iterable(compress(live.values(), inside)))
    if len(subset) * p != q * len(new_results):
        raise InternalInconsistency(
            f"price {len(subset)}/{len(new_results)} disagrees with density {Fraction(p, q)}")
    return PricedCandidate(tuple(map(used.__getitem__, subset)), new_results)
