"""Flow-based densest subgraph against subset enumeration, and pricing."""
import itertools
import random
from fractions import Fraction

import pytest

from witness_lab.densest import (
    BipartiteDensityInstance,
    HypergraphDensityInstance,
    _DensityCore,
    _Dinic,
    _max_density_set,
    densest_bipartite,
    densest_hypergraph,
    min_price_candidate,
)
from witness_lab.engine import evaluate
from witness_lab.errors import EmptyEdgeSet, InternalInconsistency, PreconditionViolated
from witness_lab.model import Database
from witness_lab.qparser import parse_query


def enum_densest(vertices, weight_of):
    """Reference answer: maximum density over every nonempty subset, ties
    broken to the set whose sorted vertex tuple is smallest."""
    best_d = None
    best_sets = []
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(sorted(vertices), r):
            s = frozenset(combo)
            d = Fraction(weight_of(s), len(s))
            if best_d is None or d > best_d:
                best_d, best_sets = d, [s]
            elif d == best_d:
                best_sets.append(s)
    return min(best_sets, key=lambda s: tuple(sorted(s))), best_d


def test_complete_bipartite_takes_everything():
    inst = BipartiteDensityInstance(
        ("x0", "x1"), ("y0", "y1"),
        frozenset({("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")}))
    left, right, density = densest_bipartite(inst)
    assert (left, right) == (frozenset({"x0", "x1"}), frozenset({"y0", "y1"}))
    assert density == 1


def test_star_keeps_all_leaves():
    inst = BipartiteDensityInstance(
        ("x0",), ("y0", "y1", "y2"),
        frozenset({("x0", "y0"), ("x0", "y1"), ("x0", "y2")}))
    left, right, density = densest_bipartite(inst)
    assert left == frozenset({"x0"}) and right == frozenset({"y0", "y1", "y2"})
    assert density == Fraction(3, 4)


def test_tie_resolves_to_smallest_vertex_tuple():
    """Two disjoint edges: both singletons and their union sit at 1/2.
    The union's sorted tuple starts (L,x0),(L,x1) and wins."""
    inst = BipartiteDensityInstance(
        ("x0", "x1"), ("y0", "y1"), frozenset({("x0", "y1"), ("x1", "y0")}))
    left, right, density = densest_bipartite(inst)
    assert density == Fraction(1, 2)
    assert left == frozenset({"x0", "x1"}) and right == frozenset({"y0", "y1"})


def test_single_triangle_hyperedge():
    inst = HypergraphDensityInstance(
        ("a", "b", "c", "d"), frozenset({frozenset({"a", "b", "c"})}))
    subset, density = densest_hypergraph(inst)
    assert subset == frozenset({"a", "b", "c"})
    assert density == Fraction(1, 3)


def test_overlapping_triangles_merge():
    inst = HypergraphDensityInstance(
        ("a", "b", "c", "d"),
        frozenset({frozenset({"a", "b", "c"}), frozenset({"a", "b", "d"})}))
    subset, density = densest_hypergraph(inst)
    assert subset == frozenset({"a", "b", "c", "d"})
    assert density == Fraction(1, 2)


def test_rejects_degenerate_instances():
    with pytest.raises(EmptyEdgeSet):
        densest_bipartite(BipartiteDensityInstance(("x",), ("y",), frozenset()))
    with pytest.raises(ValueError):
        BipartiteDensityInstance(("x",), ("y",), frozenset({("x", "z")}))
    with pytest.raises(ValueError):
        HypergraphDensityInstance(
            ("a", "b", "c"),
            frozenset({frozenset({"a", "b"}), frozenset({"a", "b", "c"})}))


def test_flow_matches_enumeration_bipartite():
    rng = random.Random(4071)
    for _ in range(40):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        left = tuple(f"x{i}" for i in range(nl))
        right = tuple(f"y{i}" for i in range(nr))
        pool = [(a, b) for a in left for b in right]
        edges = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        cl, cr, dens = densest_bipartite(BipartiteDensityInstance(left, right, edges))
        verts = {("L", v) for v in left} | {("R", v) for v in right}
        want_set, want_d = enum_densest(verts, lambda s: sum(
            1 for a, b in edges if ("L", a) in s and ("R", b) in s))
        assert dens == want_d
        assert frozenset({("L", v) for v in cl} | {("R", v) for v in cr}) == want_set


def test_flow_matches_enumeration_hypergraph():
    rng = random.Random(4072)
    for _ in range(40):
        n = rng.randint(3, 6)
        verts = tuple(f"v{i}" for i in range(n))
        pool = [frozenset(c) for c in itertools.combinations(verts, 3)]
        edges = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 6))))
        got, dens = densest_hypergraph(HypergraphDensityInstance(verts, edges))
        want_set, want_d = enum_densest(set(verts), lambda s: sum(
            1 for e in edges if e <= s))
        assert dens == want_d and got == want_set
        assert isinstance(dens, Fraction)


def test_weighted_mixed_rank_matches_enumeration():
    """Pricing hands the search integer weights (results sharing a demand)
    and edges of several ranks; check both against enumeration."""
    rng = random.Random(4073)
    order_rng = random.Random(4074)
    weighted = tied = 0
    for _ in range(150):
        verts = [f"v{i}" for i in range(rng.randint(1, 7))]
        edges = {}
        for _ in range(rng.randint(1, 8)):
            edge = frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
            edges[edge] = rng.randint(1, 5)

        def weight_of(s):
            return sum(w for e, w in edges.items() if e <= s)

        got = _max_density_set(edges)
        want = enum_densest(set(verts), weight_of)
        assert got == want
        # the answer must not depend on the order edges were inserted in
        shuffled = list(edges.items())
        order_rng.shuffle(shuffled)
        assert _max_density_set(dict(shuffled)) == want
        assert _max_density_set(dict(reversed(shuffled))) == want
        weighted += max(edges.values()) > 1
        optimal = [c for r in range(1, len(verts) + 1)
                   for c in itertools.combinations(verts, r)
                   if Fraction(weight_of(frozenset(c)), r) == want[1]]
        tied += len(optimal) > 1
        # one flow at the optimum: no denser set, and the largest
        # maximiser is the union of every optimal set
        smallest, largest, best = _DensityCore(edges).cuts(want[1])
        assert not smallest and best == 0
        assert largest == frozenset().union(*optimal)
    assert weighted >= 100 and tied >= 10  # the tie-break decided some answers


K4 = [frozenset(e) for e in itertools.combinations("abcd", 2)]

# (edges, Dinkelbach steps, answer): a single edge is densest as a whole;
# K4 plus a pendant edge starts at 7/5 and takes one step to K4's 3/2.
SEARCHES = [
    ({frozenset("ab"): 1}, 0, (frozenset("ab"), Fraction(1, 2))),
    ({**{e: 1 for e in K4}, frozenset("de"): 1}, 1, (frozenset("abcd"), Fraction(3, 2))),
]


@pytest.mark.parametrize("edges, steps, answer", SEARCHES)
def test_one_max_flow_per_dinkelbach_step(monkeypatch, edges, steps, answer):
    calls = []
    real = _Dinic.max_flow

    def counting(self, s, t):
        calls.append((s, t))
        return real(self, s, t)

    monkeypatch.setattr(_Dinic, "max_flow", counting)
    assert _max_density_set(edges) == answer
    assert len(calls) == 1 + steps


@pytest.mark.parametrize("edges, steps, answer", SEARCHES)
def test_convergence_check_reads_the_last_flow(monkeypatch, edges, steps, answer):
    real = _Dinic.max_flow
    monkeypatch.setattr(_Dinic, "max_flow", lambda self, s, t: real(self, s, t) - 1)
    with pytest.raises(InternalInconsistency, match="did not converge"):
        _max_density_set(edges)


COVER = "Q(A) :- R1(A, B), R2(B)"


def cover_db(r1_pairs, r2_values):
    query = parse_query(COVER)
    return query, Database.build(query, {
        "R1": [{"A": a, "B": b} for a, b in r1_pairs],
        "R2": [{"B": b} for b in r2_values],
    })


def test_candidate_shares_join_tuple_across_results():
    query, db = cover_db([("a1", "b1"), ("a2", "b1"), ("a3", "b2")], ["b1", "b2"])
    cand = min_price_candidate(query, db, "b1", frozenset())
    assert cand.price == Fraction(3, 2)  # three tuples buy two results
    assert sum(len(rows) for rows in cand.subsets.values()) == 3
    assert cand.new_results == {("a1",), ("a2",)}
    assert cand.subsets["R2"] == frozenset({("b1",)})


def test_candidate_skips_covered_results():
    query, db = cover_db([("a1", "b1"), ("a2", "b1"), ("a3", "b2")], ["b1", "b2"])
    covered = frozenset({("a1",)}) & evaluate(query, db)
    assert covered
    cand = min_price_candidate(query, db, "b1", covered)
    assert cand.price == Fraction(2)
    assert cand.new_results == {("a2",)}


def test_candidate_none_when_value_reaches_nothing():
    query, db = cover_db([("a1", "b1")], ["b1", "b9"])
    assert min_price_candidate(query, db, "b9", frozenset()) is None


def test_candidate_requires_single_non_output():
    query = parse_query("Q(A) :- R1(A, B), R2(B, C)")
    db = Database.build(query, {})
    with pytest.raises(PreconditionViolated):
        min_price_candidate(query, db, "b1", frozenset())


def selection_price(query, db, covered, x_rows, y_rows):
    """Price of an arbitrary two-relation selection: tuples spent over
    results newly produced.  None stands in for an infinite price.
    R1 tuples are (A, B) and R2 tuples (B,)."""
    produced = {(a,) for a, b in x_rows for (c,) in y_rows if b == c}
    new = produced - covered
    if not new:
        return None
    return Fraction(len(x_rows) + len(y_rows), len(new))


def test_merging_selections_never_beats_the_better_half():
    rng = random.Random(88)
    query = parse_query(COVER)
    for _ in range(100):
        pairs = {(f"a{rng.randint(1, 4)}", f"b{rng.randint(1, 3)}")
                 for _ in range(rng.randint(2, 8))}
        values = {b for _, b in pairs}
        _, db = cover_db(sorted(pairs), sorted(values))
        b1, b2 = rng.sample(sorted(values), 2) if len(values) > 1 else (None, None)
        if b1 is None:
            continue
        covered = frozenset()
        x1 = [r for r in db.instances["R1"] if r[1] == b1]
        y1 = [r for r in db.instances["R2"] if r == (b1,)]
        x2 = [r for r in db.instances["R1"] if r[1] == b2]
        y2 = [r for r in db.instances["R2"] if r == (b2,)]
        p1 = selection_price(query, db, covered, x1, y1)
        p2 = selection_price(query, db, covered, x2, y2)
        merged = selection_price(query, db, covered, x1 + x2, y1 + y2)
        finite = [p for p in (p1, p2) if p is not None]
        if merged is None:
            assert not finite
        else:
            assert finite and min(finite) <= merged
