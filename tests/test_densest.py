"""Flow-based densest subgraph against subset enumeration, and pricing."""
import itertools
import random
import time
from fractions import Fraction

import pytest

from witness_lab.densest import _DensityCore, demand_groups, min_price_candidate
from witness_lab.engine import evaluate, full_join_results
from witness_lab.errors import InternalInconsistency
from witness_lab.model import Database
from witness_lab.qparser import parse_query

from corpus import live_group
from reference import max_density_set


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


def bipartite(pairs):
    """Unit-weight edges {("L", x), ("R", y)} of a bipartite graph."""
    return {frozenset({("L", x), ("R", y)}): 1 for x, y in pairs}


def sides(subset):
    return (frozenset(v for side, v in subset if side == "L"),
            frozenset(v for side, v in subset if side == "R"))


def labelled_core(edges):
    """A search core over labelled hyperedges, its vertices numbered in
    sorted order as `max_density_set` numbers them; returns the core and
    a function reading `core.cuts` at a Fraction guess back in labels."""
    vertices = sorted(set().union(*edges))
    index = {v: i for i, v in enumerate(vertices)}
    core = _DensityCore([sorted(index[v] for v in edge) for edge in edges],
                        list(edges.values()), len(vertices))

    def cuts(g):
        smallest, largest, best = core.cuts(g.numerator, g.denominator)
        return (frozenset(vertices[v] for v in smallest),
                frozenset(vertices[v] for v in largest), best)
    return core, cuts


def test_complete_bipartite_takes_everything():
    subset, density = max_density_set(
        bipartite([("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")]))
    assert sides(subset) == (frozenset({"x0", "x1"}), frozenset({"y0", "y1"}))
    assert density == 1


def test_star_keeps_all_leaves():
    subset, density = max_density_set(bipartite([("x0", "y0"), ("x0", "y1"), ("x0", "y2")]))
    assert sides(subset) == (frozenset({"x0"}), frozenset({"y0", "y1", "y2"}))
    assert density == Fraction(3, 4)


def test_tie_resolves_to_smallest_vertex_tuple():
    """Two disjoint edges: both singletons and their union sit at 1/2.
    The union's sorted tuple starts (L,x0),(L,x1) and wins."""
    subset, density = max_density_set(bipartite([("x0", "y1"), ("x1", "y0")]))
    assert density == Fraction(1, 2)
    assert sides(subset) == (frozenset({"x0", "x1"}), frozenset({"y0", "y1"}))


def test_single_triangle_hyperedge():
    subset, density = max_density_set({frozenset({"a", "b", "c"}): 1})
    assert subset == frozenset({"a", "b", "c"})
    assert density == Fraction(1, 3)


def test_overlapping_triangles_merge():
    subset, density = max_density_set(
        {frozenset({"a", "b", "c"}): 1, frozenset({"a", "b", "d"}): 1})
    assert subset == frozenset({"a", "b", "c", "d"})
    assert density == Fraction(1, 2)


def test_flow_matches_enumeration_bipartite():
    rng = random.Random(4071)
    for _ in range(40):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        left = tuple(f"x{i}" for i in range(nl))
        right = tuple(f"y{i}" for i in range(nr))
        pool = [(a, b) for a in left for b in right]
        edges = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        got, dens = max_density_set(bipartite(edges))
        verts = {("L", v) for v in left} | {("R", v) for v in right}
        want_set, want_d = enum_densest(verts, lambda s: sum(
            1 for a, b in edges if ("L", a) in s and ("R", b) in s))
        assert dens == want_d and got == want_set


def test_flow_matches_enumeration_hypergraph():
    rng = random.Random(4072)
    for _ in range(40):
        n = rng.randint(3, 6)
        verts = tuple(f"v{i}" for i in range(n))
        pool = [frozenset(c) for c in itertools.combinations(verts, 3)]
        edges = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 6))))
        got, dens = max_density_set(dict.fromkeys(edges, 1))
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

        got = max_density_set(edges)
        want = enum_densest(set(verts), weight_of)
        assert got == want
        # the answer must not depend on the order edges were inserted in
        shuffled = list(edges.items())
        order_rng.shuffle(shuffled)
        assert max_density_set(dict(shuffled)) == want
        assert max_density_set(dict(reversed(shuffled))) == want
        weighted += max(edges.values()) > 1
        optimal = [c for r in range(1, len(verts) + 1)
                   for c in itertools.combinations(verts, r)
                   if Fraction(weight_of(frozenset(c)), r) == want[1]]
        tied += len(optimal) > 1
        # one flow at the optimum: no denser set, and the largest
        # maximiser is the union of every optimal set
        smallest, largest, best = labelled_core(edges)[1](want[1])
        assert not smallest and best == 0
        assert largest == frozenset().union(*optimal)
    assert weighted >= 100 and tied >= 10  # the tie-break decided some answers


def enum_cuts(vertices, edges, g):
    """Reference cut readouts at g = p/q over every subset S, the empty
    set included: the intersection and the union of the maximisers of
    q*weight(S) - p*|S|, and that maximum."""
    p, q = g.numerator, g.denominator
    value = {}
    for r in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            s = frozenset(combo)
            value[s] = q * sum(w for e, w in edges.items() if e <= s) - p * len(s)
    best = max(value.values())
    maximisers = [s for s, v in value.items() if v == best]
    return frozenset.intersection(*maximisers), frozenset().union(*maximisers), best


def random_weighted_edges(rng, max_vertices=7, max_weight=5):
    verts = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    edges = {}
    for _ in range(rng.randint(1, 8)):
        edges[frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))] = \
            rng.randint(1, max_weight)
    return verts, edges


def test_cuts_match_enumeration_at_every_guess():
    """One flow's three readouts, at guesses below, at and above the
    optimal density, on weighted hypergraphs of mixed rank."""
    rng = random.Random(4075)
    below = above = split = 0
    for _ in range(160):
        verts, edges = random_weighted_edges(rng)
        optimum = max_density_set(edges)[1]
        _, cuts = labelled_core(edges)
        guesses = [optimum, optimum / 2, optimum * Fraction(9, 10), optimum + Fraction(1, 7),
                   optimum * 2, Fraction(rng.randint(1, 40), rng.randint(1, 9))]
        for g in guesses:
            assert cuts(g) == enum_cuts(verts, edges, g), (edges, g)
            below += g < optimum
            above += g > optimum
            smallest, largest, _ = cuts(g)
            split += smallest != largest
    assert below >= 300 and above >= 300 and split >= 50


def test_cuts_with_large_capacities_stay_fast():
    """Scaling g to p/q with q near 10**6 multiplies every capacity by
    about 10**6; shortest augmenting paths keep the work independent of
    that, so the flows finish at once."""
    rng = random.Random(4076)
    verts = [f"v{i}" for i in range(12)]
    edges = {}
    for _ in range(12):  # a heavy core on five vertices, light edges anywhere
        edges[frozenset(rng.sample(verts[:5], rng.randint(1, 3)))] = rng.randint(5, 9)
    for _ in range(20):
        edges[frozenset(rng.sample(verts, rng.randint(1, 4)))] = rng.randint(1, 3)
    optimum = max_density_set(edges)[1]
    q = 999_983
    guesses = [optimum + Fraction(k, q) for k in (-1, 1, -3 * q // 4, -q // 3, 12_345)]
    assert all(g > 0 and g.denominator >= q for g in guesses)
    _, cuts = labelled_core(edges)
    started = time.perf_counter()
    got = [cuts(g) for g in guesses]
    assert time.perf_counter() - started < 1.0
    assert got == [enum_cuts(verts, edges, g) for g in guesses]


K4 = [frozenset(e) for e in itertools.combinations("abcd", 2)]

# (edges, Dinkelbach steps, answer): a single edge is densest as a whole;
# K4 plus a pendant edge starts at 7/5 and takes one step to K4's 3/2.
SEARCHES = [
    ({frozenset("ab"): 1}, 0, (frozenset("ab"), Fraction(1, 2))),
    ({**{e: 1 for e in K4}, frozenset("de"): 1}, 1, (frozenset("abcd"), Fraction(3, 2))),
]


@pytest.fixture
def flows(monkeypatch):
    """Counts `_DensityCore.max_flow` calls: a list with one entry per call."""
    calls = []
    real = _DensityCore.max_flow

    def counting(self, *state):
        calls.append(None)
        return real(self, *state)

    monkeypatch.setattr(_DensityCore, "max_flow", counting)
    return calls


@pytest.mark.parametrize("edges, steps, answer", SEARCHES)
def test_one_max_flow_per_dinkelbach_step(flows, edges, steps, answer):
    assert max_density_set(edges) == answer
    assert len(flows) == 1 + steps


@pytest.mark.parametrize("edges, steps, answer", SEARCHES)
def test_convergence_check_reads_the_last_flow(monkeypatch, edges, steps, answer):
    real = _DensityCore.max_flow

    def under_reported(self, *state):
        pushed, reached = real(self, *state)
        return pushed - 1, reached

    monkeypatch.setattr(_DensityCore, "max_flow", under_reported)
    with pytest.raises(InternalInconsistency, match="did not converge"):
        max_density_set(edges)


COVER = "Q(A) :- R1(A, B), R2(B)"


def cover_db(r1_pairs, r2_values):
    query = parse_query(COVER)
    return query, Database.build(query, {
        "R1": [{"A": a, "B": b} for a, b in r1_pairs],
        "R2": [{"B": b} for b in r2_values],
    })


def price_at(query, db, b_value, covered):
    """Prices the group of `b_value` with the results in `covered` (head
    tuples) marked; returns the candidate read back in labels, the
    per-relation subsets and the new results, or None."""
    vertices, results, groups = demand_groups(query, full_join_results(query, db))
    cand = min_price_candidate(live_group((r, key) for key, ids in groups.get(b_value, {}).items()
                                          for r in ids if results[r] not in covered))
    if cand is None:
        return None
    subsets = {}
    for name, row in (vertices[v] for v in cand.vertices):
        subsets.setdefault(name, set()).add(row)
    return ({name: frozenset(rows) for name, rows in subsets.items()},
            frozenset(results[r] for r in cand.new_results), cand.price)


def test_candidate_shares_join_tuple_across_results():
    query, db = cover_db([("a1", "b1"), ("a2", "b1"), ("a3", "b2")], ["b1", "b2"])
    subsets, new_results, price = price_at(query, db, "b1", frozenset())
    assert price == Fraction(3, 2)  # three tuples buy two results
    assert sum(len(rows) for rows in subsets.values()) == 3
    assert new_results == {("a1",), ("a2",)}
    assert subsets["R2"] == frozenset({("b1",)})


def test_candidate_skips_covered_results():
    query, db = cover_db([("a1", "b1"), ("a2", "b1"), ("a3", "b2")], ["b1", "b2"])
    covered = frozenset({("a1",)}) & evaluate(query, db)
    assert covered
    _, new_results, price = price_at(query, db, "b1", covered)
    assert price == Fraction(2)
    assert new_results == {("a2",)}


def test_candidate_none_when_value_reaches_nothing():
    query, db = cover_db([("a1", "b1")], ["b1", "b9"])
    _, results, groups = demand_groups(query, full_join_results(query, db))
    assert "b9" not in groups and results == [("a1",)]
    assert min_price_candidate({}) is None
    assert price_at(query, db, "b1", frozenset({("a1",)})) is None


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


def assert_prices_as_reference(rows, flows):
    """`min_price_candidate` on the live group of (result id, demand key,
    covered) rows agrees with `max_density_set` on the uncovered rows'
    keys, weighted by the rows sharing them; returns the max-flows the
    candidate ran."""
    live = [(r, key) for r, key, dead in rows if not dead]
    weights = {}
    for _, key in live:
        weights[frozenset(key)] = weights.get(frozenset(key), 0) + 1
    before = len(flows)
    cand = min_price_candidate(live_group(live))
    ran = len(flows) - before
    subset, density = max_density_set(weights)
    assert cand.vertices == tuple(sorted(subset))
    assert cand.price == 1 / density
    assert set(cand.new_results) == {r for r, key in live if subset.issuperset(key)}
    return ran


def test_product_groups_price_in_closed_form(flows):
    """Live keys forming the full product of k >= 2 per-relation tuple
    sets, each carried by w results, price as the whole live set without a
    max-flow, whatever covered results with keys off the product hold."""
    rng = random.Random(4072)
    for _ in range(150):
        blocks, start = [], 0  # per relation: its vertex ids, the last one spare
        for _ in range(rng.randint(2, 4)):
            size = rng.randint(1, 4)
            blocks.append(range(start, start + size + 1))
            start += size + 1
        live = [block[:-1] for block in blocks]
        w = rng.randint(1, 3)
        rows = [(key, False) for key in itertools.product(*live) for _ in range(w)]
        for _ in range(rng.randint(0, 4)):  # covered, on a key using a spare vertex
            key = [rng.choice(block) for block in blocks]
            spare = rng.randrange(len(blocks))
            key[spare] = blocks[spare][-1]
            rows.append((tuple(key), True))
        rng.shuffle(rows)
        result_ids = rng.sample(range(2 * len(rows)), len(rows))
        numbered = [(r, key, dead) for r, (key, dead) in zip(result_ids, rows)]
        assert assert_prices_as_reference(numbered, flows) == 0


# Groups the closed form must leave to the flow search: one relation
# holding b (any one vertex is densest), a product with a key missing,
# and a product with one heavier key (densest at that key alone).
BOUNDARY_GROUPS = [
    [(0, (0,), False), (1, (1,), False), (2, (2,), False), (3, (0,), False),
     (4, (1,), False), (5, (2,), False), (6, (3,), True)],
    [(0, (0, 2), False), (1, (0, 3), False), (2, (1, 2), False), (3, (1, 3), True)],
    [(0, (0, 2), False), (1, (0, 3), False), (2, (1, 2), False), (3, (1, 3), False)]
    + [(r, (0, 2), False) for r in range(4, 8)],
]


@pytest.mark.parametrize("rows", BOUNDARY_GROUPS)
def test_near_product_groups_run_the_flow(flows, rows):
    assert assert_prices_as_reference(rows, flows) >= 1
