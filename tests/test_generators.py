"""Instance families: set cover and label cover instances, the cover,
matrix, pyramid, line3 and random families, and their predicted sizes."""
import random
import time

import pytest

from witness_lab.engine import evaluate
from witness_lab.errors import AlphabetTooSmall, UncoverableUniverse, UnsatisfiableConstraint
from witness_lab.generators import (
    LabelCoverInstance,
    SetCoverInstance,
    gen_cover_db,
    gen_line3_db,
    gen_matrix_db,
    gen_pyramid_db,
    gen_random_db,
    min_cover_size,
    min_label_cover_cost,
)
from witness_lab.model import Database
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import parse_query

from corpus import random_query
from reference import min_cover_size as exhaustive_min_cover_size
from reference import min_label_cover_cost as exhaustive_min_label_cover_cost


def cover(universe, *subsets):
    return SetCoverInstance(tuple(universe), tuple(tuple(s) for s in subsets))


def test_set_cover_instance_validation():
    with pytest.raises(ValueError):
        cover(["u1", "u1"], ["u1"])
    with pytest.raises(ValueError):
        SetCoverInstance(("u1",), ())
    with pytest.raises(ValueError):
        cover(["u1"], [])
    with pytest.raises(ValueError):
        cover(["u1"], ["u9"])
    with pytest.raises(UncoverableUniverse):
        cover(["u1", "u2"], ["u1"])


def test_min_cover_size_hand_values():
    assert min_cover_size(cover("ab", "ab")) == 1
    assert min_cover_size(cover("abc", "ab", "c", "abc")) == 1
    assert min_cover_size(cover("abc", "ab", "bc", "ac")) == 2


def random_cover(rng):
    """A small cover whose subsets are often duplicates, nested in an
    earlier subset or singletons; singletons fill in what none covers."""
    universe = [f"u{i}" for i in range(rng.randint(1, 9))]
    subsets = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.15 and subsets:
            subsets.append(rng.choice(subsets))
        elif kind < 0.3 and subsets:
            outer = rng.choice(subsets)
            subsets.append(tuple(rng.sample(outer, rng.randint(1, len(outer)))))
        elif kind < 0.45:
            subsets.append((rng.choice(universe),))
        else:
            subsets.append(tuple(rng.sample(universe, rng.randint(1, len(universe)))))
    subsets += [(u,) for u in universe if not any(u in s for s in subsets)]
    return cover(universe, *subsets)


def covering_sets(rng, universe, count, size):
    """`count` subsets of `size` elements of u1..u<universe> that together
    cover it, drawn as the benchmark draws its cover instances."""
    elements = list(range(1, universe + 1))
    rng.shuffle(elements)
    sets = [set() for _ in range(count)]
    for i, element in enumerate(elements):
        sets[i % count].add(element)
    for subset in sets:
        while len(subset) < size:
            subset.add(rng.randint(1, universe))
    return cover([f"u{i}" for i in range(1, universe + 1)],
                 *([f"u{e}" for e in sorted(s)] for s in sets))


def test_min_cover_size_matches_exhaustive_search():
    rng = random.Random(2000)
    for _ in range(2400):
        instance = random_cover(rng)
        assert min_cover_size(instance) == exhaustive_min_cover_size(instance), instance
    for _ in range(12):  # the benchmark's shape: minima of 11-13 out of 14 sets
        instance = covering_sets(rng, 80, 14, 14)
        assert min_cover_size(instance) == exhaustive_min_cover_size(instance), instance


def test_min_cover_size_past_exhaustive_reach():
    """The exhaustive search takes tens of seconds on this cover; the
    expected size was computed with it once, offline."""
    instance = covering_sets(random.Random(120), 120, 22, 14)
    started = time.perf_counter()
    gi = gen_cover_db(instance)
    assert time.perf_counter() - started < 1.0
    assert gi.metadata["min_cover"] == 18
    assert gi.predicted_witness_size == 120 + 18


def lc(n, alphabet, constraints):
    return LabelCoverInstance(n, tuple(alphabet), {
        k: frozenset(v) for k, v in constraints.items()})


def test_label_cover_instance_validation():
    with pytest.raises(AlphabetTooSmall) as raised:
        lc(3, "xyz", {(1, 1): {("x", "y")}})
    assert str(raised.value) == "alphabet size 3 must exceed the vertex count 3"
    assert (raised.value.alphabet, raised.value.n) == (3, 3)
    with pytest.raises(AlphabetTooSmall):
        lc(1, "x", {(1, 1): {("x", "x")}})
    with pytest.raises(UnsatisfiableConstraint):
        lc(1, "xy", {})
    with pytest.raises(ValueError):
        lc(1, "xy", {(1, 1): {("x", "z")}})


def test_min_label_cover_cost_hand_values():
    assert min_label_cover_cost(lc(1, "xy", {(1, 1): {("x", "x")}})) == 2
    # both right labels must appear: one left label, two right labels
    two = lc(2, "xyz", {
        (1, 1): {("x", "x")}, (1, 2): {("x", "y")},
        (2, 1): {("x", "x")}, (2, 2): {("x", "y")},
    })
    assert min_label_cover_cost(two) == 4


def random_label_cover(rng):
    """n from 1 to 3 over n+1 to 4 letters; each vertex pair admits one
    to five random label pairs (at most four over two letters)."""
    n = rng.randint(1, 3)
    alphabet = "wxyz"[:rng.randint(n + 1, 4)]
    pairs = [(x, y) for x in alphabet for y in alphabet]
    return lc(n, alphabet, {(u, v): rng.sample(pairs, rng.randint(1, min(5, len(pairs))))
                            for u in range(1, n + 1) for v in range(1, n + 1)})


def test_min_label_cover_cost_matches_exhaustive_search():
    rng = random.Random(126)
    for _ in range(200):
        instance = random_label_cover(rng)
        assert min_label_cover_cost(instance) == exhaustive_min_label_cover_cost(instance), \
            instance


def test_cover_family_matches_oracle():
    inst = cover("uvw", "uv", "w", "uvw")
    gi = gen_cover_db(inst)
    assert gi.predicted_witness_size == 3 + 1
    assert gi.metadata["family"] == "cover"
    assert gi.metadata["min_cover"] == 1
    assert len(gi.database.instances["R2"]) == 3
    assert brute_force_swp(gi.query, gi.database).witness_size == gi.predicted_witness_size


def test_cover_family_without_prediction():
    gi = gen_cover_db(cover("uv", "uv"), predict=False)
    assert gi.predicted_witness_size is None
    assert gi.metadata["min_cover"] is None


def test_matrix_family_matches_oracle():
    with pytest.raises(ValueError):
        gen_matrix_db(2, 3)
    gi = gen_matrix_db(3, 2)
    assert gi.predicted_witness_size == 3 * 3
    assert len(gi.database.instances["R1"]) == 3
    assert len(gi.database.instances["R2"]) == 2 * 3
    assert brute_force_swp(gi.query, gi.database).witness_size == 9


def test_pyramid_family_matches_oracle():
    gi = gen_pyramid_db(cover(["u1", "u2"], ["u1", "u2"]))
    n, k = 2, 1
    assert gi.predicted_witness_size == (k + 4) * n * n + k * n == 22
    assert gi.database.size == 22  # the canonical construction is the whole db here
    assert brute_force_swp(gi.query, gi.database).witness_size == 22


def test_pyramid_row_counts():
    inst = cover(["u1", "u2", "u3"], ["u1", "u2"], ["u3"])
    gi = gen_pyramid_db(inst, predict=False)
    n, m = 3, 2
    assert len(gi.database.instances["R1"]) == n * n
    assert len(gi.database.instances["R5"]) == m * n
    assert len(gi.database.instances["R6"]) == n * m * n
    assert len(gi.database.instances["R4"]) == 3 * n  # one block per membership


def test_line3_family_shape_and_prediction():
    inst = lc(1, "xy", {(1, 1): {("x", "x")}})
    gi = gen_line3_db(inst, t=2)
    assert gi.predicted_witness_size == 2 * 2 + 1
    assert gi.metadata["predicted_is_upper_bound"] is True
    assert len(gi.database.instances["R1"]) == 1 * 2 * 2  # slots x alphabet
    assert len(gi.database.instances["R2"]) == 1
    assert len(gi.database.instances["R3"]) == 2 * 2
    with pytest.raises(ValueError):
        gen_line3_db(inst, t=0)
    # witnesses exist: every slot pair joins through the allowed label pair
    assert len(evaluate(gi.query, gi.database)) == 4


def test_line3_prediction_bounds_the_optimum():
    inst = lc(1, "xy", {(1, 1): {("x", "x"), ("y", "y")}})
    gi = gen_line3_db(inst, t=1)
    assert brute_force_swp(gi.query, gi.database).witness_size <= gi.predicted_witness_size


def test_random_family_is_seed_deterministic():
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    first = gen_random_db(query, rows_per_relation=5, pool=3, seed=11)
    second = gen_random_db(query, rows_per_relation=5, pool=3, seed=11)
    other = gen_random_db(query, rows_per_relation=5, pool=3, seed=12)
    assert first.database == second.database
    assert first.database != other.database
    with pytest.raises(ValueError):
        gen_random_db(query, rows_per_relation=-1, pool=3, seed=0)
    with pytest.raises(ValueError):
        gen_random_db(query, rows_per_relation=1, pool=0, seed=0)


def build_random_db(query, rows_per_relation, pool, seed):
    """The random family's draws, as per-row dicts through `Database.build`."""
    rng = random.Random(seed)
    domains = {a: [f"{a.lower()}{i}" for i in range(pool)] for a in query.attributes}
    tables = {schema.name: [{a: rng.choice(domains[a]) for a in schema.attributes}
                            for _ in range(rows_per_relation)]
              for schema in query.relations}
    return Database.build(query, tables)


def test_random_family_matches_build_reference():
    rng = random.Random(243)
    queries = [parse_query("Q(A, C) :- R1(B, A), R2(D, C, B), R3(E)")]
    queries += [random_query(rng) for _ in range(80)]
    for query in queries:
        rows, pool, seed = rng.randint(0, 30), rng.randint(1, 6), rng.randrange(1 << 30)
        got = gen_random_db(query, rows, pool, seed).database
        assert got == build_random_db(query, rows, pool, seed)
