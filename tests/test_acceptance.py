"""End-to-end acceptance checks, one verdict line per criterion.

Each check exercises a slice of the pipeline at a fixed scale and prints
`ACCEPTANCE <n> <name>: PASS` or `: FAIL` on the real stdout, bypassing
pytest capture, so the run log always carries the ten verdicts.
"""
import itertools
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from witness_lab.engine import evaluate, is_witness
from witness_lab.dsf import line_to_dsf
from witness_lab.errors import UncoverableUniverse
from witness_lab.generators import (
    LabelCoverInstance,
    SetCoverInstance,
    gen_cover_db,
    gen_line3_db,
    gen_matrix_db,
)
from witness_lab.linprog import fractional_edge_cover
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import parse_query
from witness_lab.solvers import (
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
)
from witness_lab.storage import load_database
from witness_lab.structure import (
    classify,
    find_free_sequence,
    find_nested_clique,
    rename,
)

from corpus import (
    CATALOG,
    WORKED_OPTIMUM,
    WORKED_RESULTS,
    WORKED_SINGLE_RESULT,
    WORKED_SINGLE_WITNESS,
    as_columns,
    random_db,
    random_head_cluster_query,
    random_head_domination_query,
    random_query,
    random_single_nonoutput_query,
    rows_to_tuples,
)
from reference import (
    dsf_per_pair_paths,
    edges_connect_demands,
    max_density_set,
    pull_back,
    single_result_witness,
    witness_to_edge_ids,
)


@contextmanager
def check(number, name, time_limit=None):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if time_limit is not None:
            assert elapsed < time_limit, f"took {elapsed:.2f}s, limit {time_limit}s"
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.__stdout__)


_BUILDERS = {
    "cluster": (random_head_cluster_query, 50, 1205),
    "domination": (random_head_domination_query, 50, 1206),
    "single": (random_single_nonoutput_query, 30, 1207),
}


@lru_cache(maxsize=None)
def solver_suite(kind):
    """Seeded instances of one structural class, each at most 24 tuples,
    with the proven minimum witness size attached."""
    builder, count, seed = _BUILDERS[kind]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        query = builder(rng)
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size <= 24:
            out.append((query, db, brute_force_swp(query, db).size))
    return tuple(out)


def test_criterion_01_worked_example(data_dir):
    with check(1, "worked-example optimum", time_limit=1.0):
        query = parse_query((data_dir / "worked" / "query.txt").read_text())
        db = load_database(query, data_dir / "worked")
        assert rows_to_tuples(query, evaluate(query, db)) == WORKED_RESULTS
        witness = brute_force_swp(query, db)
        assert witness.size == WORKED_OPTIMUM
        assert is_witness(query, db, witness)
        single = single_result_witness(query, db, WORKED_SINGLE_RESULT)
        got = {name: {as_columns(query.schema(name), row) for row in rows}
               for name, rows in single.instances.items()}
        assert got == WORKED_SINGLE_WITNESS


def test_criterion_02_classification():
    with check(2, "classification and certificates", time_limit=10.0):
        for _, text, label in CATALOG:
            assert classify(parse_query(text)).label.value == label
        rng = random.Random(202)
        queries = [parse_query(text) for _, text, _ in CATALOG]
        queries += [random_query(rng) for _ in range(200)]
        for query in queries:
            # never raises, certificate always found when hard
            dominated = classify(query).head_domination
            sequence = find_free_sequence(query)
            clique = find_nested_clique(rename(query))
            assert dominated == (sequence is None and clique is None)


def test_criterion_03_cover_family():
    with check(3, "cover family identity", time_limit=60.0):
        rng = random.Random(303)
        produced = 0
        while produced < 25:
            universe = tuple(f"u{i}" for i in range(1, rng.randint(1, 5) + 1))
            subsets = tuple(
                tuple(sorted(rng.sample(universe, rng.randint(1, len(universe)))))
                for _ in range(rng.randint(1, 5)))
            try:
                instance = SetCoverInstance(universe, subsets)
            except UncoverableUniverse:
                continue
            gi = gen_cover_db(instance)
            assert gi.predicted_witness_size == len(universe) + gi.metadata["min_cover"]
            assert brute_force_swp(gi.query, gi.database).size == gi.predicted_witness_size
            produced += 1


def test_criterion_04_matrix_family():
    with check(4, "matrix family identity", time_limit=120.0):
        for n in range(1, 5):
            for k in range(1, n + 1):
                gi = gen_matrix_db(n, k)
                witness = brute_force_swp(gi.query, gi.database)
                assert witness.size == n * (k + 1) == gi.predicted_witness_size
                # the whole-database witness realises the bound integrally
                assert is_witness(gi.query, gi.database, witness)


def test_criterion_05_exact_solver():
    with check(5, "exact solver optimality", time_limit=120.0):
        for query, db, optimum in solver_suite("cluster"):
            report = solve_exact_head_cluster(query, db)
            assert is_witness(query, db, report.witness)
            assert report.witness_size == optimum


def test_criterion_06_approximation_factor():
    with check(6, "approximation factor", time_limit=120.0):
        for query, db, optimum in solver_suite("domination"):
            report = solve_approx_head_domination(query, db)
            assert is_witness(query, db, report.witness)
            assert report.witness_size <= 2 * len(query.relations) * max(1, optimum)


def test_criterion_07_greedy_log_factor():
    with check(7, "greedy log factor", time_limit=120.0):
        for query, db, optimum in solver_suite("single"):
            report = solve_greedy_single_nonoutput(query, db)
            assert is_witness(query, db, report.witness)
            assert report.witness_size <= report.claimed_ratio_bound * max(1, optimum)


def _enum_densest(vertices, weight_of):
    best_d, best_sets = None, []
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(sorted(vertices), r):
            s = frozenset(combo)
            d = Fraction(weight_of(s), len(s))
            if best_d is None or d > best_d:
                best_d, best_sets = d, [s]
            elif d == best_d:
                best_sets.append(s)
    return min(best_sets, key=lambda s: tuple(sorted(s))), best_d


def test_criterion_08_densest_and_pricing():
    with check(8, "densest subgraph and pricing", time_limit=30.0):
        rng = random.Random(801)
        for _ in range(100):
            nl, nr = rng.randint(1, 6), rng.randint(1, 6)
            left = tuple(f"x{i}" for i in range(nl))
            right = tuple(f"y{i}" for i in range(nr))
            pool = [(a, b) for a in left for b in right]
            edges = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 12))))
            keys = [frozenset({("L", a), ("R", b)}) for a, b in edges]
            got, density = max_density_set(dict.fromkeys(keys, 1))
            assert isinstance(density, Fraction)
            verts = {("L", v) for v in left} | {("R", v) for v in right}
            want_set, want_d = _enum_densest(verts, lambda s: sum(
                1 for e in keys if e <= s))
            assert density == want_d and got == want_set

        for _ in range(100):
            n = rng.randint(3, 12)
            verts = tuple(f"v{i:02d}" for i in range(n))
            pool = [frozenset(c) for c in itertools.combinations(verts, 3)]
            edges = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 10))))
            got, density = max_density_set(dict.fromkeys(edges, 1))
            assert isinstance(density, Fraction)
            want_set, want_d = _enum_densest(set(verts), lambda s: sum(
                1 for e in edges if e <= s))
            assert density == want_d and got == want_set

        # merging the tuple selections of two join values never prices
        # below the better of the two
        query = parse_query("Q(A) :- R1(A, B), R2(B)")
        pairs_checked = 0
        while pairs_checked < 500:
            rows = {(f"a{rng.randint(1, 5)}", f"b{rng.randint(1, 4)}")
                    for _ in range(rng.randint(2, 10))}
            values = sorted({b for _, b in rows})
            if len(values) < 2:
                continue
            b1, b2 = rng.sample(values, 2)

            def price(selected_values):
                x = [(a, b) for a, b in rows if b in selected_values]
                produced = {a for a, _ in x}
                if not produced:
                    return None
                return Fraction(len(x) + len(selected_values), len(produced))

            p1, p2 = price({b1}), price({b2})
            merged = price({b1, b2})
            finite = [p for p in (p1, p2) if p is not None]
            if merged is None:
                assert not finite
            else:
                assert finite and min(finite) <= merged
            pairs_checked += 1


def test_criterion_09_baseline_and_lower_bounds():
    with check(9, "baseline and size lower bounds"):
        for kind in ("cluster", "domination", "single"):
            for query, db, optimum in solver_suite(kind):
                report = solve_baseline_union(query, db)
                results = len(evaluate(query, db))
                assert report.witness_size <= len(query.relations) * min(db.size, results)
                rho = fractional_edge_cover(query)
                assert report.rho_star == rho
                assert optimum ** rho.numerator >= results ** rho.denominator  # AGM


def test_criterion_10_path_query_round_trip():
    with check(10, "path-query round trip", time_limit=30.0):
        rng = random.Random(1001)
        alphabet = ("x", "y", "z")
        for _ in range(10):
            constraints = {}
            for u in (1, 2):
                for v in (1, 2):
                    constraints[(u, v)] = frozenset(
                        {(rng.choice(alphabet), rng.choice(alphabet))})
            gi = gen_line3_db(LabelCoverInstance(2, alphabet, constraints), t=2)
            instance = line_to_dsf(gi.query, gi.database)

            oracle = brute_force_swp(gi.query, gi.database, cap=40)
            assert oracle.size <= gi.predicted_witness_size
            for witness in (oracle, solve_baseline_union(gi.query, gi.database).witness):
                ids = witness_to_edge_ids(instance, witness)
                assert len(ids) == witness.size
                assert edges_connect_demands(instance, ids)

            chosen = dsf_per_pair_paths(instance)
            back = pull_back(gi.query, instance, chosen)
            assert is_witness(gi.query, gi.database, back)
            assert back.size == len(chosen)
