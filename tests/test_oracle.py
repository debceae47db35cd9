"""The exhaustive minimum-witness search."""
import itertools
import random

import pytest

from witness_lab import oracle, solvers
from witness_lab.engine import evaluate, full_join_results, is_witness
from witness_lab.errors import BudgetExhausted, InstanceTooLarge
from witness_lab.generators import gen_random_db
from witness_lab.model import Database
from witness_lab.oracle import DEFAULT_ORACLE_CAP, brute_force_swp
from witness_lab.qparser import format_query, parse_query
from witness_lab.solvers import (
    solve_approx_head_domination,
    solve_baseline_union,
    solve_greedy_single_nonoutput,
)
from witness_lab.structure import existential_components

from corpus import (
    CATALOG,
    WORKED_OPTIMUM,
    random_db,
    random_query,
    small_random_queries,
    worked_example,
)


def exhaustive_minimum(query, db):
    """Check witnesses in increasing size by raw subset enumeration.
    Only usable on very small databases."""
    pool = [(name, row) for name in sorted(db.instances)
            for row in sorted(db.instances[name])]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            parts: dict[str, set[tuple[str, ...]]] = {}
            for name, row in combo:
                parts.setdefault(name, set()).add(row)
            witness = Database.of(query, parts)
            if is_witness(query, db, witness):
                return size
    raise AssertionError("the full database is always a witness")


def test_worked_example_optimum():
    query, db = worked_example()
    witness = brute_force_swp(query, db).witness
    assert witness.size == WORKED_OPTIMUM
    assert is_witness(query, db, witness)


def test_empty_result_gives_empty_witness():
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    db = Database.build(query, {"R1": [{"A": "a", "B": "b"}]})
    assert brute_force_swp(query, db).witness_size == 0


def test_cap_refuses_large_databases():
    query, db = worked_example()
    with pytest.raises(InstanceTooLarge):
        brute_force_swp(query, db, cap=db.size - 1)
    assert DEFAULT_ORACLE_CAP == 30


def test_budget_limits_search_nodes():
    query, db = worked_example()
    with pytest.raises(BudgetExhausted, match="search-node budget 0"):
        brute_force_swp(query, db, budget=0)
    assert brute_force_swp(query, db, budget=100_000).witness_size == WORKED_OPTIMUM


def test_disconnected_bodies_solve_per_component():
    query = parse_query("Q(A, C) :- R1(A, B), R2(C), R3(D)")
    db = Database.build(query, {
        "R1": [{"A": "a1", "B": "b1"}, {"A": "a1", "B": "b2"}, {"A": "a2", "B": "b1"}],
        "R2": [{"C": "c1"}, {"C": "c2"}],
        "R3": [{"D": "d1"}, {"D": "d2"}],
    })
    witness = brute_force_swp(query, db).witness
    # a1, a2 each need one R1 row; both R2 rows appear; one R3 row suffices
    assert witness.size == 2 + 2 + 1
    assert is_witness(query, db, witness)


def test_disconnected_with_one_empty_component():
    query = parse_query("Q(A) :- R1(A, B), R2(C)")
    db = Database.build(query, {"R1": [{"A": "a", "B": "b"}]})  # R2 empty
    assert evaluate(query, db) == frozenset()
    assert brute_force_swp(query, db).witness_size == 0
    assert brute_force_swp(query, db, budget=0).witness_size == 0  # no search node spent


def test_matches_subset_enumeration_on_tiny_instances():
    rng = random.Random(702)
    checked = 0
    for _ in range(60):
        query = random_query(rng, max_relations=3, max_attributes=4)
        db = random_db(query, rng, max_rows=3, domain=2)
        if db.size > 8:
            continue
        want = exhaustive_minimum(query, db)
        got = brute_force_swp(query, db).witness
        assert got.size == want
        assert is_witness(query, db, got) or not evaluate(query, db)
        checked += 1
    assert checked >= 25


def test_component_search_matches_one_search_over_the_whole_query():
    """The oracle searches each existential component alone and adds the
    head-only atoms' projections; one search over the whole query's full
    join, with no split, must find the same minimum."""
    rng = random.Random(705)
    split = 0
    for query in small_random_queries():
        db = random_db(query, rng)
        full = full_join_results(query, db)
        whole = oracle._solve_connected(query, full, oracle._Budget(None)) if full else {}
        assert (brute_force_swp(query, db, cap=db.size).witness_size
                == sum(len(rows) for rows in whole.values())), format_query(query)
        head_only = any(schema.attribute_set <= query.head_set for schema in query.relations)
        split += len(existential_components(query)) > 1 or head_only
    assert split >= 1500, split


def test_oracle_result_is_minimal_dropping_any_tuple_breaks_it():
    query, db = worked_example()
    witness = brute_force_swp(query, db).witness
    for name in sorted(witness.instances):
        for row in sorted(witness.instances[name]):
            smaller = {n: set(rows) for n, rows in witness.instances.items()}
            smaller[name].discard(row)
            assert not is_witness(query, db, Database.of(query, smaller))


@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_witness_ignores_full_join_row_order(monkeypatch, reorder):
    """The oracle numbers tuples in sorted order (`engine.incidence`) and
    searches the results sorted, so the order of the join rows the
    component walk gives it must not reach the witness."""
    rng = random.Random(703)
    original = solvers.full_join_results

    def reordered(query, db):
        rows = sorted(original(query, db), reverse=True)
        if reorder == "shuffled":
            rng.shuffle(rows)
        return rows

    cases = [worked_example()]
    while len(cases) < 40:
        query = random_query(rng, max_relations=3, max_attributes=4)
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size <= DEFAULT_ORACLE_CAP:
            cases.append((query, db))
    expected = [brute_force_swp(query, db).witness for query, db in cases]
    monkeypatch.setattr(solvers, "full_join_results", reordered)
    for (query, db), want in zip(cases, expected):
        assert brute_force_swp(query, db).witness == want


# Search nodes a full search ticks, summed over the existential components,
# on gen_random_db(query, 12, 4, seed) for seeds 0-5 (every instance has at
# most 45 tuples).
PINNED_NODES = {
    "worked": (4, 10, 8, 2, 2, 6),
    "cover": (1, 1, 3, 1, 1, 1),
    "matrix": (3, 9, 11, 1, 1, 5),
    "line3": (1, 19, 91, 10, 30, 7),
    "star3": (1, 3, 1, 1, 3, 1),
}


@pytest.mark.parametrize("name", sorted(PINNED_NODES))
def test_node_counts_pin_the_search_order(name):
    """The search branches on the first open result with the fewest
    deltas and visits its children by (size, delta); any other order
    ticks a different number of nodes on some of these instances."""
    query = parse_query(next(text for n, text, _ in CATALOG if n == name))
    for seed, nodes in enumerate(PINNED_NODES[name]):
        db = gen_random_db(query, 12, 4, seed).database
        brute_force_swp(query, db, budget=nodes, cap=45)
        with pytest.raises(BudgetExhausted):
            brute_force_swp(query, db, budget=nodes - 1, cap=45)


# Instances of 92-262 tuples where the routes part from the optimum: past
# the default cap, and each searched in at most 18,848 nodes.  The two-hops
# and two_hop_tail instances have two existential components each.
TWO_HOPS = "Q(A, C, E) :- R1(A, B), R2(B, C), R3(C, D), R4(D, E)"
TWO_HOP_TAIL = next(text for name, text, _ in CATALOG if name == "two_hop_tail")
RATIO_CASES = (
    [("Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)", 40, 10, seed, solve_baseline_union)
     for seed in range(1, 6)]
    + [("Q(A, C) :- R1(A, B), R2(B, C)", 80, 14, seed, solve_greedy_single_nonoutput)
       for seed in range(1, 4)]
    + [(TWO_HOPS, 80, 14, seed, solve_baseline_union) for seed in (1, 3, 4)]
    + [(TWO_HOP_TAIL, 40, 10, 1, solve_approx_head_domination)])
RATIO_NAMES = {TWO_HOPS: "two-hops-", TWO_HOP_TAIL: "two_hop_tail-"}


@pytest.mark.parametrize("text, rows, pool, seed, solve", RATIO_CASES,
                         ids=[f"{RATIO_NAMES.get(text, '')}{s.__name__}-{seed}"
                              for text, *_, seed, s in RATIO_CASES])
def test_route_ratio_against_the_optimum(text, rows, pool, seed, solve):
    query = parse_query(text)
    db = gen_random_db(query, rows, pool, seed).database
    optimum = brute_force_swp(query, db, cap=300, budget=20_000).witness
    assert is_witness(query, db, optimum)
    report = solve(query, db)
    assert optimum.size <= report.witness_size <= report.claimed_ratio_bound * optimum.size
