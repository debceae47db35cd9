"""The exhaustive minimum-witness search."""
import itertools
import random

import pytest

from witness_lab.engine import evaluate, is_witness
from witness_lab.errors import BudgetExhausted, InstanceTooLarge
from witness_lab.model import Database, Row, Witness
from witness_lab.oracle import DEFAULT_ORACLE_CAP, brute_force_swp
from witness_lab.qparser import parse_query

from corpus import WORKED_OPTIMUM, worked_example, random_db, random_query


def exhaustive_minimum(query, db):
    """Check witnesses in increasing size by raw subset enumeration.
    Only usable on very small databases."""
    pool = [(name, row) for name in sorted(db.instances)
            for row in sorted(db.instances[name])]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            parts: dict[str, set[Row]] = {}
            for name, row in combo:
                parts.setdefault(name, set()).add(row)
            witness = Witness.build(query, parts, "enum")
            if is_witness(query, db, witness):
                return size
    raise AssertionError("the full database is always a witness")


def test_worked_example_optimum():
    query, db = worked_example()
    witness = brute_force_swp(query, db)
    assert witness.size == WORKED_OPTIMUM
    assert is_witness(query, db, witness)


def test_empty_result_gives_empty_witness():
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    db = Database.build(query, {"R1": [{"A": "a", "B": "b"}]})
    assert brute_force_swp(query, db).size == 0


def test_cap_refuses_large_databases():
    query, db = worked_example()
    with pytest.raises(InstanceTooLarge):
        brute_force_swp(query, db, cap=db.size - 1)
    assert DEFAULT_ORACLE_CAP == 30


def test_budget_limits_search_nodes():
    query, db = worked_example()
    with pytest.raises(BudgetExhausted, match="search-node budget 0"):
        brute_force_swp(query, db, budget=0)
    assert brute_force_swp(query, db, budget=100_000).size == WORKED_OPTIMUM


def test_disconnected_bodies_solve_per_component():
    query = parse_query("Q(A, C) :- R1(A, B), R2(C), R3(D)")
    db = Database.build(query, {
        "R1": [{"A": "a1", "B": "b1"}, {"A": "a1", "B": "b2"}, {"A": "a2", "B": "b1"}],
        "R2": [{"C": "c1"}, {"C": "c2"}],
        "R3": [{"D": "d1"}, {"D": "d2"}],
    })
    witness = brute_force_swp(query, db)
    # a1, a2 each need one R1 row; both R2 rows appear; one R3 row suffices
    assert witness.size == 2 + 2 + 1
    assert is_witness(query, db, witness)


def test_disconnected_with_one_empty_component():
    query = parse_query("Q(A) :- R1(A, B), R2(C)")
    db = Database.build(query, {"R1": [{"A": "a", "B": "b"}]})  # R2 empty
    assert evaluate(query, db) == frozenset()
    assert brute_force_swp(query, db).size == 0


def test_matches_subset_enumeration_on_tiny_instances():
    rng = random.Random(702)
    checked = 0
    for _ in range(60):
        query = random_query(rng, max_relations=3, max_attributes=4)
        db = random_db(query, rng, max_rows=3, domain=2)
        if db.size > 8:
            continue
        want = exhaustive_minimum(query, db)
        got = brute_force_swp(query, db)
        assert got.size == want
        assert is_witness(query, db, got) or not evaluate(query, db)
        checked += 1
    assert checked >= 25


def test_oracle_result_is_minimal_dropping_any_tuple_breaks_it():
    query, db = worked_example()
    witness = brute_force_swp(query, db)
    for name in sorted(witness.tuples):
        for row in sorted(witness.tuples[name]):
            smaller = {n: set(rows) for n, rows in witness.tuples.items()}
            smaller[name].discard(row)
            assert not is_witness(query, db, Witness.build(query, smaller, "probe"))
