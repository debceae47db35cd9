"""Join evaluation against an independent nested-loop reference."""
import random

import pytest

from witness_lab.engine import evaluate, full_join_results, is_witness
from witness_lab.errors import NotASubDatabase
from witness_lab.model import Database, Query, Witness
from witness_lab.qparser import parse_query

from corpus import (
    CATALOG,
    WORKED_RESULTS,
    WORKED_SINGLE_WITNESS,
    build_db,
    worked_example,
    naive_evaluate,
    random_db,
    random_query,
    rows_to_tuples,
)


def test_worked_example_results_frozen():
    query, db = worked_example()
    assert rows_to_tuples(query, evaluate(query, db)) == WORKED_RESULTS


def test_empty_relation_empties_result():
    query, db = worked_example()
    hollow = Database({**db.instances, "R3": frozenset()})
    assert evaluate(query, hollow) == frozenset()


def test_boolean_query_yields_empty_row():
    query = parse_query("Q() :- R(A, B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})
    assert evaluate(query, db) == frozenset({()})
    assert evaluate(query, Database.build(query, {})) == frozenset()


@pytest.mark.parametrize("name,text,_", CATALOG, ids=[c[0] for c in CATALOG])
def test_matches_reference_on_catalog(name, text, _):
    query = parse_query(text)
    rng = random.Random(hash(name) & 0xFFFF)
    for _round in range(5):
        db = random_db(query, rng)
        assert rows_to_tuples(query, evaluate(query, db)) == naive_evaluate(query, db)


def test_matches_reference_on_random_queries():
    rng = random.Random(411)
    for _ in range(150):
        query = random_query(rng)
        db = random_db(query, rng, max_rows=4)
        results = evaluate(query, db)
        assert rows_to_tuples(query, results) == naive_evaluate(query, db)
        assert all(len(row) == len(query.head_set) for row in results)
        full = Query(query.attributes, query.relations)
        assert rows_to_tuples(full, full_join_results(query, db)) == naive_evaluate(full, db)


# Each query steers one atom of `engine._join` onto one of its paths.
JOIN_PATHS = [
    ("first-atom-projected", "Q(C) :- R1(A, B), R2(B, C)"),
    ("first-atom-projected-to-nothing", "Q(C) :- R1(A), R2(C)"),
    ("adds-nothing-shared", "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"),
    ("adds-nothing-shared-projected", "Q(A) :- R1(A, B), R2(B, C), R3(A, C)"),
    ("adds-nothing-disconnected", "Q(A) :- R1(A), R2(B)"),
    ("full-sorted-concatenation", "Q(A, B, C) :- R1(A, B), R2(B, C)"),
    ("full-reordered", "Q(A, B, C) :- R1(B, C), R2(A, B)"),
    ("left-projected-line3", "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"),
    ("left-projected-two-hop", "Q(A, C) :- R1(A, B), R2(B, C)"),
    ("left-projected-star3", "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)"),
]


@pytest.mark.parametrize("text", [t for _, t in JOIN_PATHS], ids=[n for n, _ in JOIN_PATHS])
def test_join_paths_match_reference(text):
    query = parse_query(text)
    full = Query(query.attributes, query.relations)
    rng = random.Random(text)
    for round_no in range(30):
        db = random_db(query, rng, max_rows=5, domain=3)
        if round_no % 5 == 0:  # empty the last atom or the one before it
            name = query.relations[-1 - round_no % 2].name
            db = Database({**db.instances, name: frozenset()})
        assert rows_to_tuples(query, evaluate(query, db)) == naive_evaluate(query, db)
        rows = full_join_results(query, db)
        assert len(rows) == len(set(rows))
        assert rows_to_tuples(full, rows) == naive_evaluate(full, db)


def test_full_join_binds_every_attribute():
    query, db = worked_example()
    rows = full_join_results(query, db)
    assert len(rows) == len(set(rows))
    for row in rows:
        assert len(row) == len(query.attributes)
        binding = dict(zip(query.attributes, row))
        for schema in query.relations:
            assert tuple(binding[a] for a in sorted(schema.attributes)) in db.instances[schema.name]


def test_is_witness_accepts_single_result_cover():
    query, db = worked_example()
    single = build_db(query, WORKED_SINGLE_WITNESS).instances
    witness = Witness.build(query, single, "frozen")
    sub_query = query  # same body, restricted data
    assert not is_witness(sub_query, db, witness)  # misses two results
    full = Witness.build(query, db.instances, "copy")
    assert is_witness(query, db, full)


def test_is_witness_rejects_foreign_tuples():
    query, db = worked_example()
    alien = Witness.build(query, {"R1": [("zz", "zz")]}, "bad")
    with pytest.raises(NotASubDatabase) as err:
        is_witness(query, db, alien)
    assert str(err.value) == "candidate tuple (A='zz', B='zz') is not present in relation 'R1'"
    # stored tuples hold values in attribute-name order, not column order
    query = parse_query("Q(A) :- R1(B, A)")
    db = Database.build(query, {"R1": [{"A": "a1", "B": "b1"}]})
    with pytest.raises(NotASubDatabase) as err:
        is_witness(query, db, Witness.build(query, {"R1": [("a1", "zz")]}, "bad"))
    assert str(err.value) == "candidate tuple (A='a1', B='zz') is not present in relation 'R1'"


def test_is_witness_empty_on_empty_result():
    query = parse_query("Q(A) :- R(A, B), S(B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})  # S empty
    assert is_witness(query, db, Witness.build(query, {}, "empty"))
