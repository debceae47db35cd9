"""Witness construction: the four solvers and dangling-tuple removal."""
import math
import random
from fractions import Fraction

import pytest

from witness_lab.engine import evaluate, full_join_results, is_witness
from witness_lab.errors import PreconditionViolated, ResultNotFound
from witness_lab.model import Database, Row, Witness
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import parse_query
from witness_lab.solvers import (
    remove_dangling,
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
    witness_for_result,
)
from witness_lab.structure import existential_components

from corpus import (
    WORKED_SINGLE_RESULT,
    WORKED_SINGLE_WITNESS,
    WORKED_TEXT,
    build_db,
    worked_example,
    random_db,
    random_head_cluster_query,
    random_head_domination_query,
    random_query,
    random_single_nonoutput_query,
)


def as_tables(query, witness):
    return {name: {tuple(row[a] for a in query.schema(name).attributes)
                   for row in rows}
            for name, rows in witness.tuples.items()}


def test_single_result_witness_matches_worked_example():
    query, db = worked_example()
    result = Row.make(dict(zip(("A", "C", "F"), WORKED_SINGLE_RESULT)))
    witness = witness_for_result(query, db, result)
    assert as_tables(query, witness) == WORKED_SINGLE_WITNESS
    assert witness.size == 4


def test_single_result_witness_validates_input():
    query, db = worked_example()
    with pytest.raises(ValueError):
        witness_for_result(query, db, Row.make({"A": "a1"}))
    with pytest.raises(ResultNotFound):
        witness_for_result(query, db, Row.make({"A": "a1", "C": "c2", "F": "f1"}))


def test_exact_requires_head_cluster():
    query, db = worked_example()
    with pytest.raises(PreconditionViolated):
        solve_exact_head_cluster(query, db)


def test_exact_on_full_query_returns_participating_tuples():
    query = parse_query("Q(A, B) :- R(A, B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}, {"A": "3", "B": "4"}]})
    report = solve_exact_head_cluster(query, db)
    assert report.witness_size == 2
    assert report.claimed_ratio_bound == Fraction(1)
    assert is_witness(query, db, report.witness)


def test_exact_matches_oracle_on_random_head_cluster():
    rng = random.Random(501)
    checked = 0
    for _ in range(25):
        query = random_head_cluster_query(rng)
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size > 24:
            continue
        report = solve_exact_head_cluster(query, db)
        assert is_witness(query, db, report.witness)
        assert report.witness_size == brute_force_swp(query, db).size
        checked += 1
    assert checked >= 15


def test_approx_requires_head_domination():
    query, db = worked_example()
    with pytest.raises(PreconditionViolated):
        solve_approx_head_domination(query, db)


def test_approx_stays_within_claimed_factor():
    rng = random.Random(502)
    checked = 0
    for _ in range(25):
        query = random_head_domination_query(rng)
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size > 24:
            continue
        report = solve_approx_head_domination(query, db)
        assert is_witness(query, db, report.witness)
        optimum = brute_force_swp(query, db).size
        assert report.witness_size <= report.claimed_ratio_bound * optimum
        assert report.claimed_ratio_bound == 2 * len(query.relations)
        checked += 1
    assert checked >= 15


def test_greedy_requires_single_non_output():
    query, db = worked_example()  # two non-output attributes
    with pytest.raises(PreconditionViolated):
        solve_greedy_single_nonoutput(query, db)


def test_greedy_covers_worked_cover_instance():
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    db = Database.build(query, {
        "R1": [{"A": "a1", "B": "b1"}, {"A": "a2", "B": "b1"},
               {"A": "a2", "B": "b2"}, {"A": "a3", "B": "b2"}],
        "R2": [{"B": "b1"}, {"B": "b2"}],
    })
    report = solve_greedy_single_nonoutput(query, db)
    assert is_witness(query, db, report.witness)
    # both join values needed: three R1 rows plus both R2 rows
    assert report.witness_size == brute_force_swp(query, db).size == 5
    assert report.claimed_ratio_bound == 1.0 + math.log(3)


def test_greedy_within_log_factor_on_random_instances():
    rng = random.Random(503)
    checked = 0
    for _ in range(20):
        query = random_single_nonoutput_query(rng)
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size > 24:
            continue
        report = solve_greedy_single_nonoutput(query, db)
        assert is_witness(query, db, report.witness)
        optimum = brute_force_swp(query, db).size
        assert report.witness_size <= report.claimed_ratio_bound * max(1, optimum)
        checked += 1
    assert checked >= 12


def test_baseline_on_worked_example():
    query, db = worked_example()
    report = solve_baseline_union(query, db)
    assert is_witness(query, db, report.witness)
    assert report.witness_size <= len(query.relations) * report.result_count
    assert report.rho_star == Fraction(3)
    assert report.claimed_ratio_bound == pytest.approx(float(db.size) ** (2 / 3))


def test_baseline_handles_empty_results():
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    db = Database.build(query, {"R1": [{"A": "a", "B": "b"}]})
    report = solve_baseline_union(query, db)
    assert report.witness_size == 0
    assert report.result_count == 0
    assert is_witness(query, db, report.witness)


def smallest_join_per_result(parts, query, db, wanted):
    """Reference tie-break: for each wanted head row, the minimum of the
    unfixed full join rows projecting onto it.  Returns how many rows had
    more than one candidate."""
    rows = full_join_results(query, db)
    ties = 0
    for result in wanted:
        candidates = [fj for fj in rows if fj.project(query.head) == result]
        ties += len(candidates) > 1
        best = min(candidates)
        for schema in query.relations:
            parts.setdefault(schema.name, set()).add(best.project(schema.attributes))
    return ties


def reference_component_walk(query, db):
    results = evaluate(query, db)
    parts, ties = {}, 0
    if results:
        for schema in query.relations:
            if schema.attribute_set <= query.head_set:
                parts[schema.name] = {t.project(schema.attributes) for t in results}
        for comp in existential_components(query):
            sub = query.subquery(comp.output_attributes, comp.relations)
            ties += smallest_join_per_result(
                parts, sub, db.restrict(comp.relations),
                {t.project(comp.output_attributes) for t in results})
    return parts, ties


def reference_baseline(query, db):
    parts = {}
    ties = smallest_join_per_result(parts, query, db, evaluate(query, db))
    return parts, ties


@pytest.mark.parametrize("make_query, solve, reference", [
    (random_head_cluster_query, solve_exact_head_cluster, reference_component_walk),
    (random_head_domination_query, solve_approx_head_domination, reference_component_walk),
    (random_query, solve_baseline_union, reference_baseline),
])
def test_witness_is_smallest_full_join_per_result(make_query, solve, reference):
    rng = random.Random(505)
    tied = 0
    for _ in range(80):
        query = make_query(rng)
        db = random_db(query, rng, max_rows=6, domain=3)
        report = solve(query, db)
        parts, ties = reference(query, db)
        assert report.witness.tuples == Witness.build(query, parts, "reference").tuples
        tied += ties > 0
    assert tied >= 10  # the tie-break decided the witness on many instances


def test_report_json_renders_fractions_as_strings():
    query = parse_query("Q(A, B) :- R(A, B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})
    doc = solve_exact_head_cluster(query, db).to_json_dict()
    assert doc["claimed_ratio_bound"] == "1"
    assert doc["algorithm"] == "exact"
    assert doc["witness_size"] == 1


def test_remove_dangling_requires_full_acyclic():
    query, db = worked_example()
    with pytest.raises(PreconditionViolated):
        remove_dangling(query, db)  # head is not all attributes
    cyclic = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)")
    with pytest.raises(PreconditionViolated):
        remove_dangling(cyclic, Database.build(cyclic, {}))


def test_remove_dangling_keeps_participating_tuples_only():
    text = "Q(A, B, C, F, H) :- R1(A, B), R2(B, C), R3(C, F), R4(C, H)"
    query = parse_query(text)
    _, db = worked_example()
    cleaned = remove_dangling(query, Database(db.instances))
    survivors = {name: len(rows) for name, rows in cleaned.instances.items()}
    assert survivors == {"R1": 3, "R2": 2, "R3": 2, "R4": 3}
    # exactly the tuples some full result uses
    used: dict[str, set] = {name: set() for name in db.instances}
    for row in evaluate(query, db):
        for schema in query.relations:
            used[schema.name].add(row.project(schema.attributes))
    assert {n: frozenset(v) for n, v in used.items()} == dict(cleaned.instances)


def test_remove_dangling_random_agrees_with_participation():
    rng = random.Random(504)
    query = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C)")
    for _ in range(30):
        db = random_db(query, rng, max_rows=5, domain=3)
        cleaned = remove_dangling(query, db)
        used: dict[str, set] = {name: set() for name in db.instances}
        for row in evaluate(query, db):
            for schema in query.relations:
                used[schema.name].add(row.project(schema.attributes))
        assert {n: frozenset(v) for n, v in used.items()} == dict(cleaned.instances)
