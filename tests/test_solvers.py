"""Witness construction: the four solvers."""
import math
import random
from fractions import Fraction

import pytest

from witness_lab import densest, solvers
from witness_lab.engine import evaluate, full_join_results, is_witness
from witness_lab.errors import PreconditionViolated, ResultNotFound
from witness_lab.generators import gen_random_db
from witness_lab.model import Database, Query, Witness
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import parse_query
from witness_lab.solvers import (
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
    as_columns,
    build_db,
    project,
    worked_example,
    random_db,
    random_head_cluster_query,
    random_head_domination_query,
    random_query,
    random_single_nonoutput_query,
)


def as_tables(query, witness):
    return {name: {as_columns(query.schema(name), row) for row in rows}
            for name, rows in witness.tuples.items()}


def test_single_result_witness_matches_worked_example():
    query, db = worked_example()
    result = dict(zip(("A", "C", "F"), WORKED_SINGLE_RESULT))
    witness = witness_for_result(query, db, result)
    assert as_tables(query, witness) == WORKED_SINGLE_WITNESS
    assert witness.size == 4


def test_single_result_witness_validates_input():
    query, db = worked_example()
    with pytest.raises(ValueError):
        witness_for_result(query, db, {"A": "a1"})
    with pytest.raises(ValueError):
        witness_for_result(query, db, {"A": "a1", "C": "c1", "F": "f1", "B": "b1"})
    with pytest.raises(ResultNotFound) as err:
        witness_for_result(query, db, {"F": "f1", "C": "c2", "A": "a1"})
    assert str(err.value) == "output tuple (A='a1', C='c2', F='f1') is not a query result"


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


def eager_greedy(query, db):
    """Reference greedy: re-price every join value in every round and keep
    the first strictly cheaper candidate over the sorted values.  Returns
    the witness parts, the pricing calls made and the rounds in which
    several values shared the cheapest price."""
    b_attr = query.non_output[0]
    results = evaluate(query, db)
    parts = {schema.name: {project(query.head, t, schema.attributes) for t in results}
             for schema in query.relations if schema.attribute_set <= query.head_set}
    b_values = sorted({project(schema.attributes, row, [b_attr])[0]
                       for schema in query.relations if b_attr in schema.attribute_set
                       for row in db.instances[schema.name]})
    groups = densest.demand_groups(query, full_join_results(query, db))
    covered, calls, tied_rounds = frozenset(), 0, 0
    while covered != results:
        priced = [densest.min_price_candidate(groups.get(b, []), covered) for b in b_values]
        calls += len(b_values)
        best = None
        for candidate in priced:
            if candidate is not None and (best is None or candidate.price < best.price):
                best = candidate
        tied_rounds += sum(c is not None and c.price == best.price for c in priced) > 1
        for name, rows in best.subsets.items():
            parts.setdefault(name, set()).update(rows)
        covered |= best.new_results
    return parts, calls, tied_rounds


def test_greedy_matches_eager_reference():
    rng = random.Random(506)
    tied = 0
    for _ in range(60):
        query = random_single_nonoutput_query(rng)
        db = random_db(query, rng, max_rows=6, domain=3)
        report = solve_greedy_single_nonoutput(query, db)
        parts, _, tied_rounds = eager_greedy(query, db)
        assert report.witness.tuples == Witness.build(query, parts, "reference").tuples
        tied += tied_rounds > 0
    assert tied >= 10  # ties between join values decided many witnesses


def test_price_never_falls_as_coverage_grows():
    rng = random.Random(507)
    query = parse_query("Q(A, C) :- R1(A, B), R2(B, C)")
    checked = rose = 0
    for _ in range(40):
        db = random_db(query, rng, max_rows=8, domain=3)
        results = evaluate(query, db)
        groups = densest.demand_groups(query, full_join_results(query, db))
        ordered = sorted(results)
        for b_value in sorted({b for _, b in db.instances["R1"]}):
            group = groups.get(b_value, [])
            covered = frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 2)))
            before = densest.min_price_candidate(group, covered)
            grown = covered | frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 3)))
            after = densest.min_price_candidate(group, grown)
            if before is None:
                assert after is None
            elif after is not None:
                assert after.price >= before.price
                checked += 1
                rose += after.price > before.price
    assert checked >= 40 and rose >= 5


def test_lazy_greedy_prices_less_than_eager(monkeypatch):
    query = parse_query("Q(A, C) :- R1(A, B), R2(B, C)")
    db = gen_random_db(query, 40, 8, seed=5).database
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return densest.min_price_candidate(*args)

    monkeypatch.setattr(solvers, "min_price_candidate", counting)
    report = solve_greedy_single_nonoutput(query, db)
    parts, eager_calls, _ = eager_greedy(query, db)
    assert report.witness.tuples == Witness.build(query, parts, "reference").tuples
    assert calls < eager_calls


def probe_price(query, db, b_value, covered, results):
    """Reference pricing: probe, for each uncovered result, the one tuple
    per relation holding the non-output attribute at `b_value`; weight
    each demand by the results sharing it.  Returns None, or the subsets,
    new results and price of the densest demand set."""
    b_attr = query.non_output[0]
    head = sorted(query.head)
    edge_weight, edge_results = {}, {}
    for t in sorted(results - covered):
        values = dict(zip(head, t), **{b_attr: b_value})
        needed = []
        for schema in query.relations:
            if b_attr in schema.attribute_set:
                row = tuple(values[a] for a in schema.sorted_attributes)
                if row not in db.instances[schema.name]:
                    break
                needed.append((schema.name, row))
        else:
            key = frozenset(needed)
            edge_weight[key] = edge_weight.get(key, 0) + 1
            edge_results.setdefault(key, []).append(t)
    if not edge_weight:
        return None
    subset, density = densest._max_density_set(edge_weight)
    subsets = {}
    for name, row in subset:
        subsets.setdefault(name, set()).add(row)
    new_results = {t for key, ts in edge_results.items() if key <= subset for t in ts}
    return ({name: frozenset(rows) for name, rows in subsets.items()},
            frozenset(new_results), 1 / density)


def test_grouped_pricing_matches_per_result_probes():
    rng = random.Random(508)
    priced = nones = 0
    for _ in range(200):
        query = random_single_nonoutput_query(rng)
        db = random_db(query, rng, max_rows=6, domain=3)
        rows = full_join_results(query, db)
        results = frozenset(project(query.attributes, fj, query.head) for fj in rows)
        groups = densest.demand_groups(query, rows)
        b_values = {project(schema.attributes, row, ["B"])[0]
                    for schema in query.relations if "B" in schema.attribute_set
                    for row in db.instances[schema.name]}
        ordered = sorted(results)
        for b_value in sorted(b_values | {"b_absent"}):
            covered = frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 2)))
            want = probe_price(query, db, b_value, covered, results)
            got = densest.min_price_candidate(groups.get(b_value, []), covered)
            if want is None:
                assert got is None
                nones += 1
            else:
                assert (got.subsets, got.new_results, got.price) == want
                priced += 1
    assert priced >= 120 and nones >= 200


def renamed(db, prefix):
    return Database({name: frozenset(tuple(prefix + v for v in row) for row in rows)
                     for name, rows in db.instances.items()})


def test_greedy_ignores_atom_order_and_order_preserving_renaming():
    """A fixed prefix keeps the order of string values, and the atom order
    plays no part in a greedy witness."""
    rng = random.Random(11)
    for _ in range(400):
        query = random_single_nonoutput_query(rng)
        db = random_db(query, rng, max_rows=7, domain=3)
        witness = solve_greedy_single_nonoutput(query, db).witness.tuples
        atoms = list(query.relations)
        rng.shuffle(atoms)
        shuffled = Query(query.head, tuple(atoms))
        assert solve_greedy_single_nonoutput(shuffled, db).witness.tuples == witness
        renamed_witness = renamed(Witness(witness, "greedy").as_database(), "w_").instances
        assert solve_greedy_single_nonoutput(query, renamed(db, "w_")).witness.tuples \
            == renamed_witness


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
        candidates = [fj for fj in rows if project(query.attributes, fj, query.head) == result]
        ties += len(candidates) > 1
        best = min(candidates)
        for schema in query.relations:
            parts.setdefault(schema.name, set()).add(
                project(query.attributes, best, schema.attributes))
    return ties


def reference_component_walk(query, db):
    results = evaluate(query, db)
    parts, ties = {}, 0
    if results:
        for schema in query.relations:
            if schema.attribute_set <= query.head_set:
                parts[schema.name] = {project(query.head, t, schema.attributes)
                                      for t in results}
        for comp in existential_components(query):
            sub = query.subquery(comp.output_attributes, comp.relations)
            ties += smallest_join_per_result(
                parts, sub, db.restrict(comp.relations),
                {project(query.head, t, comp.output_attributes) for t in results})
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


@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_cheapest_join_ignores_row_order(monkeypatch, reorder):
    """The full join comes in no particular order; each result still gets
    the lexicographically smallest full join result projecting onto it."""
    rng = random.Random(517)
    original = solvers.full_join_results

    def reordered(query, db):
        rows = sorted(original(query, db), reverse=True)
        if reorder == "shuffled":
            rng.shuffle(rows)
        return rows

    cases = []
    for _ in range(40):
        query = random_query(rng)
        db = random_db(query, rng, max_rows=6, domain=3)
        results = sorted(evaluate(query, db))
        cases.append((query, db, results[:3], solve_baseline_union(query, db).witness))
    monkeypatch.setattr(solvers, "full_join_results", reordered)
    tied = 0
    for query, db, results, baseline in cases:
        assert solve_baseline_union(query, db).witness == baseline
        for t in results:
            parts: dict = {}
            tied += smallest_join_per_result(parts, query, db, [t])
            result = dict(zip(sorted(query.head), t))
            assert witness_for_result(query, db, result).tuples == \
                Witness.build(query, parts, "reference").tuples
    assert tied >= 10


def test_report_json_renders_fractions_as_strings():
    query = parse_query("Q(A, B) :- R(A, B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})
    doc = solve_exact_head_cluster(query, db).to_json_dict()
    assert doc["claimed_ratio_bound"] == "1"
    assert doc["algorithm"] == "exact"
    assert doc["witness_size"] == 1

