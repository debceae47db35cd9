"""Column order is presentation only.

Listing an atom's attributes (or the head) in another order must not
change which tuples a witness holds or any number a report gives, and
CSV and JSON output must follow the schema's column order with every
value under its own attribute, whatever order the input header used.
"""
import csv
import json
import random

import pytest

from witness_lab.cli import main
from witness_lab.model import Database, Query, RelationSchema
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import parse_query
from witness_lab.solvers import (
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
)

from corpus import (
    WORKED_TABLES,
    WORKED_TEXT,
    random_head_cluster_query,
    random_head_domination_query,
    random_query,
    random_single_nonoutput_query,
)


def permuted(query: Query, rng: random.Random) -> Query:
    """The same query with every attribute list reversed, then shuffled
    when that leaves it in name order."""
    def reorder(attrs):
        out = list(reversed(attrs))
        if len(out) > 1 and out == sorted(out):
            rng.shuffle(out)
        return tuple(out)
    return Query(reorder(query.head),
                 tuple(RelationSchema(r.name, reorder(r.attributes)) for r in query.relations))


def random_tables(query: Query, rng: random.Random, max_rows: int, domain: int):
    return {schema.name: [{a: f"{a.lower()}v{rng.randint(1, domain)}" for a in schema.attributes}
                          for _ in range(rng.randint(1, max_rows))]
            for schema in query.relations}


def as_assignments(query: Query, witness) -> dict[str, set[frozenset]]:
    """Witness tuples as sets of (attribute, value) pairs, per relation."""
    return {schema.name: {frozenset(zip(schema.sorted_attributes, row))
                          for row in witness.instances[schema.name]}
            for schema in query.relations}


def solver_report(solve):
    def run(query, db):
        report = solve(query, db)
        return report.witness, report.to_json_dict() | {"results": len(report.results)}
    return run


oracle_report = solver_report(brute_force_swp)


ROUTES = [
    ("exact", random_head_cluster_query, solver_report(solve_exact_head_cluster), 30),
    ("approx", random_head_domination_query, solver_report(solve_approx_head_domination), 30),
    ("greedy", random_single_nonoutput_query, solver_report(solve_greedy_single_nonoutput), 30),
    ("baseline", random_query, solver_report(solve_baseline_union), 30),
    ("oracle", random_query, oracle_report, 4),
]


def assert_same_outcome(query, tables, solve, rng):
    other = permuted(query, rng)
    witness, numbers = solve(query, Database.build(query, tables))
    other_witness, other_numbers = solve(other, Database.build(other, tables))
    assert other_numbers == numbers
    assert as_assignments(other, other_witness) == as_assignments(query, witness)
    return numbers


@pytest.mark.parametrize("make_query, solve, max_rows",
                         [route[1:] for route in ROUTES], ids=[route[0] for route in ROUTES])
def test_reordered_attributes_keep_witness_and_report(make_query, solve, max_rows):
    rng = random.Random(708)
    nonempty = 0
    for _ in range(40):
        query = make_query(rng)
        tables = random_tables(query, rng, max_rows, 3)
        if solve is oracle_report and Database.build(query, tables).size > 30:
            continue
        numbers = assert_same_outcome(query, tables, solve, rng)
        nonempty += numbers["witness_size"] > 0
    assert nonempty >= 10


@pytest.mark.parametrize("solve", [solver_report(solve_baseline_union), oracle_report],
                         ids=["baseline", "oracle"])
def test_reordered_worked_example(solve):
    query = parse_query(WORKED_TEXT)
    tables = {name: [dict(zip(query.schema(name).attributes, row)) for row in rows]
              for name, rows in WORKED_TABLES.items()}
    numbers = assert_same_outcome(query, tables, solve, random.Random(0))
    assert numbers["witness_size"] > 0


def read_csv(path):
    with path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


QUERIES = {
    "exact": "Q(C, A) :- R1(B, A), R2(A, B), R3(D, C)",
    "approx": "Q(C, A) :- R1(B, A), R2(B), R3(C, A)",
    "greedy": "Q(C, A) :- R1(B, A), R2(C, B)",
    "baseline": "Q(D, A) :- R1(B, A), R2(C, B), R3(D, C)",
    "oracle": "Q(C, A) :- R1(B, A), R2(C, B)",
}


@pytest.mark.parametrize("algo", sorted(QUERIES))
def test_csv_header_order_differs_from_schema(capsys, tmp_path, algo):
    """Each file lists its columns in the reverse of the schema's order;
    the output files and JSON follow the schema, values under their own
    attribute."""
    query = parse_query(QUERIES[algo])
    rng = random.Random(709)
    data = tmp_path / "data"
    data.mkdir()
    (data / "query.txt").write_text(QUERIES[algo] + "\n")
    stored = {}
    for schema in query.relations:
        header = list(reversed(schema.attributes))
        rows = {tuple(f"{a.lower()}{rng.randint(1, 3)}" for a in header) for _ in range(6)}
        with (data / f"{schema.name}.csv").open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *sorted(rows)])
        stored[schema.name] = {frozenset(zip(header, row)) for row in rows}
    out = tmp_path / "out"
    assert main(["solve", str(data / "query.txt"), str(data), "--algo", algo,
                 "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["result_count"] > 0
    size = 0
    for schema in query.relations:
        header, rows = read_csv(out / f"{schema.name}.csv")
        assert header == list(schema.attributes)
        assert rows == sorted(rows)
        written = {frozenset(zip(header, row)) for row in rows}
        assert len(written) == len(rows) and written <= stored[schema.name]
        part = doc["witness"][schema.name]
        assert part["columns"] == list(schema.attributes)
        assert part["rows"] == rows
        size += len(rows)
    assert size == doc["report"]["witness_size"]
