"""Join evaluation against an independent nested-loop reference."""
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from witness_lab import engine
from witness_lab.engine import evaluate, full_join_results, incidence, is_witness
from witness_lab.errors import NotASubDatabase
from witness_lab.model import Database, Query
from witness_lab.qparser import parse_query

from corpus import (
    CATALOG,
    WORKED_RESULTS,
    WORKED_SINGLE_WITNESS,
    build_db,
    worked_example,
    naive_evaluate,
    project,
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
    rng = random.Random(name)
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



def test_relations_outside_the_query_are_not_read():
    """A subquery joins over the whole database, as the component walk and
    the oracle join theirs: relations outside it change neither Q(D) nor
    the full join results."""
    rng = random.Random(417)
    wider = 0
    for _ in range(150):
        query = random_query(rng)
        db = random_db(query, rng, max_rows=4)
        names = rng.sample([r.name for r in query.relations], rng.randint(1, len(query.relations)))
        sub = query.subquery([a for a in query.head
                              if any(a in query.schema(n).attribute_set for n in names)], names)
        own = Database({name: db.instances[name] for name in names})
        assert evaluate(sub, db) == evaluate(sub, own)
        assert rows_to_tuples(sub, evaluate(sub, db)) == naive_evaluate(sub, own)
        assert sorted(full_join_results(sub, db)) == sorted(full_join_results(sub, own))
        wider += len(names) < len(query.relations)
    assert wider >= 75, wider

# Each query steers one atom of `engine._join` onto one of its paths.
JOIN_PATHS = [
    ("first-atom-projected", "Q(C) :- R1(A, B), R2(B, C)"),
    ("first-atom-projected-to-nothing", "Q(C) :- R1(A), R2(C)"),
    ("adds-nothing-shared", "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A)"),
    ("adds-nothing-shared-projected", "Q(A) :- R1(A, B), R2(B, C), R3(A, B)"),
    ("adds-nothing-disconnected", "Q(A) :- R1(A), R2(B)"),
    ("full-sorted-concatenation", "Q(A, B, C) :- R1(A, B), R2(B, C)"),
    ("full-reordered", "Q(A, B, C) :- R1(B, C), R2(A, B)"),
    # R3 joins on A3, which the head keeps, so no chain forms
    ("left-projected-line3", "Q(A1, A3, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"),
    ("left-projected-two-hop", "Q(A, C) :- R1(A, B), R2(B, C)"),
    ("left-projected-star3", "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)"),
    # the kept C sorts after the added A: the projected left tuple is reordered
    ("left-projected-reordered", "Q(A, C) :- R1(B, C), R2(A, B)"),
    # An atom right after an expansion, holding every attribute it adds and
    # no unbound one, folds into it as one more set to intersect.
    ("folded-triangle", "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"),
    ("folded-triangle-projected", "Q(A) :- R1(A, B), R2(B, C), R3(A, C)"),
    ("folded-4-cycle", "Q(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D), R4(A, D)"),
    ("folded-twice-pyramid",
     "Q(A, B, C) :- R1(A, B), R2(A, C), R3(B, C), R4(A, F), R5(B, F), R6(C, F)"),
    # C is needed only by the folded R3, so the step must not keep it
    ("folded-attribute-needed-only-there", "Q(A, B) :- R1(A, B), R2(B, C), R3(A, C)"),
    ("folded-on-empty-key", "Q(A, B) :- R1(A), R2(A, B), R3(B)"),
    # Key-dropping steps, each joining on exactly what the one before
    # added, run as one chain over per-part sets of reached values.
    ("chain-line3", "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"),
    ("chain-line4", "Q(A1, A5) :- R1(A1, A2), R2(A2, A3), R3(A3, A4), R4(A4, A5)"),
    ("chain-reordered-output", "Q(A, D) :- R1(C, D), R2(B, C), R3(A, B)"),
    ("chain-empty-part", "Q(A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"),
    ("chain-attribute-dropped-in-a-hop", "Q(A, D) :- R1(A, B), R2(B, C, X), R3(C, D)"),
    ("chain-two-attribute-part-and-keys",
     "Q(A, B, E) :- R1(A, B, C1, C2), R2(C1, C2, D1, D2), R3(D1, D2, E)"),
    # the chain ends at R3; R4 joins on A4, which the head keeps
    ("chain-then-kept-key", "Q(A1, A4, A5) :- R1(A1, A2), R2(A2, A3), R3(A3, A4), R4(A4, A5)"),
    # R4 folds into R3's step, so R2's key-dropping step stands alone
    ("chain-broken-by-fold", "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D), R4(A, D)"),
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
        results = evaluate(query, db)
        assert all(len(row) == len(query.head) for row in results)
        assert rows_to_tuples(query, results) == naive_evaluate(query, db)
        rows = full_join_results(query, db)
        assert len(rows) == len(set(rows))
        assert rows_to_tuples(full, rows) == naive_evaluate(full, db)


def planned_chain(query: Query) -> bool:
    return any(step.hops for step in engine._plan(query, query.head_set))


def test_chains_are_planned_only_where_steps_drop_keys_in_a_row():
    chained = {name for name, text in JOIN_PATHS if planned_chain(parse_query(text))}
    assert chained == {name for name, _ in JOIN_PATHS if name.startswith("chain-")} \
        - {"chain-broken-by-fold"}


def random_line_query(rng: random.Random) -> Query:
    """A path of two to six atoms, neighbours linked on one or two
    attributes, an atom sometimes holding one of its own, and the atoms in
    path order, reversed or (rarely) shuffled.  The head holds both ends
    and sometimes middle links or own attributes.  Names are drawn at
    random, so their sorted order is not the path order."""
    atoms = rng.randint(2, 6)
    names = iter(rng.sample([f"{a}{b}" for a in "ABCDEFGH" for b in "12345"], 40))
    links = [[next(names) for _ in range(rng.choice((1, 1, 1, 2)))] for _ in range(atoms + 1)]
    own = [[next(names)] if rng.random() < 0.25 else [] for _ in range(atoms)]
    bodies = [links[j] + links[j + 1] + own[j] for j in range(atoms)]
    head = links[0] + links[-1] + [a for attrs in links[1:-1] + own for a in attrs
                                   if rng.random() < 0.1]
    order = list(range(atoms))
    if rng.random() < 0.4:
        order.reverse()
    elif rng.random() < 0.1:
        rng.shuffle(order)
    rng.shuffle(head)
    body = ", ".join(f"R{j + 1}({', '.join(rng.sample(bodies[j], len(bodies[j])))})"
                     for j in order)
    return parse_query(f"Q({', '.join(head)}) :- {body}")


def test_matches_reference_on_random_line_queries():
    """Lines and paths, where key-dropping steps chain; sometimes one
    atom's values match nothing, so the result empties at that hop."""
    rng = random.Random(1981)
    chained = 0
    for _ in range(600):
        query = random_line_query(rng)
        chained += planned_chain(query)
        db = random_db(query, rng, max_rows=4, domain=rng.choice((1, 2, 3)))
        if rng.random() < 0.15:
            name = rng.choice(query.relations[1:]).name
            db = Database({**db.instances,
                           name: frozenset(tuple(v + "x" for v in row)
                                           for row in db.instances[name])})
        results = evaluate(query, db)
        assert all(len(row) == len(query.head) for row in results)
        assert rows_to_tuples(query, results) == naive_evaluate(query, db)
    assert chained > 200


def random_cyclic_query(rng: random.Random) -> Query:
    """A cycle of three to five binary atoms, in a random attribute and
    atom order, with sometimes a chord, a unary or a ternary atom, and a
    random head."""
    attrs = rng.sample(["A", "B", "C", "D", "E"], rng.randint(3, 5))
    bodies = [(attrs[i], attrs[(i + 1) % len(attrs)]) for i in range(len(attrs))]
    if len(attrs) > 3 and rng.random() < 0.4:
        bodies.append((attrs[0], attrs[2]))
    if rng.random() < 0.3:
        bodies.append((rng.choice(attrs),))
    if rng.random() < 0.3:
        bodies.append(tuple(rng.sample(attrs, 3)))
    rng.shuffle(bodies)
    body = ", ".join(f"R{i + 1}({', '.join(b)})" for i, b in enumerate(bodies))
    head = rng.sample(attrs, rng.randint(0, len(attrs)))
    return parse_query(f"Q({', '.join(head)}) :- {body}")


def test_matches_reference_on_random_cyclic_queries():
    """Mostly cycles, where atoms fold into the expansions before them;
    one query in four comes from the general generator."""
    rng = random.Random(1812)
    for round_no in range(1200):
        query = random_query(rng, max_relations=5) if round_no % 4 == 0 else \
            random_cyclic_query(rng)
        db = random_db(query, rng, max_rows=4, domain=2)
        results = evaluate(query, db)
        assert all(len(row) == len(query.head) for row in results)
        assert rows_to_tuples(query, results) == naive_evaluate(query, db)
        full = Query(query.attributes, query.relations)
        assert rows_to_tuples(full, full_join_results(query, db)) == naive_evaluate(full, db)


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
    witness = build_db(query, WORKED_SINGLE_WITNESS)
    sub_query = query  # same body, restricted data
    assert not is_witness(sub_query, db, witness)  # misses two results
    assert is_witness(query, db, db)


def test_is_witness_rejects_foreign_tuples():
    query, db = worked_example()
    alien = Database.of(query, {"R1": [("zz", "zz")]})
    with pytest.raises(NotASubDatabase) as err:
        is_witness(query, db, alien)
    assert str(err.value) == "candidate tuple (A='zz', B='zz') is not present in relation 'R1'"
    # stored tuples hold values in attribute-name order, not column order
    query = parse_query("Q(A) :- R1(B, A)")
    db = Database.build(query, {"R1": [{"A": "a1", "B": "b1"}]})
    with pytest.raises(NotASubDatabase) as err:
        is_witness(query, db, Database.of(query, {"R1": [("a1", "zz")]}))
    assert str(err.value) == "candidate tuple (A='a1', B='zz') is not present in relation 'R1'"


def test_is_witness_empty_on_empty_result():
    query = parse_query("Q(A) :- R(A, B), S(B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})  # S empty
    assert is_witness(query, db, Database.of(query, {}))


def test_is_witness_reads_a_missing_relation_as_empty():
    query = parse_query("Q(A) :- R(A, B), S(B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}], "S": [{"B": "2"}]})
    assert not is_witness(query, db, Database({"R": db.instances["R"]}))
    assert is_witness(query, db, Database({"R": db.instances["R"], "S": db.instances["S"]}))
    empty = Database.build(query, {"R": [{"A": "1", "B": "2"}]})  # S empty, so Q(D) is empty
    assert is_witness(query, empty, Database({}))


def test_is_witness_reads_a_relation_the_database_lacks_as_empty():
    query = parse_query("Q(A) :- R(A, B), S(B)")
    db = Database({"R": frozenset({("a", "b")})})  # no S, so Q(D) is empty
    assert is_witness(query, db, Database.of(query, {}))
    with pytest.raises(NotASubDatabase):
        is_witness(query, db, Database.of(query, {"S": [("b",)]}))


def incidence_cases():
    """Joins whose atoms are listed out of name order, then random ones."""
    rng = random.Random(417)
    query = parse_query("Q(A, D) :- T(C, D), S(B, C), R(A, B)")
    cases = [(query, random_db(query, rng, max_rows=6, domain=3)) for _ in range(5)]
    while len(cases) < 60:
        query = random_query(rng, max_relations=4, max_attributes=5)
        cases.append((query, random_db(query, rng, max_rows=5, domain=3)))
    return cases


def test_incidence_numbers_vertices_sorted_and_results_as_they_appear():
    """Vertices come in sorted order; the results are Q(D), numbered in
    the order the rows first reach them.  The sorted result order the
    oracle searches in is pinned through the oracle (test_oracle.py)."""
    nonempty = 0
    for query, db in incidence_cases():
        rows = full_join_results(query, db)
        vertices, results, columns, result_ids = incidence(query, rows)
        names = sorted(schema.name for schema in query.relations)
        assert list(columns) == names
        by_name = {schema.name: schema for schema in query.relations}
        assert vertices == [(name, row) for name in names
                            for row in sorted({project(query.attributes, fj,
                                                       by_name[name].attributes)
                                               for fj in rows})]
        assert len(results) == len(set(results)) and set(results) == evaluate(query, db)
        assert sorted(set(result_ids), key=result_ids.index) == list(range(len(results)))
        for j, fj in enumerate(rows):
            assert results[result_ids[j]] == project(query.attributes, fj, query.head)
            for name in names:
                assert vertices[columns[name][j]] == (
                    name, project(query.attributes, fj, by_name[name].attributes))
        nonempty += bool(rows)
    assert nonempty >= 30


def test_incidence_ignores_row_order():
    """Reversed or shuffled rows get the same vertices and the same set of
    results, and each row keeps its result and vertex ids."""
    rng = random.Random(418)
    for query, db in incidence_cases():
        rows = full_join_results(query, db)
        vertices, results, columns, result_ids = incidence(query, rows)
        incident = Counter(zip(map(results.__getitem__, result_ids), zip(*columns.values())))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for reordered in (rows[::-1], shuffled):
            other_vertices, other_results, other_columns, other_ids = incidence(query, reordered)
            assert (other_vertices, set(other_results)) == (vertices, set(results))
            assert Counter(zip(map(other_results.__getitem__, other_ids),
                               zip(*other_columns.values()))) == incident


FOREIGN_ROWS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from witness_lab.engine import is_witness
from witness_lab.errors import NotASubDatabase
from witness_lab.model import Database
from witness_lab.qparser import parse_query
query = parse_query("Q(A) :- R1(A, B)")
db = Database.build(query, {"R1": [{"A": "a1", "B": "b1"}]})
# two foreign rows, which these two hash seeds iterate in opposite orders
rows = [("a1", "b1"), ("q1", "r1"), ("p1", "s1")]
try:
    is_witness(query, db, Database.of(query, {"R1": rows}))
except NotASubDatabase as exc:
    print(exc)
"""


def test_is_witness_names_the_smallest_foreign_row_whatever_the_hash_seed():
    src = str(pathlib.Path(engine.__file__).parents[1])
    messages = set()
    for hash_seed in ("0", "12345"):
        proc = subprocess.run([sys.executable, "-c", FOREIGN_ROWS_CHILD, src],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout)
    assert messages == {"candidate tuple (A='p1', B='s1') is not present in relation 'R1'\n"}
