"""`storage.witness_to_json_text` writes the bytes
`json.dumps(indent=2, sort_keys=True)` gives the witness as a dict tree,
one level into a solve report."""
import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from witness_lab import cli
from witness_lab.model import Database, Query, RelationSchema
from witness_lab.qparser import parse_query
from witness_lab.storage import witness_to_json_text, write_database

from corpus import CATALOG, WORKED_TEXT, random_db, random_query, worked_example


def witness_to_json_dict(query: Query, witness: Database) -> dict:
    """The reference: per relation, its columns and its rows in schema
    column order, sorted, as plain lists."""
    out = {}
    for schema in query.relations:
        order = [schema.sorted_attributes.index(a) for a in schema.attributes]
        rows = sorted(tuple(row[i] for i in order)
                      for row in witness.instances.get(schema.name, frozenset()))
        out[schema.name] = {"columns": list(schema.attributes), "rows": [list(r) for r in rows]}
    return out


def assert_text_matches_reference(query: Query, witness: Database) -> None:
    expected = json.dumps({"witness": witness_to_json_dict(query, witness)}, indent=2,
                          sort_keys=True)
    assert '{\n  "witness": ' + witness_to_json_text(query, witness) + "\n}" == expected


# Values JSON must escape, non-ASCII text, and a template's own `%s`.
VALUES = ["a", "b", "", '"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600", "\ud800", "%s"]


@st.composite
def witnesses(draw):
    """One to four relations of one to three columns, named and ordered
    at random, over rows drawn from a few awkward values; some empty."""
    names = draw(st.permutations(["R1", "R2", "R10", "S", "a"]))[:draw(st.integers(1, 4))]
    relations = tuple(RelationSchema(name, tuple(draw(st.permutations("ABCDE"))[:draw(
        st.integers(1, 3))])) for name in names)
    query = Query((), relations)
    values = st.sampled_from(VALUES)
    parts = {schema.name: draw(st.lists(st.tuples(*[values] * len(schema.attributes)),
                                        max_size=5)) for schema in relations}
    return query, Database.of(query, parts)


@settings(max_examples=200, deadline=None)
@given(witnesses())
def test_text_matches_json_dumps_of_reference(case):
    assert_text_matches_reference(*case)


def test_text_matches_reference_on_catalog_and_random_queries():
    rng = random.Random(77)
    queries = [parse_query(text) for _, text, _ in CATALOG]
    queries += [random_query(rng) for _ in range(100)]
    for query in queries:
        db = random_db(query, rng)
        assert_text_matches_reference(query, db)
        assert_text_matches_reference(query, Database.of(query, {}))


def test_solve_report_is_json_dumps_of_itself(tmp_path):
    """The witness text closes the report, which keeps the bytes of
    `json.dumps(indent=2, sort_keys=True)` on the parsed document."""
    query, db = worked_example()
    write_database(query, db, tmp_path)
    (tmp_path / "query.txt").write_text(WORKED_TEXT + "\n")
    for extra in ([], ["--out", str(tmp_path / "out")]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", str(tmp_path / "query.txt"), str(tmp_path), *extra]) == 0
        text = out.getvalue()
        document = json.loads(text)
        assert max(document) == "witness" and document["witness"]["R1"]["rows"]
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
