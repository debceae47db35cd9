"""Model types and the query text round trip."""
import pytest
from hypothesis import given, strategies as st

from witness_lab.errors import (
    DuplicateAttributeInAtom,
    QuerySyntaxError,
    SelfJoinError,
    UnboundHeadAttribute,
)
from witness_lab.model import Database, Query, RelationSchema, Row, Witness
from witness_lab.qparser import format_query, parse_query

from corpus import WORKED_TEXT

names = st.text(alphabet="ABCXYZ", min_size=1, max_size=3)
values = st.text(alphabet="abc123", min_size=1, max_size=4)


def test_row_order_independent():
    a = Row.make({"A": "1", "B": "2"})
    b = Row.make([("B", "2"), ("A", "1")])
    assert a == b
    assert a.items == (("A", "1"), ("B", "2"))


def test_row_access_and_project():
    row = Row.make({"A": "x", "B": "y", "C": "z"})
    assert row["B"] == "y"
    assert row.project(["C", "A"]).items == (("A", "x"), ("C", "z"))
    assert row.attributes == ("A", "B", "C")


def test_row_merge_right_wins():
    left = Row.make({"A": "1", "B": "2"})
    right = Row.make({"B": "9", "C": "3"})
    assert left.merge(right) == Row.make({"A": "1", "B": "9", "C": "3"})


@given(st.dictionaries(names, values, min_size=1, max_size=5))
def test_row_make_is_canonical(mapping):
    shuffled = sorted(mapping.items(), reverse=True)
    assert Row.make(mapping) == Row.make(shuffled)


def test_rows_sort_deterministically():
    rows = [Row.make({"A": "2"}), Row.make({"A": "1"}), Row.make({"A": "1", "B": "0"})]
    assert sorted(rows) == [rows[1], rows[2], rows[0]]


def test_schema_rejects_duplicate_attribute():
    with pytest.raises(DuplicateAttributeInAtom):
        RelationSchema("R", ("A", "A"))


def test_schema_rejects_bad_names():
    with pytest.raises(ValueError):
        RelationSchema("1R", ("A",))
    with pytest.raises(ValueError):
        RelationSchema("R", ("A-B",))


def test_query_rejects_self_join():
    r = RelationSchema("R", ("A",))
    with pytest.raises(SelfJoinError):
        Query(("A",), (r, r))


def test_query_rejects_unbound_head():
    with pytest.raises(UnboundHeadAttribute):
        Query(("Z",), (RelationSchema("R", ("A",)),))


def test_query_derived_views():
    q = parse_query(WORKED_TEXT)
    assert q.head == ("A", "C", "F")
    assert q.non_output == ("B", "H")
    assert q.head_of("R2") == frozenset({"C"})
    assert q.head_of("R4") == frozenset({"C"})
    assert not q.is_full and q.head
    sub = q.subquery(("C",), ["R2", "R4"])
    assert [r.name for r in sub.relations] == ["R2", "R4"]


def test_database_build_validates_schema():
    q = parse_query("Q(A) :- R(A, B)")
    with pytest.raises(ValueError):
        Database.build(q, {"R": [{"A": "1"}]})
    with pytest.raises(ValueError):
        Database.build(q, {"S": []})
    db = Database.build(q, {})
    assert db.instances["R"] == frozenset()
    assert db.size == 0


def test_witness_build_fills_missing_relations():
    q = parse_query("Q(A) :- R(A, B), S(B)")
    w = Witness.build(q, {"R": [Row.make({"A": "1", "B": "2"})]}, "test")
    assert w.tuples["S"] == frozenset()
    assert w.size == 1
    assert w.as_database().size == 1


def test_parse_canonical_example():
    q = parse_query(WORKED_TEXT)
    assert format_query(q) == WORKED_TEXT


def test_parse_tolerates_whitespace_and_period():
    q = parse_query("  Q ( A )\n:- R ( A , B ) . ")
    assert q.head == ("A",)
    assert q.relations[0].attributes == ("A", "B")


def test_parse_boolean_head():
    q = parse_query("Q() :- R(A, B)")
    assert q.head == ()


def test_parse_head_predicate_name_is_ignored():
    assert parse_query("Answer(A) :- R(A)") == parse_query("Q(A) :- R(A)")


@pytest.mark.parametrize("text", [
    "",
    "Q(A)",
    "Q(A) :- ",
    "Q(A) : - R(A)",
    "Q(A) :- R()",
    "Q(A) :- R(A) extra",
    "Q(A) :- R(A). trailing",
    "Q(A,) :- R(A)",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(QuerySyntaxError):
        parse_query(text)


def test_parse_maps_model_errors():
    with pytest.raises(SelfJoinError):
        parse_query("Q(A) :- R(A), R(A)")
    with pytest.raises(UnboundHeadAttribute):
        parse_query("Q(Z) :- R(A)")


@st.composite
def queries(draw):
    attrs = draw(st.lists(st.sampled_from(["A", "B", "C", "D", "E"]),
                          min_size=1, max_size=5, unique=True))
    n_rel = draw(st.integers(1, 4))
    relations = []
    for i in range(n_rel):
        width = draw(st.integers(1, len(attrs)))
        chosen = draw(st.permutations(attrs))[:width]
        relations.append(RelationSchema(f"R{i}", tuple(chosen)))
    bound = sorted({a for r in relations for a in r.attributes})
    head = tuple(draw(st.permutations(bound))[:draw(st.integers(0, len(bound)))])
    return Query(head, tuple(relations))


@given(queries())
def test_format_parse_round_trip(query):
    assert parse_query(format_query(query)) == query
