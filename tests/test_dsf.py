"""Path queries as layered directed Steiner forest instances."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witness_lab.dsf import DsfEdge, DsfInstance, dsf_to_json_text, line_to_dsf
from witness_lab.engine import evaluate, is_witness
from witness_lab.errors import NotALineQuery
from witness_lab.generators import LabelCoverInstance, gen_line3_db, gen_random_db
from witness_lab.model import Database
from witness_lab.qparser import parse_query
from witness_lab.solvers import solve_baseline_union

from reference import dsf_per_pair_paths, edges_connect_demands, pull_back, witness_to_edge_ids

LINE3 = "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"


def line3_db():
    query = parse_query(LINE3)
    return query, Database.build(query, {
        "R1": [{"A1": "s1", "A2": "m1"}, {"A1": "s2", "A2": "m1"},
               {"A1": "s2", "A2": "m2"}],
        "R2": [{"A2": "m1", "A3": "p1"}, {"A2": "m2", "A3": "p2"}],
        "R3": [{"A3": "p1", "A4": "t1"}, {"A3": "p2", "A4": "t2"}],
    })


@pytest.mark.parametrize("text,reason", [
    ("Q(A) :- R1(A, B, C)", "binary"),
    ("Q(A1, A3) :- R1(A1, B), R2(B, A3), R3(B, A3)", "two atoms"),
    ("Q(A, B) :- R1(A, B), R2(A, B)", "path"),
    ("Q(A1, A2) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)", "endpoints"),
    ("Q(A1, A4) :- R1(A1, A2), R2(A3, A4)", "path"),
])
def test_rejects_non_line_queries(text, reason):
    with pytest.raises(NotALineQuery) as err:
        line_to_dsf(parse_query(text), Database.build(parse_query(text), {}))
    assert reason.split()[0] in str(err.value)


def test_layered_graph_construction():
    query, db = line3_db()
    inst = line_to_dsf(query, db)
    assert inst.chain == ("A1", "A2", "A3", "A4")
    assert inst.relation_order == ("R1", "R2", "R3")
    assert len(inst.edges) == db.size
    assert "0:s1" in inst.nodes and "3:t2" in inst.nodes
    assert ("0:s1", "3:t1") in inst.demands
    assert len(inst.demands) == 3  # (s1,t1), (s2,t1), (s2,t2)
    assert all(e.weight == 1 for e in inst.edges)


def test_chain_direction_follows_head_order_invariance():
    """The chain starts at the alphabetically first endpoint, whatever
    the head order says."""
    query = parse_query("Q(A4, A1) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)")
    _, db = line3_db()
    inst = line_to_dsf(query, Database(db.instances))
    assert inst.chain == ("A1", "A2", "A3", "A4")


def test_per_pair_paths_route_all_demands():
    query, db = line3_db()
    inst = line_to_dsf(query, db)
    chosen = dsf_per_pair_paths(inst)
    assert edges_connect_demands(inst, chosen)
    witness = pull_back(query, inst, chosen)
    assert is_witness(query, db, witness)
    assert witness.size == len(chosen)


def test_per_pair_paths_pick_smallest_targets():
    query, db = line3_db()
    inst = line_to_dsf(query, db)
    chosen = dsf_per_pair_paths(inst)
    # s2 reaches t1 via m1/p1, the smallest reachable targets; the m2/p2
    # detour only enters for the (s2, t2) demand
    rows = {(e.relation, e.row) for e in inst.edges if e.id in chosen}
    assert ("R1", ("s2", "m1")) in rows  # over (A1, A2)
    assert ("R1", ("s2", "m2")) in rows


def test_unreachable_demand_raises():
    inst = DsfInstance(
        chain=("A1", "A2"), relation_order=("R1",),
        nodes=("0:a", "1:b"), edges=(),
        demands=(("0:a", "1:b"),))
    with pytest.raises(ValueError, match="no connecting path"):
        dsf_per_pair_paths(inst)


def test_witness_round_trip_preserves_size():
    query, db = line3_db()
    inst = line_to_dsf(query, db)
    report = solve_baseline_union(query, db)
    ids = witness_to_edge_ids(inst, report.witness)
    assert len(ids) == report.witness_size  # binary atoms: tuple <-> edge
    assert edges_connect_demands(inst, ids)
    back = pull_back(query, inst, ids)
    assert is_witness(query, db, back)
    assert back.size == report.witness_size


def test_generated_line3_round_trip():
    inst_lc = LabelCoverInstance(1, ("x", "y"), {(1, 1): frozenset({("x", "x")})})
    gi = gen_line3_db(inst_lc, t=2)
    dsf = line_to_dsf(gi.query, gi.database)
    chosen = dsf_per_pair_paths(dsf)
    witness = pull_back(gi.query, dsf, chosen)
    assert is_witness(gi.query, gi.database, witness)
    assert witness.size <= gi.predicted_witness_size


def test_edges_connect_demands_spots_gaps():
    query, db = line3_db()
    inst = line_to_dsf(query, db)
    chosen = dsf_per_pair_paths(inst)
    for dropped in sorted(chosen):
        assert not edges_connect_demands(inst, chosen - {dropped})


def test_json_document_shape():
    query, db = line3_db()
    doc = json.loads(dsf_to_json_text(line_to_dsf(query, db)))
    assert doc["spec"] == "1"
    assert doc["chain"] == ["A1", "A2", "A3", "A4"]
    assert len(doc["edges"]) == db.size
    assert doc["edges"][0]["weight"] == 1
    assert {"from", "to"} <= set(doc["demands"][0])


def reference_document(instance: DsfInstance) -> dict:
    """The export document as a tree of dicts and lists, for `json.dumps`."""
    attributes = {n: sorted(instance.chain[h:h + 2]) for h, n in enumerate(instance.relation_order)}
    return {
        "spec": "1",
        "chain": list(instance.chain),
        "relation_order": list(instance.relation_order),
        "nodes": list(instance.nodes),
        "edges": [{
            "id": e.id,
            "from": e.source,
            "to": e.target,
            "weight": e.weight,
            "relation": e.relation,
            "row": dict(zip(attributes[e.relation], e.row)),
        } for e in instance.edges],
        "demands": [{"from": s, "to": t} for s, t in instance.demands],
    }


def assert_text_matches_reference(instance: DsfInstance) -> None:
    expected = json.dumps(reference_document(instance), indent=2, sort_keys=True)
    assert dsf_to_json_text(instance) == expected


# Values JSON must escape (quote, backslash, control characters, a lone
# surrogate), non-ASCII text, and a template's own `%s`.
VALUES = ["a", "b", "", '"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600", "\ud800", "%s"]


@st.composite
def line_cases(draw):
    """A line query of one to four hops from A to Z, its middle attributes
    in a random name order, each atom's columns in either direction and
    the atoms in any order, and a database over rows drawn from a few
    awkward values."""
    hops = draw(st.integers(1, 4))
    chain = ("A", *draw(st.permutations("BCDE"))[:hops - 1], "Z")
    atoms = []
    for hop in range(hops):
        pair = chain[hop:hop + 2]
        if draw(st.booleans()):
            pair = pair[::-1]
        atoms.append(f"R{hop + 1}({pair[0]}, {pair[1]})")
    head = draw(st.sampled_from(["A, Z", "Z, A"]))
    query = parse_query(f"Q({head}) :- {', '.join(draw(st.permutations(atoms)))}")
    values = st.sampled_from(draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4,
                                           unique=True)))
    db = Database({schema.name: frozenset(draw(st.lists(st.tuples(values, values), max_size=6)))
                   for schema in query.relations})
    return query, db


def line_instances():
    """The export instances of `line_cases`."""
    return line_cases().map(lambda case: line_to_dsf(*case))


@settings(max_examples=200, deadline=None)
@given(line_instances())
def test_json_text_matches_json_dumps_of_reference(instance):
    assert_text_matches_reference(instance)


@pytest.mark.parametrize("text,rows", [
    (LINE3, {}),
    ("Q(A1, A4) :- R1(A1, A2), R2(A3, A2), R3(A3, A4)", {
        "R1": [{"A1": "s\"1", "A2": "m\\1"}, {"A1": "s\x002", "A2": "m\u00e91"}],
        "R2": [{"A2": "m\\1", "A3": "p\n1"}, {"A2": "m\u00e91", "A3": "p\u2028"}],
        "R3": [{"A3": "p\n1", "A4": "t\U0001f600"}, {"A3": "p\u2028", "A4": "t%d"}],
    }),
], ids=["empty", "reversed-atom-and-escapes"])
def test_json_text_on_edge_cases(text, rows):
    query = parse_query(text)
    instance = line_to_dsf(query, Database.build(query, rows))
    assert len(instance.demands) == (2 if rows else 0)
    assert_text_matches_reference(instance)


def test_json_text_of_an_instance_with_no_layers():
    assert_text_matches_reference(DsfInstance((), (), (), (), ()))


def assert_matches_plain_construction(query, db) -> None:
    """Demands are Q(D) sorted and labelled, and edges are plain
    `DsfEdge`s, however `line_to_dsf` builds them."""
    instance = line_to_dsf(query, db)
    last = len(instance.chain) - 1
    # Q(D) is over the sorted head, and the chain starts at its first attribute
    assert instance.chain[0] < instance.chain[last]
    assert list(instance.demands) == [(f"0:{a}", f"{last}:{b}")
                                      for a, b in sorted(evaluate(query, db))]
    for e in instance.edges:
        assert type(e) is DsfEdge
        assert e == DsfEdge(*e)


@settings(max_examples=200, deadline=None)
@given(line_cases())
def test_demands_and_edges_match_plain_construction(case):
    assert_matches_plain_construction(*case)


def test_demands_and_edges_match_plain_construction_at_benchmark_size():
    query = parse_query(LINE3)
    db = gen_random_db(query, 500, 45, 1).database
    assert len(line_to_dsf(query, db).demands) > 1000
    assert_matches_plain_construction(query, db)
