"""Graphs, acyclicity, domination, certificates, classification."""
import itertools
import random

import pytest

from witness_lab.qparser import format_query, parse_query
from witness_lab.structure import (
    FreeSequence,
    Label,
    NestedClique,
    build_graphs,
    classification_to_json_dict,
    classify,
    existential_components,
    find_free_sequence,
    find_nested_clique,
    has_head_cluster,
    has_head_domination,
    is_acyclic,
    is_free_connex,
    rename,
)

from corpus import CATALOG, WORKED_TEXT, random_query

# Five output attributes, four existential components, one of them
# undominated: exercises every branch of the component analysis.
WIDE_TEXT = ("Q(A1, A2, A3, A4, A5) :- R1(A1, B1), R2(B1, B2), R3(A2, B2, B3), "
             "R4(A2, A3, B4), R5(A1, A2), R6(A4, B5), R7(B5, A5), R8(B6, B7)")


def test_graphs_of_wide_query():
    graphs = build_graphs(parse_query(WIDE_TEXT))
    assert graphs.relation_graph.components() == (
        ("R1", "R2", "R3", "R4", "R5"), ("R6", "R7"), ("R8",))
    assert graphs.existential_graph.components() == (
        ("R1", "R2", "R3"), ("R4",), ("R6", "R7"), ("R8",))
    assert graphs.nonoutput_graph.components() == (
        ("B1", "B2", "B3"), ("B4",), ("B5",), ("B6", "B7"))


def test_components_of_wide_query():
    comps = {c.relations: c for c in existential_components(parse_query(WIDE_TEXT))}
    chain = comps[("R1", "R2", "R3")]
    assert chain.output_attributes == ("A1", "A2")
    assert chain.dominant == "R5"  # no member holds both, an outside atom does
    assert comps[("R4",)].dominant == "R4"
    assert comps[("R6", "R7")].dominant is None
    assert comps[("R8",)].output_attributes == ()
    assert comps[("R8",)].dominant == "R8"


def test_wide_query_classification():
    c = classify(parse_query(WIDE_TEXT))
    assert c.label is Label.LOG_HARD
    assert not c.head_domination
    assert c.certificate == FreeSequence(("A4", "B5", "A5"))


def test_worked_example_components():
    comps = existential_components(parse_query(WORKED_TEXT))
    assert [c.relations for c in comps] == [("R1", "R2"), ("R4",)]
    assert comps[0].output_attributes == ("A", "C")
    assert comps[0].dominant is None
    assert comps[1].dominant == "R4"


def test_acyclicity():
    assert is_acyclic(parse_query(WORKED_TEXT))
    assert not is_acyclic(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"))


def test_free_connex():
    assert is_free_connex(parse_query("Q(A) :- R1(A, B), R2(B)"))
    assert not is_free_connex(parse_query(WORKED_TEXT))
    assert is_free_connex(parse_query("Q() :- R(A, B)"))  # boolean, acyclic
    assert not is_free_connex(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"))


def prufer_tree(sequence, n):
    """Edges of the labelled tree on 0..n-1 that a Pruefer sequence encodes."""
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return edges


def has_running_intersection_tree(atoms):
    """Reference: some spanning tree over the atoms has the running
    intersection property, i.e. the atoms holding any one attribute span a
    connected subtree (as many tree edges among them as they number, less
    one).  Tries every labelled tree, one per Pruefer sequence."""
    n = len(atoms)
    if n <= 2:
        return True
    attributes = set().union(*atoms)
    for sequence in itertools.product(range(n), repeat=n - 2):
        edges = prufer_tree(sequence, n)
        if all(sum(a in atoms[u] and a in atoms[v] for u, v in edges)
               == sum(a in atoms[u] for u in range(n)) - 1
               for a in attributes):
            return True
    return False


def test_ear_removal_matches_spanning_tree_reference():
    rng = random.Random(6021)
    acyclic_only = free_connex = cyclic = 0
    for _ in range(300):
        query = random_query(rng, max_relations=5)
        atoms = [r.attribute_set for r in query.relations]
        want_acyclic = has_running_intersection_tree(atoms)
        want_free_connex = want_acyclic and has_running_intersection_tree(atoms + [query.head_set])
        assert is_acyclic(query) == want_acyclic, format_query(query)
        assert is_free_connex(query) == want_free_connex, format_query(query)
        acyclic_only += want_acyclic and not want_free_connex
        free_connex += want_free_connex
        cyclic += not want_acyclic
    # every outcome occurs often enough for the comparison to mean something
    assert min(acyclic_only, free_connex, cyclic) >= 10, (acyclic_only, free_connex, cyclic)


def test_head_cluster_examples():
    assert has_head_cluster(parse_query("Q(A) :- R1(A, B), R2(A, B)"))
    assert has_head_cluster(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"))
    assert not has_head_cluster(parse_query("Q(A) :- R1(A, B), R2(B)"))
    assert not has_head_cluster(parse_query(WORKED_TEXT))


def test_head_domination_examples():
    assert has_head_domination(parse_query("Q(A) :- R1(A, B), R2(B)"))
    assert not has_head_domination(parse_query(WORKED_TEXT))
    assert has_head_domination(parse_query("Q() :- R(A, B)"))  # boolean


@pytest.mark.parametrize("name,text,label", CATALOG, ids=[c[0] for c in CATALOG])
def test_catalog_labels(name, text, label):
    assert classify(parse_query(text)).label.value == label


def test_free_sequence_values():
    assert find_free_sequence(parse_query(WORKED_TEXT)) == FreeSequence(("A", "B", "C"))
    line3 = "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"
    assert find_free_sequence(parse_query(line3)) == FreeSequence(("A1", "A2", "A3", "A4"))
    star3 = "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)"
    assert find_free_sequence(parse_query(star3)) == FreeSequence(("A1", "B", "A2"))
    assert find_free_sequence(parse_query("Q(A) :- R1(A, B), R2(B)")) is None


def test_rename_collapses_attribute_groups():
    renamed = rename(parse_query(WORKED_TEXT))
    assert format_query(renamed) == "Q(A, C, F) :- R1(A, F1), R2(C, F1), R3(C, F), R4(C, F2)"
    wide = rename(parse_query(WIDE_TEXT))
    assert format_query(wide) == ("Q(A1, A2, A3, A4, A5) :- R1(A1, F1), R2(F1), "
                                  "R3(A2, F1), R4(A2, A3, F2), R5(A1, A2), "
                                  "R6(A4, F3), R7(A5, F3), R8(F4)")
    # collapsing leaves no two non-output attributes in a common atom
    assert build_graphs(wide).nonoutput_graph.edges == frozenset()


def test_nested_clique_of_pyramid():
    pyramid = parse_query(
        "Q(A, B, C) :- R1(A, B), R2(A, C), R3(B, C), R4(A, F), R5(B, F), R6(C, F)")
    assert find_free_sequence(pyramid) is None
    clique = find_nested_clique(rename(pyramid))
    assert clique == NestedClique(("A", "B", "C", "F1"), in_renamed_query=False)
    got = classify(pyramid).certificate
    assert got == NestedClique(("A", "B", "C", "F1"), in_renamed_query=True)


def test_labels_partition_by_structure_flags():
    rng = random.Random(2024)
    for _ in range(120):
        q = random_query(rng)
        c = classify(q)
        if c.head_cluster:
            assert c.label is Label.EXACT_PTIME
        elif c.head_domination:
            assert c.label is Label.CONST_APPROX
        else:
            assert c.label is Label.LOG_HARD
            assert c.certificate is not None


def test_certificates_exist_exactly_without_domination():
    """Either certificate search succeeding must coincide with missing
    domination, on every query."""
    rng = random.Random(99)
    for _ in range(120):
        q = random_query(rng)
        dominated = has_head_domination(q)
        seq = find_free_sequence(q)
        clique = find_nested_clique(rename(q))
        assert dominated == (seq is None and clique is None)


def test_classification_json_shape():
    doc = classification_to_json_dict(classify(parse_query(WORKED_TEXT)))
    assert doc["spec"] == "1"
    assert doc["label"] == "LogHard"
    assert doc["certificate"] == {"type": "free_sequence", "attributes": ["A", "B", "C"]}
    assert {c["dominant"] for c in doc["components"]} == {None, "R4"}
    boolean = classification_to_json_dict(classify(parse_query("Q() :- R8(B6, B7)")))
    assert boolean["label"] == "ExactPTime"
    assert boolean["certificate"] is None
