"""Components, acyclicity, domination, certificates, classification."""
import itertools
import random

import pytest

from witness_lab import structure
from witness_lab.errors import InternalInconsistency
from witness_lab.model import Query, RelationSchema
from witness_lab.qparser import format_query, parse_query
from witness_lab.structure import (
    Component,
    FreeSequence,
    Label,
    NestedClique,
    classification_to_json_dict,
    classify,
    existential_components,
    find_free_sequence,
    find_nested_clique,
    relation_components,
    rename,
)

from corpus import (
    CATALOG,
    WIDE_TEXT,
    WORKED_TEXT,
    random_head_domination_query,
    random_query,
    small_random_queries,
)
from reference import brute_force_free_sequence, two_loop_existential_components


def test_graphs_of_wide_query():
    wide = parse_query(WIDE_TEXT)
    assert relation_components(wide) == (
        ("R1", "R2", "R3", "R4", "R5"), ("R6", "R7"), ("R8",))
    assert tuple(c.relations for c in existential_components(wide)) == (
        ("R1", "R2", "R3"), ("R4",), ("R6", "R7"), ("R8",))


def pairwise_components(sets):
    """Reference: breadth-first search over the graph with an edge between
    every two names whose sets intersect, started from each unseen name
    in sorted order."""
    seen = set()
    components = []
    for start in sorted(sets):
        if start in seen:
            continue
        reached = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in sets:
                if w not in reached and sets[v] & sets[w]:
                    reached.add(w)
                    frontier.append(w)
        seen |= reached
        components.append(tuple(sorted(reached)))
    return tuple(components)


def test_components_match_pairwise_edge_search():
    rng = random.Random(4411)
    split = 0
    for _ in range(3000):
        query = random_query(rng, max_relations=8, max_attributes=9)
        atoms = {r.name: r.attribute_set for r in query.relations}
        private = {name: attrs - query.head_set for name, attrs in atoms.items()
                   if attrs - query.head_set}
        want = pairwise_components(atoms)
        assert relation_components(query) == want, format_query(query)
        assert (tuple(c.relations for c in existential_components(query))
                == pairwise_components(private)), format_query(query)
        split += len(want) > 1
    # connected and disconnected queries both occur often
    assert 300 <= split <= 2700, split


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


def test_dominant_search_matches_two_loop_reference():
    """The one ordered search over members, then every other relation by
    name, finds the component and dominant relation the earlier two loops
    found, including the dominants outside their component."""
    rng = random.Random(3030)
    queries = (small_random_queries()
               + [random_head_domination_query(rng) for _ in range(500)]
               + [random_query(rng) for _ in range(500)])
    searched = outside = 0  # components no member dominates; those some other relation does
    for query in queries:
        want = two_loop_existential_components(query)
        assert existential_components(query) == want, format_query(query)
        for c in want:
            if c.dominant not in c.relations:
                searched += 1
                outside += c.dominant is not None
    assert searched >= 150 and outside >= 10, (searched, outside)


def test_acyclicity():
    assert classify(parse_query(WORKED_TEXT)).acyclic
    assert not classify(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)")).acyclic


def test_free_connex():
    assert classify(parse_query("Q(A) :- R1(A, B), R2(B)")).free_connex
    assert not classify(parse_query(WORKED_TEXT)).free_connex
    assert classify(parse_query("Q() :- R(A, B)")).free_connex  # boolean, acyclic
    assert not classify(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)")).free_connex


def test_classify_runs_ear_removal_once_more_only_when_acyclic(monkeypatch):
    """One ear removal gives the join tree; only an acyclic query needs a
    second, with the head as an extra atom, for free-connexity."""
    calls = []
    original = structure._ear_removal

    def counting(atoms):
        calls.append(atoms)
        return original(atoms)

    monkeypatch.setattr(structure, "_ear_removal", counting)
    for text, want in ((WORKED_TEXT, 2), ("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)", 1)):
        classify.cache_clear()
        calls.clear()
        classify(parse_query(text))
        assert len(calls) == want, text


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
    """The (ear, parent) pairs `classify` holds are None exactly on the
    queries the reference finds cyclic, and its free-connex flag agrees
    with the reference on the atoms plus the head.  Each pair removes a
    live ear whose attributes shared with the atoms still left lie inside
    its live parent, until one atom is left."""
    acyclic_only = free_connex = cyclic = disconnected = 0
    for query in small_random_queries():
        atoms = [r.attribute_set for r in query.relations]
        c = classify(query)
        tree = c.join_tree
        want_acyclic = has_running_intersection_tree(atoms)
        want_free_connex = want_acyclic and has_running_intersection_tree(atoms + [query.head_set])
        assert (tree is not None) == want_acyclic == c.acyclic, format_query(query)
        assert c.free_connex == want_free_connex, format_query(query)
        acyclic_only += want_acyclic and not want_free_connex
        free_connex += want_free_connex
        cyclic += not want_acyclic
        if tree is None:
            continue
        alive = set(range(len(atoms)))
        for ear, parent in tree:
            assert ear in alive and parent in alive and ear != parent, format_query(query)
            alive.remove(ear)
            shared = atoms[ear] & frozenset().union(*map(atoms.__getitem__, alive))
            assert shared <= atoms[parent], format_query(query)
        assert len(alive) == 1, format_query(query)
        disconnected += len(relation_components(query)) > 1
    # every outcome occurs often enough for the comparison to mean something
    assert min(acyclic_only, free_connex, cyclic) >= 50, (acyclic_only, free_connex, cyclic)
    assert acyclic_only + free_connex >= 2000 and disconnected >= 300, disconnected


def test_head_cluster_examples():
    assert classify(parse_query("Q(A) :- R1(A, B), R2(A, B)")).head_cluster
    assert classify(parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)")).head_cluster
    assert not classify(parse_query("Q(A) :- R1(A, B), R2(B)")).head_cluster
    assert not classify(parse_query(WORKED_TEXT)).head_cluster


def test_classify_computes_the_components_once(monkeypatch):
    calls = []
    original = structure.existential_components

    def counting(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr(structure, "existential_components", counting)
    for text in (WORKED_TEXT, WIDE_TEXT, "Q(A) :- R1(A, B), R2(A, B)"):
        calls.clear()
        classify(parse_query(text))
        assert len(calls) == 1, text


def test_head_cluster_cross_check_still_runs_in_classify(monkeypatch):
    query = parse_query("Q(A) :- R1(A, B), R2(A, B)")  # head-cluster
    real = existential_components(query)
    # a component whose members' output attributes differ from its own
    skewed = tuple(Component(c.relations, ("A", "Z"), c.dominant) for c in real)
    monkeypatch.setattr(structure, "existential_components", lambda q: skewed)
    with pytest.raises(InternalInconsistency, match="head-cluster checks disagree"):
        classify(query)


def test_head_domination_examples():
    assert classify(parse_query("Q(A) :- R1(A, B), R2(B)")).head_domination
    assert not classify(parse_query(WORKED_TEXT)).head_domination
    assert classify(parse_query("Q() :- R(A, B)")).head_domination  # boolean


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


def catalog_wide_and_small_queries():
    return ([parse_query(text) for _, text, _ in CATALOG] + [parse_query(WIDE_TEXT)]
            + small_random_queries())


def test_free_sequence_matches_every_simple_path():
    rng = random.Random(36)
    queries = catalog_wide_and_small_queries()
    queries += [random_query(rng, max_relations=8) for _ in range(2000)]
    found = 0
    for q in queries:
        expected = brute_force_free_sequence(q)
        assert find_free_sequence(q) == (expected and FreeSequence(expected)), format_query(q)
        found += expected is not None
    assert found > 250  # 296 of the queries have one


def test_classification_ignores_atom_attribute_and_head_order():
    """Shuffling the atoms, each atom's attributes and the head leaves the
    classification JSON unchanged."""
    rng = random.Random(7)
    for q in catalog_wide_and_small_queries():
        expected = classification_to_json_dict(classify(q))
        for _ in range(3):
            relations = [RelationSchema(r.name, tuple(rng.sample(r.attributes, len(r.attributes))))
                         for r in q.relations]
            rng.shuffle(relations)
            shuffled = Query(tuple(rng.sample(q.head, len(q.head))), tuple(relations))
            assert classification_to_json_dict(classify(shuffled)) == expected, format_query(q)


def test_rename_collapses_attribute_groups():
    renamed = rename(parse_query(WORKED_TEXT))
    assert format_query(renamed) == "Q(A, C, F) :- R1(A, F1), R2(C, F1), R3(C, F), R4(C, F2)"
    wide = rename(parse_query(WIDE_TEXT))
    assert format_query(wide) == ("Q(A1, A2, A3, A4, A5) :- R1(A1, F1), R2(F1), "
                                  "R3(A2, F1), R4(A2, A3, F2), R5(A1, A2), "
                                  "R6(A4, F3), R7(A5, F3), R8(F4)")
    # collapsing leaves no atom holding two non-output attributes
    assert all(len(r.attribute_set - wide.head_set) <= 1 for r in wide.relations)


def test_nested_clique_of_pyramid():
    pyramid = parse_query(
        "Q(A, B, C) :- R1(A, B), R2(A, C), R3(B, C), R4(A, F), R5(B, F), R6(C, F)")
    assert find_free_sequence(pyramid) is None
    clique = find_nested_clique(rename(pyramid))
    assert clique == NestedClique(("A", "B", "C", "F1"))
    assert classify(pyramid).certificate == clique


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
        dominated = classify(q).head_domination
        seq = find_free_sequence(q)
        clique = find_nested_clique(rename(q))
        assert dominated == (seq is None and clique is None)


def test_classification_json_shape():
    doc = classification_to_json_dict(classify(parse_query(WORKED_TEXT)))
    assert doc["spec"] == "1"
    assert doc["acyclic"] is True and "join_tree" not in doc
    assert doc["label"] == "LogHard"
    assert doc["certificate"] == {"type": "free_sequence", "attributes": ["A", "B", "C"]}
    assert {c["dominant"] for c in doc["components"]} == {None, "R4"}
    boolean = classification_to_json_dict(classify(parse_query("Q() :- R8(B6, B7)")))
    assert boolean["label"] == "ExactPTime"
    assert boolean["certificate"] is None
