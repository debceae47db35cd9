"""Witness construction: the four solvers."""
import heapq
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from witness_lab import densest, solvers, structure
from witness_lab.dsf import line_to_dsf
from witness_lab.engine import evaluate, full_join_results, full_reduction, is_witness
from witness_lab.errors import InstanceTooLarge, InternalInconsistency, PreconditionViolated
from witness_lab.generators import (
    SetCoverInstance,
    gen_matrix_db,
    gen_pyramid_db,
    gen_random_db,
)
from witness_lab.model import Database, Query, RelationSchema, projection
from witness_lab.oracle import brute_force_swp
from witness_lab.qparser import format_query, parse_query
from witness_lab.solvers import (
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
)
from witness_lab.structure import classify, existential_components, pieces, relation_components

from corpus import (
    WORKED_SINGLE_RESULT,
    WORKED_SINGLE_WITNESS,
    WORKED_TEXT,
    as_columns,
    build_db,
    live_group,
    project,
    worked_example,
    random_db,
    random_head_cluster_query,
    random_head_domination_query,
    random_query,
    random_single_nonoutput_query,
    small_random_queries,
)
from reference import max_density_set, single_result_witness


def as_tables(query, witness):
    return {name: {as_columns(query.schema(name), row) for row in rows}
            for name, rows in witness.instances.items()}


def test_single_result_witness_matches_worked_example():
    query, db = worked_example()
    witness = single_result_witness(query, db, WORKED_SINGLE_RESULT)
    assert as_tables(query, witness) == WORKED_SINGLE_WITNESS
    assert witness.size == 4


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
        assert report.witness_size == brute_force_swp(query, db).witness_size
        checked += 1
    assert checked >= 15


def test_approx_requires_head_domination():
    query, db = worked_example()
    with pytest.raises(PreconditionViolated):
        solve_approx_head_domination(query, db)


def test_classify_then_exact_and_approx_compute_the_components_once(monkeypatch):
    calls = []
    original = structure.existential_components

    def counting(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr(structure, "existential_components", counting)
    query = parse_query("Q(A, C) :- R1(A, B), R2(A, B), R3(C, D)")
    db = gen_random_db(query, 12, 4, seed=3).database
    classify(query)
    exact = solve_exact_head_cluster(query, db)
    approx = solve_approx_head_domination(query, db)
    assert len(calls) == 1
    assert exact.witness == approx.witness


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
        optimum = brute_force_swp(query, db).witness_size
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
    assert report.witness_size == brute_force_swp(query, db).witness_size == 5
    assert report.claimed_ratio_bound == 1.0 + math.log(3)


def test_greedy_reports_a_falling_price_exactly(monkeypatch):
    """Covering more results never lowers a value's price; the heap
    compares integer keys, and a price that fell anyway is reported as
    the two exact fractions."""
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    db = Database.build(query, {
        "R1": [{"A": "a1", "B": "b1"}, {"A": "a2", "B": "b1"},
               {"A": "a2", "B": "b2"}, {"A": "a3", "B": "b2"}],
        "R2": [{"B": "b1"}, {"B": "b2"}],
    })
    calls = 0

    def cheaper_later(live):
        nonlocal calls
        calls += 1
        candidate = densest.min_price_candidate(live)
        if calls > 2 and candidate is not None:  # drop a bought tuple once both are priced
            return densest.PricedCandidate(candidate.vertices[1:], candidate.new_results)
        return candidate

    monkeypatch.setattr(solvers, "min_price_candidate", cheaper_later)
    with pytest.raises(InternalInconsistency) as raised:
        solve_greedy_single_nonoutput(query, db)
    assert str(raised.value) == "price at 'b2' fell from 3/2 to 1"


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
        optimum = brute_force_swp(query, db).witness_size
        assert report.witness_size <= report.claimed_ratio_bound * max(1, optimum)
        checked += 1
    assert checked >= 12


def reference_demand_groups(query, rows):
    """Reference grouping, keyed by frozensets: full join results grouped
    by the value of the single non-output attribute b, per value (result,
    demand key) pairs in row order.  A result reachable at b demands one
    tuple per relation holding b, and its key is the frozenset of those
    (relation name, tuple) pairs."""
    b_attr, = query.non_output
    at = query.attributes.index(b_attr)
    to_head = projection(query.attributes, sorted(query.head))
    b_rels = [(rel.name, projection(query.attributes, rel.sorted_attributes))
              for rel in query.relations if b_attr in rel.attribute_set]
    groups = {}
    for fj in rows:
        key = frozenset([(name, to_rel(fj)) for name, to_rel in b_rels])
        groups.setdefault(fj[at], []).append((to_head(fj), key))
    return groups


def reference_min_price_candidate(group, covered):
    """Reference pricing of one `reference_demand_groups` entry, with the
    results in the frozenset `covered` left out: the per-relation subsets,
    new results and price of the densest demand set, identical demands
    counting with multiplicity; None when nothing uncovered is reachable."""
    edge_weight, edge_results = {}, {}
    for t, key in group:
        if t not in covered:
            edge_weight[key] = edge_weight.get(key, 0) + 1
            edge_results.setdefault(key, []).append(t)
    if not edge_weight:
        return None
    subset, density = max_density_set(edge_weight)
    new_results = frozenset(t for key, ts in edge_results.items() if key <= subset for t in ts)
    price = Fraction(len(subset), len(new_results))
    assert price == 1 / density
    parts = {}
    for rel_name, row in subset:
        parts.setdefault(rel_name, set()).add(row)
    return {k: frozenset(v) for k, v in parts.items()}, new_results, price


def numbered_price(demands, b_value, covered):
    """`densest.min_price_candidate` on the group of `b_value` in
    `demands` (from `densest.demand_groups`) with the head tuples in
    `covered` marked, read back as the reference's (subsets, new results,
    price), or None."""
    vertices, results, groups = demands
    candidate = densest.min_price_candidate(live_group(
        (r, key) for key, ids in groups.get(b_value, {}).items()
        for r in ids if results[r] not in covered))
    if candidate is None:
        return None
    subsets = {}
    for name, row in map(vertices.__getitem__, candidate.vertices):
        subsets.setdefault(name, set()).add(row)
    return ({name: frozenset(rows) for name, rows in subsets.items()},
            frozenset(map(results.__getitem__, candidate.new_results)), candidate.price)


def eager_greedy(query, db):
    """Reference greedy: cover the projection of Q(D) onto the one
    existential component c, from c's join rows that project onto it,
    re-pricing every join value in every round with the reference pricing
    and keeping the first strictly cheaper candidate over the sorted
    values; head-only atoms take their projections of Q(D).  Returns the
    witness parts, the pricing calls made and the rounds in which several
    values shared the cheapest price."""
    b_attr = query.non_output[0]
    results = evaluate(query, db)
    parts = {schema.name: {project(query.head, t, schema.attributes) for t in results}
             for schema in query.relations if schema.attribute_set <= query.head_set}
    comp, = existential_components(query)
    sub = query.subquery(comp.output_attributes, comp.relations)
    wanted = {project(query.head, t, sub.head) for t in results}
    b_values = sorted({project(schema.attributes, row, [b_attr])[0]
                       for schema in sub.relations if b_attr in schema.attribute_set
                       for row in db.instances[schema.name]})
    groups = reference_demand_groups(sub, [fj for fj in full_join_results(sub, db)
                                           if project(sub.attributes, fj, sub.head) in wanted])
    covered, calls, tied_rounds = frozenset(), 0, 0
    while covered != wanted:
        priced = [reference_min_price_candidate(groups.get(b, []), covered) for b in b_values]
        calls += len(b_values)
        best = None
        for candidate in priced:
            if candidate is not None and (best is None or candidate[2] < best[2]):
                best = candidate
        tied_rounds += sum(c is not None and c[2] == best[2] for c in priced) > 1
        for name, rows in best[0].items():
            parts.setdefault(name, set()).update(rows)
        covered |= best[1]
    return parts, calls, tied_rounds


@pytest.fixture
def reused(monkeypatch):
    """The join values whose stale heap top the greedy cover put back with
    its candidate unpriced, one entry per reuse: an entry replacing the
    top with the very candidate the top held."""
    values = []

    def heapreplace(heap, entry):
        if entry[3] is not None and entry[3] is heap[0][3]:
            values.append(entry[1])
        return heapq.heapreplace(heap, entry)

    monkeypatch.setattr(solvers, "heapq",
                        SimpleNamespace(heappop=heapq.heappop, heapreplace=heapreplace))
    return values


def test_greedy_matches_eager_reference(reused):
    """On random queries, and on a shape whose component {R1, R2} is
    smaller than its piece."""
    rng = random.Random(506)
    linked = parse_query("Q(A1, A2) :- R1(B), R2(A2, B), R3(A1, A2)")
    for make_query in (random_single_nonoutput_query, lambda _: linked):
        tied = reusing = 0
        for _ in range(60):
            query = make_query(rng)
            db = random_db(query, rng, max_rows=6, domain=3)
            before = len(reused)
            report = solve_greedy_single_nonoutput(query, db)
            parts, _, tied_rounds = eager_greedy(query, db)
            assert report.witness == Database.of(query, parts)
            tied += tied_rounds > 0
            reusing += len(reused) > before
        assert tied >= 10  # ties between join values decided many witnesses
        assert reusing >= 8  # and stale candidates reused unpriced on many


def test_price_never_falls_as_coverage_grows():
    rng = random.Random(507)
    query = parse_query("Q(A, C) :- R1(A, B), R2(B, C)")
    checked = rose = 0
    for _ in range(40):
        db = random_db(query, rng, max_rows=8, domain=3)
        results = evaluate(query, db)
        demands = densest.demand_groups(query, full_join_results(query, db))
        ordered = sorted(results)
        for b_value in sorted({b for _, b in db.instances["R1"]}):
            covered = frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 2)))
            before = numbered_price(demands, b_value, covered)
            grown = covered | frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 3)))
            after = numbered_price(demands, b_value, grown)
            if before is None:
                assert after is None
            elif after is not None:
                assert after[2] >= before[2]
                checked += 1
                rose += after[2] > before[2]
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
    assert report.witness == Database.of(query, parts)
    assert calls < eager_calls


def test_greedy_with_one_relation_holding_b_matches_eager_reference():
    """With one relation holding the non-output attribute, here every key
    is one R1 tuple of weight 1, so every nonempty selection at a value
    ties and a round buys a single tuple.  `auto` routes this query to
    the exact solver, so the greedy solver is called directly."""
    query = parse_query("Q(A, C) :- R1(A, B), R2(C)")
    rng = random.Random(512)
    for _ in range(30):
        db = random_db(query, rng, max_rows=7, domain=3)
        report = solve_greedy_single_nonoutput(query, db)
        parts, _, _ = eager_greedy(query, db)
        assert report.witness == Database.of(query, parts)


TWO_HOP = "Q(A, C) :- R1(A, B), R2(B, C)"
STAR3 = "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)"
# (calls, candidates found) when every stale heap top was priced
PRICED_EVERY_STALE_TOP = {TWO_HOP: (44, 35), STAR3: (18, 13)}


@pytest.mark.parametrize("text, rows, pool, calls, priced, reuses", [
    (TWO_HOP, 55, 10, 40, 31, 4),
    (STAR3, 24, 7, 15, 10, 3),
])
def test_lazy_search_prices_as_often_as_before(monkeypatch, reused, text, rows, pool, calls,
                                               priced, reuses):
    """The lazy search's pricing calls, how many found a candidate, and how
    many stale candidates were reused unpriced, on one seeded instance of
    each shape.  All follow from the prices alone, not from which path
    computed them, and each reuse stands in for one call that found a
    candidate."""
    query = parse_query(text)
    db = gen_random_db(query, rows, pool, seed=21).database
    made = []

    def counting(*args):
        made.append(densest.min_price_candidate(*args))
        return made[-1]

    monkeypatch.setattr(solvers, "min_price_candidate", counting)
    solve_greedy_single_nonoutput(query, db)
    assert (len(made), sum(c is not None for c in made), len(reused)) == (calls, priced, reuses)
    assert (calls + reuses, priced + reuses) == PRICED_EVERY_STALE_TOP[text]


@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_greedy_ignores_full_join_row_order(monkeypatch, reorder):
    """Greedy pricing numbers the results in the order the join rows come
    in (`engine.incidence`) and the tuples in sorted order, so the row
    order must not reach the witness: on random queries and on the
    benchmark's two-hop, star, matrix and pyramid shapes."""
    rng = random.Random(514)
    original = solvers.full_join_results

    def reordered(query, db):
        rows = sorted(original(query, db), reverse=True)
        if reorder == "shuffled":
            rng.shuffle(rows)
        return rows

    cases = []
    for _ in range(60):
        query = random_single_nonoutput_query(rng)
        cases.append((query, random_db(query, rng, max_rows=6, domain=3)))
    for seed in range(1, 11):  # some of these decide ties on the vertex order
        for text, rows, pool in ((TWO_HOP, 55, 10), (STAR3, 24, 7)):
            generated = gen_random_db(parse_query(text), rows, pool, seed)
            cases.append((generated.query, generated.database))
    sets = SetCoverInstance(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3"), ("2", "3")))
    for generated in (gen_matrix_db(12, 3), gen_matrix_db(12, 4), gen_pyramid_db(sets)):
        cases.append((generated.query, generated.database))
    expected = [solve_greedy_single_nonoutput(query, db).witness for query, db in cases]
    monkeypatch.setattr(solvers, "full_join_results", reordered)
    for (query, db), want in zip(cases, expected):
        assert solve_greedy_single_nonoutput(query, db).witness == want


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
    subset, density = max_density_set(edge_weight)
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
        demands = densest.demand_groups(query, rows)
        b_values = {project(schema.attributes, row, ["B"])[0]
                    for schema in query.relations if "B" in schema.attribute_set
                    for row in db.instances[schema.name]}
        ordered = sorted(results)
        for b_value in sorted(b_values | {"b_absent"}):
            covered = frozenset(rng.sample(ordered, rng.randint(0, len(ordered) // 2)))
            want = probe_price(query, db, b_value, covered, results)
            got = numbered_price(demands, b_value, covered)
            if want is None:
                assert got is None
                nones += 1
            else:
                assert got == want
                priced += 1
    assert priced >= 120 and nones >= 200


def test_numbered_pricing_matches_frozenset_reference(monkeypatch):
    """Demand hypergraphs numbered once per solve price every join value
    as the frozenset-keyed reference does, under any covered set: the
    same relation subsets, new results and price, and None in the same
    places.  Results sharing a demand key (a head attribute outside the
    relations holding B) make weighted hyperedges.  Both pricing paths,
    the closed form and the flow search, are taken many times."""
    searches = []
    real = densest._DensityCore.densest

    def counting(self):
        searches.append(None)
        return real(self)

    monkeypatch.setattr(densest._DensityCore, "densest", counting)
    rng = random.Random(509)
    priced = nones = shared = by_flow = 0
    for _ in range(200):
        query = random_single_nonoutput_query(rng)
        db = random_db(query, rng, max_rows=7, domain=3)
        rows = full_join_results(query, db)
        demands = densest.demand_groups(query, rows)
        vertices, results, groups = demands
        assert sorted(results) == sorted(evaluate(query, db)) and len(set(results)) == len(results)
        assert vertices == sorted(vertices)
        reference = reference_demand_groups(query, rows)
        assert groups.keys() == reference.keys()
        ordered = sorted(results)
        for b_value in sorted(reference) + ["b_absent"]:
            group = reference.get(b_value, [])
            shared += len({key for _, key in group}) < len(group)
            for _ in range(3):
                covered = frozenset(rng.sample(ordered, rng.randint(0, len(ordered))))
                want = reference_min_price_candidate(group, covered)
                before = len(searches)
                got = numbered_price(demands, b_value, covered)
                by_flow += len(searches) - before
                assert got == want, (query, b_value, covered)
                priced += want is not None
                nones += want is None
    assert priced >= 400 and nones >= 800 and shared >= 40
    assert by_flow >= 200 and priced - by_flow >= 120  # 248 and 171


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
        witness = solve_greedy_single_nonoutput(query, db).witness
        atoms = list(query.relations)
        rng.shuffle(atoms)
        shuffled = Query(query.head, tuple(atoms))
        assert solve_greedy_single_nonoutput(shuffled, db).witness == witness
        assert solve_greedy_single_nonoutput(query, renamed(db, "w_")).witness \
            == renamed(witness, "w_")


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
                parts, sub, db,
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
        assert report.witness == Database.of(query, parts)
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
        rows = solvers.full_join_results(query, db)
        for t in results:
            parts: dict = {}
            tied += smallest_join_per_result(parts, query, db, [t])
            got: dict = {}
            solvers._add_cheapest_joins(got, query, rows, [t])
            assert Database.of(query, got) == Database.of(query, parts)
    assert tied >= 10


def test_baseline_is_the_component_walk():
    """A result's full join results are the product of its components',
    so the smallest whole-query join per result, the baseline's union, is
    each component's smallest, combined."""
    rng = random.Random(531)
    split = 0
    for query in small_random_queries(1000):
        db = random_db(query, rng, max_rows=6, domain=3)
        witness = solve_baseline_union(query, db).witness
        assert witness == Database.of(query, reference_baseline(query, db)[0]), format_query(query)
        assert witness == Database.of(query, reference_component_walk(query, db)[0])
        head_only = any(schema.attribute_set <= query.head_set for schema in query.relations)
        split += len(existential_components(query)) > 1 or head_only
    assert split >= 600, split


def oracle_at_its_size(query, db):
    return brute_force_swp(query, db, cap=db.size)


@pytest.mark.parametrize("solve, text", [
    (solve, text) for solve in (solve_baseline_union, oracle_at_its_size)
    for text in ("Q(A, C, E) :- R1(A, B), R2(B, C), R3(C, D), R4(D, E)", WORKED_TEXT)
] + [(solve_greedy_single_nonoutput, "Q(A1, A2) :- R1(B), R2(A2, B), R3(A1, A2)")],
    ids=["two-two-hops", "worked", "oracle-two-two-hops", "oracle-worked", "greedy-linked"])
def test_baseline_joins_each_component_alone(monkeypatch, solve, text):
    """The baseline, the oracle and greedy join each existential component
    alone, never the whole query or a relation component holding two of
    them, nor a head-only atom."""
    query = parse_query(text)
    db = gen_random_db(query, 40, 6, seed=1).database
    joined = []

    def spy(sub, d):
        joined.append(sub)
        return full_join_results(sub, d)

    monkeypatch.setattr(solvers, "full_join_results", spy)
    report = solve(query, db)
    assert report.result_count > 0
    assert [sub.relations for sub in joined] == [
        tuple(query.schema(name) for name in c.relations) for c in classify(query).components]
    assert all(len(sub.relations) < len(query.relations) for sub in joined)


ROUTES = (solve_exact_head_cluster, solve_approx_head_domination, solve_greedy_single_nonoutput,
          solve_baseline_union, brute_force_swp)
WALK_ROUTES = {solve.__name__ for solve in (solve_exact_head_cluster, solve_approx_head_domination,
                                            solve_baseline_union)}


def reports_of_routes(query, db):
    """The report of each route whose precondition, and cap, `query` and
    `db` meet, by solver name."""
    reports = {}
    for solve in ROUTES:
        try:
            reports[solve.__name__] = solve(query, db)
        except (PreconditionViolated, InstanceTooLarge):
            pass
    return reports


def less_one_tuple(witness):
    """`witness` without its smallest (relation name, row)."""
    name, row = min((name, row) for name, rows in witness.instances.items() for row in rows)
    return Database({**witness.instances, name: witness.instances[name] - {row}})


def test_factored_q_of_d_agrees_with_the_product():
    """On disconnected queries, Q(D) evaluated one piece at a time counts
    the results of Q(D) evaluated whole, the piece-by-piece `is_witness`
    agrees with comparing Q(W) and Q(D) whole, on the database and every
    route's witness and on each less one tuple, and the walk's routes
    build the reference walk's witnesses, which evaluates Q(D) whole.
    The last case has a piece whose results are empty."""
    cases = [(query, gen_random_db(query, 5, 3, seed=n).database)
             for n, query in enumerate(small_random_queries())
             if len(relation_components(query)) > 1]
    assert len(cases) == 567
    query = parse_query("Q(A, C) :- R1(A, B), R2(B), R3(C, D)")
    db = gen_random_db(query, 6, 3, seed=1).database
    cases.append((query, Database({**db.instances, "R3": frozenset()})))
    assert evaluate(query.subquery(["A"], ["R1", "R2"]), db)
    empty = accepted = rejected = walked = 0
    for query, db in cases:
        results = evaluate(query, db)
        empty += not results
        reports = reports_of_routes(query, db)
        assert solve_baseline_union.__name__ in reports
        candidates = [db, less_one_tuple(db)]
        for name, report in reports.items():
            assert report.result_count == len(results), (name, format_query(query))
            candidates.append(report.witness)
            if report.witness.size:
                candidates.append(less_one_tuple(report.witness))
            if name in WALK_ROUTES:
                assert report.witness == Database.of(
                    query, reference_component_walk(query, db)[0]), (name, format_query(query))
                walked += 1
        for witness in candidates:
            whole = evaluate(query, witness) == results
            assert is_witness(query, db, witness) == whole, format_query(query)
            for report in reports.values():
                assert is_witness(query, db, witness, report.results) == whole
            accepted += whole
            rejected += not whole
    assert results == frozenset() and report.witness.size == 0
    assert empty >= 20 and len(cases) - empty >= 300, empty
    assert min(accepted, rejected) >= 2000 and walked >= 1500, (accepted, rejected, walked)


def with_fresh_atom(query, db, k):
    """`query` with the atom S(Fresh) appended, Fresh in the head, and `db`
    with k rows in S."""
    extended = Query(query.head + ("Fresh",),
                     query.relations + (RelationSchema("S", ("Fresh",)),))
    return extended, Database({**db.instances, "S": frozenset((f"s{i}",) for i in range(k))})


@pytest.mark.parametrize("make_query, solve", [
    (random_head_cluster_query, solve_exact_head_cluster),
    (random_head_domination_query, solve_approx_head_domination),
    (random_query, solve_baseline_union),
    (random_query, oracle_at_its_size),
    (random_single_nonoutput_query, solve_greedy_single_nonoutput),
], ids=["exact", "approx", "baseline", "oracle", "greedy"])
def test_a_fresh_head_only_atom_multiplies_the_results(make_query, solve):
    """Appending S(Fresh), Fresh a new output attribute, to a connected
    query with k rows in S makes S a piece of its own: the result count is
    multiplied by k and every other relation's witness rows stay the
    same, or, for k = 0, both are empty."""
    rng = random.Random(533)
    checked = grown_results = 0
    while checked < 40:
        query = make_query(rng)
        if len(relation_components(query)) > 1:
            continue
        db = random_db(query, rng, max_rows=4, domain=2)
        if db.size > 16:
            continue
        report = solve(query, db)
        for k in (0, 1, 3):
            extended, more = with_fresh_atom(query, db, k)
            grown = solve(extended, more)
            assert grown.result_count == k * report.result_count
            grown_results += grown.result_count > 0
            if k and report.result_count:
                assert grown.witness.instances == {**report.witness.instances,
                                                   "S": more.instances["S"]}
            else:
                assert grown.witness.size == 0
        checked += 1
    assert grown_results >= 30, grown_results


def outcome(entry, *args):
    """What `entry` returns, or the type of what it raises."""
    try:
        return entry(*args)
    except Exception as err:
        return type(err)


@pytest.mark.parametrize("text, missing", [
    ("Q(A) :- R(A, B), S(B)", "S"),
    ("Q(A) :- R(A, B), S(B)", "R"),
    ("Q(A) :- R(A, B), S(A, B)", "S"),
    ("Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)", "R3"),
    ("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)", "R3"),
])
def test_a_relation_the_database_lacks_reads_as_empty(text, missing):
    """Every entry point gives the same output with a relation absent from
    the `Database` as with it empty: the first atom, a line's last hop and
    an atom folded into a cyclic step each read it."""
    query = parse_query(text)
    full = gen_random_db(query, 4, 2, seed=7).database
    lacking = Database({name: rows for name, rows in full.instances.items() if name != missing})
    empty = Database({**full.instances, missing: frozenset()})
    entries = [evaluate, lambda q, d: sorted(full_join_results(q, d)),
               solve_exact_head_cluster, solve_approx_head_domination,
               solve_greedy_single_nonoutput, solve_baseline_union, brute_force_swp, line_to_dsf,
               lambda q, d: is_witness(q, d, Database.of(q, {}))]
    assert evaluate(query, full)  # so the join reaches the missing atom's step
    for entry in entries:
        assert outcome(entry, query, lacking) == outcome(entry, query, empty)


class Unreadable:
    """Stands in for Q(D) where it must not be read."""

    def __iter__(self):
        raise AssertionError("Q(D) was read")


def projected_head_only_parts(query, db, results):
    """Reference: each atom inside the head gets the projection of its
    piece's results, `results` being Q(D)'s (piece, result set) pairs."""
    return {schema.name: {project(sub.head, t, schema.attributes) for t in rows}
            for sub, rows in results for schema in sub.relations
            if schema.attribute_set <= query.head_set}


def witnesses_of_head_only_routes(query, db):
    """The witness of each route that takes the head-only parts and whose
    precondition `query` meets."""
    witnesses = {}
    for solve in (solve_exact_head_cluster, solve_approx_head_domination,
                  solve_greedy_single_nonoutput):
        try:
            witnesses[solve.__name__] = solve(query, db).witness
        except PreconditionViolated:
            pass
    return witnesses


def test_head_only_parts_and_full_reduction_equal_projections(monkeypatch):
    """On random queries and databases, some relations empty and many
    relation graphs disconnected, the reducer keeps each relation's rows
    that some full join result projects onto, the head-only parts equal
    the projection of Q(D) and never read it on an acyclic query, on a
    cyclic one whether given Q(D) whole or, when it is nonempty, as one
    factor per piece, and every route that takes the head-only parts
    builds the same witness as from the projection."""
    rng = random.Random(508)
    cases = []
    acyclic = head_only = emptied = split_joined = split_emptied = 0
    for query in small_random_queries():
        db = random_db(query, rng, max_rows=5, domain=3, empty=0.15)
        rows = full_join_results(query, db)
        results = ((query, evaluate(query, db)),)
        want = projected_head_only_parts(query, db, results)
        tree = classify(query).join_tree
        if tree is not None:
            assert full_reduction(query, db, tree) == {
                schema.name: {project(query.attributes, fj, schema.attributes) for fj in rows}
                for schema in query.relations}, format_query(query)
            results = ((query, Unreadable()),)
            acyclic += 1
        elif results[0][1]:
            factors = tuple((sub, evaluate(sub, db)) for sub in pieces(query))
            assert solvers._head_only_parts(query, db, factors) == want, format_query(query)
        assert solvers._head_only_parts(query, db, results) == want, format_query(query)
        head_only += any(want.values())
        empty = not all(db.instances.values())
        emptied += empty
        # a relation graph in pieces: some ear shares nothing with its parent
        split = len(relation_components(query)) > 1
        split_joined += split and bool(rows)
        split_emptied += split and empty
        cases.append((query, db, witnesses_of_head_only_routes(query, db)))
    assert acyclic >= 2000 and len(cases) - acyclic >= 100, (acyclic, len(cases))
    assert min(head_only, emptied) >= 400 and min(split_joined, split_emptied) >= 100, (
        head_only, emptied, split_joined, split_emptied)
    monkeypatch.setattr(solvers, "_head_only_parts", projected_head_only_parts)
    routes = 0
    for query, db, witnesses in cases:
        assert witnesses_of_head_only_routes(query, db) == witnesses, format_query(query)
        routes += len(witnesses)
    assert routes >= 2000, routes


def test_head_only_parts_read_q_of_d_only_on_cyclic_queries():
    """The full 3-path's head-only parts come from the reducer, which never
    iterates Q(D); the triangle, which is cyclic, still projects it."""
    path = parse_query("Q(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D)")
    db = gen_random_db(path, 30, 6, seed=2).database
    parts = solvers._head_only_parts(path, db, ((path, Unreadable()),))
    assert any(parts.values())
    assert parts == projected_head_only_parts(path, db, ((path, evaluate(path, db)),))
    # a relation the database lacks counts as empty, as in `is_witness`
    assert solvers._head_only_parts(path, Database({"R1": db.instances["R1"]}),
                                    ((path, Unreadable()),)) == {
        "R1": set(), "R2": set(), "R3": set()}
    triangle = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)")
    db = gen_random_db(triangle, 30, 4, seed=2).database
    with pytest.raises(AssertionError, match=r"Q\(D\) was read"):
        solvers._head_only_parts(triangle, db, ((triangle, Unreadable()),))
    results = ((triangle, evaluate(triangle, db)),)
    parts = solvers._head_only_parts(triangle, db, results)
    assert any(parts.values())
    assert parts == projected_head_only_parts(triangle, db, results)
    assert solvers._head_only_parts(triangle, db, ((triangle, frozenset()),)) == {
        "R1": set(), "R2": set(), "R3": set()}


def test_report_json_renders_fractions_as_strings():
    query = parse_query("Q(A, B) :- R(A, B)")
    db = Database.build(query, {"R": [{"A": "1", "B": "2"}]})
    doc = solve_exact_head_cluster(query, db).to_json_dict()
    assert doc["claimed_ratio_bound"] == "1"
    assert doc["algorithm"] == "exact"
    assert doc["witness_size"] == 1

