"""Fractional edge covers via the exact-rational vertex-packing simplex."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from witness_lab import linprog
from witness_lab.errors import InternalInconsistency
from witness_lab.linprog import fractional_edge_cover
from witness_lab.model import Query, RelationSchema
from witness_lab.qparser import parse_query

from corpus import WORKED_TEXT, random_query


def boolean_query(*atoms: tuple[str, ...]) -> Query:
    return Query((), tuple(RelationSchema(f"R{i}", attrs) for i, attrs in enumerate(atoms, 1)))


def test_cover_of_single_atom():
    assert fractional_edge_cover(parse_query("Q(A) :- R(A, B)")) == 1
    assert fractional_edge_cover(boolean_query(tuple(f"A{i}" for i in range(7)))) == 1


def test_cover_of_paths():
    two_path = "Q(A, C) :- R1(A, B), R2(B, C)"
    assert fractional_edge_cover(parse_query(two_path)) == 2
    three_path = "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"
    assert fractional_edge_cover(parse_query(three_path)) == 2
    four_path = "Q(A1, A5) :- R1(A1, A2), R2(A2, A3), R3(A3, A4), R4(A4, A5)"
    assert fractional_edge_cover(parse_query(four_path)) == 3
    for k in range(1, 9):
        path = boolean_query(*((f"A{i}", f"A{i + 1}") for i in range(k)))
        assert fractional_edge_cover(path) == math.ceil((k + 1) / 2), k


def test_cover_of_triangle_is_fractional():
    triangle = "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"
    assert fractional_edge_cover(parse_query(triangle)) == Fraction(3, 2)


@pytest.mark.parametrize("k", range(3, 9))
def test_cover_of_cycle_is_half_its_length(k):
    cycle = boolean_query(*((f"A{i}", f"A{(i + 1) % k}") for i in range(k)))
    assert fractional_edge_cover(cycle) == Fraction(k, 2)


@pytest.mark.parametrize("k", range(1, 7))
def test_cover_of_star_counts_its_leaves(k):
    star = boolean_query(*(("C", f"L{i}") for i in range(k)))
    assert fractional_edge_cover(star) == k


@pytest.mark.parametrize("n", range(2, 7))
def test_cover_of_all_pairs_is_half_the_attributes(n):
    clique = boolean_query(*itertools.combinations([f"A{i}" for i in range(n)], 2))
    assert fractional_edge_cover(clique) == Fraction(n, 2)


def test_cover_of_worked_example():
    assert fractional_edge_cover(parse_query(WORKED_TEXT)) == 3


def test_cover_ignores_head_choice():
    """Coverage constraints range over all attributes, so the head plays
    no part."""
    full = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C)")
    boolean = parse_query("Q() :- R1(A, B), R2(B, C)")
    assert fractional_edge_cover(full) == fractional_edge_cover(boolean) == 2


def _solve_exactly(system: list[list[Fraction]]) -> list[Fraction] | None:
    """Solve a square system [A | b] by Gauss-Jordan elimination; None if
    A is singular."""
    rows = [list(r) for r in system]
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][-1] / rows[i][i] for i in range(size)]


def reference_cover(query: Query) -> Fraction:
    """Minimum of the cover LP (x >= 0, every attribute covered >= 1) over
    its basic solutions: every choice of |atoms| constraints made tight,
    solved exactly."""
    atoms = [r.attribute_set for r in query.relations]
    m = len(atoms)
    coverage = [[Fraction(a in atom) for atom in atoms] + [Fraction(1)]
                for a in query.attributes]
    nonnegative = [[Fraction(k == i) for k in range(m)] + [Fraction(0)] for i in range(m)]
    values = []
    for tight in itertools.combinations(coverage + nonnegative, m):
        x = _solve_exactly(list(tight))
        if x is None or min(x) < 0:
            continue
        if all(sum(c * v for c, v in zip(row, x)) >= 1 for row in coverage):
            values.append(sum(x))
    return min(values)


def test_cover_matches_basic_solution_enumeration():
    rng = random.Random(9)
    for _ in range(200):
        query = random_query(rng, max_relations=4, max_attributes=6)
        assert fractional_edge_cover(query) == reference_cover(query), query


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda objective: [max(v, Fraction(0)) for v in objective],
                 id="stops-early-prices-miss-an-attribute"),
    pytest.param(lambda objective: [2 * v for v in objective],
                 id="doubled-prices-exceed-the-packing"),
])
def test_certificate_rejects_a_wrong_objective_row(monkeypatch, corrupt):
    real_pivot = linprog._pivot

    def faulty_pivot(tableau, basis, row, col):
        real_pivot(tableau, basis, row, col)
        tableau[-1] = corrupt(tableau[-1])

    monkeypatch.setattr(linprog, "_pivot", faulty_pivot)
    with pytest.raises(InternalInconsistency):
        fractional_edge_cover(parse_query("Q(A, C) :- R1(A, B), R2(B, C)"))


@pytest.mark.parametrize("packing", [
    pytest.param({"A1": 2}, id="packing-over-an-atom-bound"),
    pytest.param({"A1": 2, "A2": -1, "A4": 1}, id="packing-below-zero"),
])
def test_certificate_rejects_an_infeasible_packing(monkeypatch, packing):
    """The optimal prices are left alone, so they still cover every
    attribute, and the packing still sums to rho* = 2: only the packing's
    own constraints (y >= 0, at most 1 under every atom) can catch it."""
    query = parse_query("Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)")
    attrs, m = query.attributes, len(query.relations)
    real_pivot = linprog._pivot
    corrupted = []

    def faulty_pivot(tableau, basis, row, col):
        real_pivot(tableau, basis, row, col)
        if min(tableau[-1][:-1]) >= 0:  # optimal: make `packing` the basic solution
            cells = [(attrs.index(a), Fraction(y)) for a, y in packing.items()]
            cells += [(len(attrs) + i, Fraction(0)) for i in range(m - len(cells))]
            for i, (j, y) in enumerate(cells):
                basis[i] = j
                tableau[i][-1] = y
            corrupted.append(True)

    monkeypatch.setattr(linprog, "_pivot", faulty_pivot)
    assert sum(packing.values()) == 2
    with pytest.raises(InternalInconsistency):
        fractional_edge_cover(query)
    assert corrupted
