"""Exact fractional edge covers.

The fractional edge cover number rho* (minimise total atom weight, every
attribute covered by weight >= 1) is computed through its LP dual, the
fractional vertex packing: maximise sum y_a subject to sum_{a in R} y_a <= 1
for every atom R, y >= 0.  With one slack per atom, y = 0 is a feasible
basis, so a single simplex phase with Bland's rule (finite) solves it over
`fractions.Fraction`; no artificial columns and no phase 1 are needed.

At the optimum the objective row's slack entries are the dual prices: an
atom weighting.  Weak duality certifies the result: the prices must cover
every attribute, the packing must fit under every atom, and the two sums
must agree.  A failed check raises `InternalInconsistency`.  rho* depends on
the query alone, so `fractional_edge_cover` keeps its last 64 (immutable)
`Fraction` results by query, each one certified when it was computed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency
from .model import Query


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Make column `col` basic in constraint row `row`; every other row of
    the tableau, the objective row included, is updated."""
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for r, current in enumerate(tableau):
        if r != row and current[col] != 0:
            factor = current[col]
            tableau[r] = [a - factor * b for a, b in zip(current, tableau[row])]
    basis[row] = col


@lru_cache(maxsize=64)
def fractional_edge_cover(query: Query) -> Fraction:
    """Smallest total relation weight covering every attribute at least once.
    Exact rational."""
    atoms = [rel.attribute_set for rel in query.relations]
    attrs = query.attributes
    n, m = len(attrs), len(atoms)
    # Rows 0..m-1: atom i's packing constraint, slack in column n + i, rhs last.
    # Row m: the objective row, reduced costs of max sum y with the value last.
    tableau = [[Fraction(a in atom) for a in attrs] + [Fraction(k == i) for k in range(m)]
               + [Fraction(1)] for i, atom in enumerate(atoms)]
    tableau.append([Fraction(-1)] * n + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        # Bland: the smallest improving column enters; among tied ratios,
        # the row whose basic column is smallest leaves.
        entering = next((j for j, c in enumerate(tableau[m][:-1]) if c < 0), None)
        if entering is None:
            break
        _, _, leaving = min((tableau[i][-1] / tableau[i][entering], basis[i], i)
                            for i in range(m) if tableau[i][entering] > 0)
        _pivot(tableau, basis, leaving, entering)

    prices = tableau[m][n:n + m]
    basic = {col: tableau[i][-1] for i, col in enumerate(basis)}
    packing = [basic.get(j, Fraction(0)) for j in range(n)]
    covers = min(prices) >= 0 and all(
        sum(p for p, atom in zip(prices, atoms) if a in atom) >= 1 for a in attrs)
    packs = min(packing) >= 0 and all(
        sum(y for y, a in zip(packing, attrs) if a in atom) <= 1 for atom in atoms)
    if not (covers and packs and sum(prices) == sum(packing)):
        raise InternalInconsistency(
            f"edge cover {list(map(str, prices))} and vertex packing "
            f"{list(map(str, packing))} do not certify each other")
    return sum(prices)
