"""Exact smallest-witness search on small instances.

It searches inside `solvers._component_walk`.  Head-only atoms hold
their projections of Q(D), and existential components share only output
attributes, so OPT = |head-only parts| + sum_c OPT_c(pi_c(Q(D))): each
component is searched alone, and one budget counts the nodes of them all.

Each tuple of the full join is a bit (`engine.incidence` numbers them).
Each result owns the masks of the full join results producing it; a
tuple shared by every one of them is forced into any witness.  The search
branches on the uncovered result with the fewest distinct ways to cover
it, adding one full-join-result delta at a time; each node rescans only
the results its parent left uncovered.  It prunes with an admissible
packing bound: in each relation, uncovered results whose tuples there
miss the chosen set and one another each cost at least one tuple.
"""
from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Iterable

from .engine import incidence
from .errors import BudgetExhausted, InstanceTooLarge
from .model import Database, Query, projection
from .solvers import SolveReport, _component_walk

DEFAULT_ORACLE_CAP = 30


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def tick(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted(self.limit)


def _solve_connected(query: Query, full: list[tuple[str, ...]],
                     budget: _Budget) -> dict[str, set[tuple[str, ...]]]:
    """Minimum witness of one connected query from its full join results."""
    vertices, results, columns, result_ids = incidence(query, full)
    supports: list[list[int]] = [[] for _ in results]  # per result: its masks
    for r, ids in zip(result_ids, zip(*columns.values())):
        supports[r].append(sum(map((1).__lshift__, ids)))  # relations' ids are disjoint
    relation_bits = [sum(map((1).__lshift__, set(ids))) for ids in columns.values()]

    all_results = (1 << len(results)) - 1
    forced = 0
    reach = []  # per result: every tuple in any of its masks
    for masks in supports:
        need = have = masks[0]
        for m in masks[1:]:
            need &= m
            have |= m
        forced |= need
        reach.append(have)

    # Admissible lower bound.  A result's span in a relation is that
    # relation's tuples in any of its masks, and covering the result takes
    # one of them.  Per relation, uncovered results whose spans miss
    # `chosen` and one another each need their own tuple.
    spans = [[bits & have for have in reach] for bits in relation_bits]

    def lower_bound(chosen: int, uncovered: int) -> int:
        count = 0
        for span in spans:
            taken, rest = chosen, uncovered
            while rest:
                low = rest & -rest
                rest ^= low
                s = span[low.bit_length() - 1]
                if not s & taken:
                    taken |= s
                    count += 1
        return count

    def scan(chosen: int, open_results: int) -> tuple[int, list[set[int]]]:
        """The results in `open_results` that `chosen` leaves uncovered, and
        each one's distinct deltas, in result order.  A result is covered
        when one of its masks minus `chosen` is empty."""
        uncovered = 0
        deltas: list[set[int]] = []
        unchosen = ~chosen
        while open_results:
            low = open_results & -open_results
            open_results ^= low
            ways = set(map(unchosen.__and__, supports[low.bit_length() - 1]))
            if 0 not in ways:
                uncovered |= low
                deltas.append(ways)
        return uncovered, deltas

    def branch_order(delta: int) -> tuple[int, int]:
        return delta.bit_count(), delta

    # Greedy incumbent: cover the highest open result by its smallest delta.
    best = forced
    uncovered, deltas = scan(best, all_results)
    while uncovered:
        best |= min(deltas[-1], key=branch_order)
        uncovered, deltas = scan(best, uncovered)
    best_size = best.bit_count()

    # Depth first with an explicit stack, so deep searches cannot
    # overflow Python's recursion limit.  Each entry carries its parent's
    # uncovered results, the only ones its node must rescan.  Children are
    # pushed in reverse, so they are visited, ticked and pruned in branch
    # order.
    stack = [(forced, all_results)]
    while stack:
        chosen, uncovered = stack.pop()
        budget.tick()
        uncovered, deltas = scan(chosen, uncovered)
        size = chosen.bit_count()
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            continue
        if size + lower_bound(chosen, uncovered) >= best_size:
            continue
        ways = min(deltas, key=len)  # the first open result with the fewest
        stack.extend((chosen | delta, uncovered)
                     for delta in sorted(ways, key=branch_order, reverse=True))

    parts: dict[str, set[tuple[str, ...]]] = {}
    for i, (name, row) in enumerate(vertices):
        if best >> i & 1:
            parts.setdefault(name, set()).add(row)
    return parts


def brute_force_swp(query: Query, db: Database,
                    budget: int | None = None, cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Provably minimum witness by exhaustive search.  Refuses databases
    larger than `cap` tuples; `budget` limits explored search nodes."""
    if budget is not None and budget < 0:
        raise ValueError(f"search-node budget must be nonnegative, got {budget}")
    if cap < 0:
        raise ValueError(f"exhaustive-search cap must be nonnegative, got {cap}")
    if db.size > cap:
        raise InstanceTooLarge(db.size, cap)
    meter = _Budget(budget)

    def search(parts: dict, sub: Query, rows: Iterable, wanted: AbstractSet) -> None:
        to_head = projection(sub.attributes, sorted(sub.head))
        kept = [row for row in rows if to_head(row) in wanted]
        for name, found in _solve_connected(sub, kept, meter).items():
            parts.setdefault(name, set()).update(found)

    witness, results = _component_walk(query, db, search)
    return SolveReport(witness, "oracle", db.size, results, Fraction(1))
