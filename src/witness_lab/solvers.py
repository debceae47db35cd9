"""Witness construction.

The shared core walks the components of the existential graph, read
from the query's cached `classify` result: atoms made of output
attributes alone contribute the projections of the result set, and
every other component hands its subquery's join and the projected
results it wants to a builder.  Four routes share it: the oracle's
builder searches a minimum, and one cheapest full join result per
projected result is optimal on head-cluster queries, within twice the
atom count under head domination, and the baseline's union on any query,
a result's full join results being the product of its components'.
A greedy cover loop handles queries with one non-output attribute.

Each subquery is joined once and the per-result choices are read off
that one result set, as in Yannakakis, "Algorithms for acyclic database
schemes" (VLDB 1981).  The head-only atoms' projections are that paper's
full reduction: on an acyclic query `engine.full_reduction` computes
them by semijoins along the join tree in `classify`'s result, reading
each relation a constant number of times instead of all of Q(D) once
per atom; on a cyclic query they are projected from Q(D).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Callable, Iterable

from .densest import demand_groups, min_price_candidate
from .engine import evaluate, full_join_results, full_reduction
from .errors import InternalInconsistency, PreconditionViolated
from .linprog import fractional_edge_cover
from .model import Database, Query, projection
from .structure import classify


@dataclass(frozen=True)
class SolveReport:
    """A witness, the route that built it and the context needed to judge it."""

    witness: Database
    algorithm: str
    db_size: int
    results: frozenset[tuple[str, ...]] = field(repr=False)  # Q(D), kept for verification
    claimed_ratio_bound: Fraction | float
    rho_star: Fraction | None = None

    @property
    def witness_size(self) -> int:
        return self.witness.size

    @property
    def result_count(self) -> int:
        return len(self.results)

    def to_json_dict(self) -> dict:
        bound = self.claimed_ratio_bound
        return {
            "algorithm": self.algorithm,
            "witness_size": self.witness_size,
            "db_size": self.db_size,
            "result_count": self.result_count,
            "claimed_ratio_bound": str(bound) if isinstance(bound, Fraction) else bound,
            "rho_star": str(self.rho_star) if self.rho_star is not None else None,
        }


def _head_only_parts(query: Query, db: Database,
                     results: Iterable[tuple[str, ...]]) -> dict[str, AbstractSet[tuple[str, ...]]]:
    """Atoms inside the head contribute exactly the result projections, Q(D)
    being `results`; every witness must contain them.  On an acyclic query
    these are the atoms' rows that take part in some full join result,
    which the full reducer finds without reading `results`.  Otherwise
    Q(D) is split into one column per head attribute once (none when it
    is empty), and each atom zips its columns."""
    inside = [schema for schema in query.relations if schema.attribute_set <= query.head_set]
    if not inside:
        return {}
    tree = classify(query).join_tree
    if tree is not None:
        reduced = full_reduction(query, db, tree)
        return {schema.name: reduced[schema.name] for schema in inside}
    columns = dict(zip(sorted(query.head), zip(*results)))
    return {schema.name: set(zip(*(columns.get(a, ()) for a in schema.sorted_attributes)))
            for schema in inside}


def _add_cheapest_joins(parts: dict[str, set[tuple[str, ...]]], query: Query,
                        rows: Iterable[tuple[str, ...]],
                        wanted: Iterable[tuple[str, ...]]) -> None:
    """Add, for each wanted result (a tuple over the sorted head), the
    tuples of the lexicographically smallest of the full join results
    `rows`, given in any order, that projects onto it.  One join serves
    every result; a wanted result none projects onto is a bug."""
    to_head = projection(query.attributes, sorted(query.head))
    cheapest: dict[tuple[str, ...], tuple[str, ...]] = {}
    for fj in rows:
        t = to_head(fj)
        best = cheapest.get(t)
        if best is None or fj < best:
            cheapest[t] = fj
    to_relation = [(parts.setdefault(schema.name, set()),
                    projection(query.attributes, schema.sorted_attributes))
                   for schema in query.relations]
    for result in wanted:
        fj = cheapest.get(result)
        if fj is None:
            raise InternalInconsistency(f"no full join result projects onto "
                                        f"{dict(zip(sorted(query.head), result))}")
        for kept, project in to_relation:
            kept.add(project(fj))


def _component_walk(query: Query, db: Database, build: Callable[..., None],
                    ) -> tuple[Database, frozenset[tuple[str, ...]]]:
    """The witness and the Q(D) it was built from, by `build` per component.
    A component holding every atom is the query itself, wanting Q(D)."""
    results = evaluate(query, db)
    parts: dict[str, AbstractSet[tuple[str, ...]]] = {}
    if results:
        parts = _head_only_parts(query, db, results)
        for comp in classify(query).components:
            sub, wanted = query, results
            if len(comp.relations) < len(query.relations):
                sub = query.subquery(comp.output_attributes, comp.relations)
                wanted = set(map(projection(sorted(query.head), comp.output_attributes), results))
            build(parts, sub, full_join_results(sub, db), wanted)
    return Database.of(query, parts), results


def solve_exact_head_cluster(query: Query, db: Database) -> SolveReport:
    """Minimum witness for queries where every existential component is
    dominated by each of its members."""
    if not classify(query).head_cluster:
        raise PreconditionViolated("query is not head-cluster")
    witness, results = _component_walk(query, db, _add_cheapest_joins)
    return SolveReport(witness, "exact", db.size, results, Fraction(1))


def solve_approx_head_domination(query: Query, db: Database) -> SolveReport:
    """Witness within 2 * (number of atoms) of the optimum for queries
    whose existential components all have a dominating relation."""
    if not classify(query).head_domination:
        raise PreconditionViolated("query is not head-dominated")
    witness, results = _component_walk(query, db, _add_cheapest_joins)
    return SolveReport(witness, "approx", db.size, results, Fraction(2 * len(query.relations)))


def solve_greedy_single_nonoutput(query: Query, db: Database) -> SolveReport:
    """Price-driven cover for queries with exactly one non-output
    attribute.  Repeatedly buys the globally cheapest tuple selection at
    a single join value (ties to the smallest value) until every result
    is reproduced.  Logarithmic approximation in the result count.

    Pricing is lazy (Minoux, 1978): covering more results never lowers a
    value's price, so a heap of possibly stale prices is re-priced only
    at its top, until the top entry was priced in the current round."""
    if len(query.non_output) != 1:
        raise PreconditionViolated("query must have exactly one non-output attribute")
    vertices, result_list, groups = demand_groups(query, full_join_results(query, db))
    results = frozenset(result_list)
    parts = _head_only_parts(query, db, results)
    # (price key, value, round priced in, candidate); a value appears once,
    # so entries never compare beyond the value.  Only values joined with
    # some result are seeded; no other value can ever cover one.
    heap: list = [(0, b_value, -1, None) for b_value in sorted(groups)]
    # A price is t/g with 1 <= g <= R results, R = len(result_list), and its
    # key is the integer floor(t/g * 2**shift).  Two distinct prices differ
    # by at least 1/(g1*g2) >= 1/R**2 > 2**-shift, so their scaled values
    # differ by more than 1 and their floors keep the order strictly; equal
    # prices get equal keys.  Keys therefore order and tie exactly as the
    # prices do, and compare in C.
    shift = 2 * len(result_list).bit_length()
    covered = bytearray(len(result_list))  # by result id
    remaining, round_no = len(result_list), 0
    while remaining:
        while heap and heap[0][2] != round_no:
            stale_key, b_value, _, stale = heap[0]
            candidate = min_price_candidate(groups[b_value], covered)
            if candidate is None:  # nothing uncovered reachable, now or later
                heapq.heappop(heap)
                continue
            key = (len(candidate.vertices) << shift) // len(candidate.new_results)
            if key < stale_key:
                raise InternalInconsistency(
                    f"price at {b_value!r} fell from {stale.price} to {candidate.price}")
            heapq.heapreplace(heap, (key, b_value, round_no, candidate))
        if not heap:
            raise InternalInconsistency("uncovered results reachable at no join value")
        best = heap[0][3]
        for name, row in map(vertices.__getitem__, best.vertices):
            parts.setdefault(name, set()).add(row)
        for r in best.new_results:
            covered[r] = 1
        remaining -= len(best.new_results)
        round_no += 1
    bound = 1.0 + math.log(max(1, len(results)))
    return SolveReport(Database.of(query, parts), "greedy", db.size, results, bound)


def solve_baseline_union(query: Query, db: Database) -> SolveReport:
    """Union of one single-result witness per result row: the
    lexicographically smallest full join result projecting onto it.  Size
    is at most (number of atoms) * min(N, result count); the claimed ratio
    bound is N ** (1 - 1/rho) for the fractional edge cover number rho.

    Existential components share only output attributes, and head-only
    atoms hold only output attributes, so a result's full join results
    are the product of its components' and the smallest of them is each
    component's smallest, combined: the component walk builds this union."""
    witness, results = _component_walk(query, db, _add_cheapest_joins)
    rho = fractional_edge_cover(query)
    bound = float(db.size) ** float(1 - Fraction(1) / rho) if db.size else 0.0
    return SolveReport(witness, "baseline", db.size, results, bound, rho)
