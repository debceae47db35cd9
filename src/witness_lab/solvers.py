"""Witness construction.

The shared core walks the components of the existential graph: atoms
made of output attributes alone contribute the projections of the result
set, and every other component contributes, per projected result, the
single cheapest full join result of its subquery.  That procedure is
optimal on head-cluster queries and within a factor of twice the atom
count under head domination.  A greedy cover loop handles queries with
one non-output attribute, and the baseline unions one single-result
witness per result row.

Each subquery is joined once and the per-result choices are read off
that one result set, as in Yannakakis, "Algorithms for acyclic database
schemes" (VLDB 1981).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .densest import demand_groups, min_price_candidate
from .engine import evaluate, full_join_results
from .errors import InternalInconsistency, PreconditionViolated, ResultNotFound
from .linprog import fractional_edge_cover
from .model import Database, Query, Witness, projection
from .structure import existential_components, has_head_cluster, has_head_domination


@dataclass(frozen=True)
class SolveReport:
    """A witness plus the context needed to judge it."""

    witness: Witness
    db_size: int
    results: frozenset[tuple[str, ...]] = field(repr=False)  # Q(D), kept for verification
    claimed_ratio_bound: Fraction | float | None
    rho_star: Fraction | None = None

    @property
    def algorithm(self) -> str:
        return self.witness.algorithm

    @property
    def witness_size(self) -> int:
        return self.witness.size

    @property
    def result_count(self) -> int:
        return len(self.results)

    def to_json_dict(self) -> dict:
        bound: object
        if self.claimed_ratio_bound is None:
            bound = None
        elif isinstance(self.claimed_ratio_bound, Fraction):
            bound = str(self.claimed_ratio_bound)
        else:
            bound = self.claimed_ratio_bound
        return {
            "algorithm": self.algorithm,
            "witness_size": self.witness_size,
            "db_size": self.db_size,
            "result_count": self.result_count,
            "claimed_ratio_bound": bound,
            "rho_star": str(self.rho_star) if self.rho_star is not None else None,
        }


def witness_for_result(query: Query, db: Database, result: Mapping[str, str]) -> Witness:
    """One tuple per relation reproducing a single {attribute: value} result:
    the lexicographically smallest full join result projecting onto it."""
    if result.keys() != query.head_set:
        raise ValueError(f"{dict(result)} is not a row over the head attributes")
    parts: dict[str, set[tuple[str, ...]]] = {}
    _add_cheapest_joins(parts, query, _cheapest_joins(query, full_join_results(query, db)),
                        [tuple(result[a] for a in sorted(query.head))])
    return Witness.build(query, parts, "single_result")


def _head_only_parts(query: Query, results: frozenset) -> dict[str, set[tuple[str, ...]]]:
    """Atoms inside the head contribute exactly the result projections;
    every witness must contain them."""
    head = sorted(query.head)
    return {schema.name: set(map(projection(head, schema.sorted_attributes), results))
            for schema in query.relations if schema.attribute_set <= query.head_set}


def _cheapest_joins(query: Query,
                    rows: Iterable[tuple[str, ...]]) -> dict[tuple[str, ...], tuple[str, ...]]:
    """Per result (a tuple over the sorted head), the lexicographically
    smallest of the full join results `rows`, given in any order, that
    projects onto it.  One join serves every result; its keys are Q(D)."""
    to_head = projection(query.attributes, sorted(query.head))
    cheapest: dict[tuple[str, ...], tuple[str, ...]] = {}
    for fj in rows:
        t = to_head(fj)
        best = cheapest.get(t)
        if best is None or fj < best:
            cheapest[t] = fj
    return cheapest


def _add_cheapest_joins(parts: dict[str, set[tuple[str, ...]]], query: Query,
                        cheapest: Mapping[tuple[str, ...], tuple[str, ...]],
                        wanted: Iterable[tuple[str, ...]]) -> None:
    """Add, for each wanted result, the tuples of its entry in `cheapest`
    (from `_cheapest_joins`)."""
    to_relation = [(parts.setdefault(schema.name, set()),
                    projection(query.attributes, schema.sorted_attributes))
                   for schema in query.relations]
    for result in wanted:
        fj = cheapest.get(result)
        if fj is None:
            raise ResultNotFound(sorted(query.head), result)
        for rows, project in to_relation:
            rows.add(project(fj))


def _component_walk(query: Query, db: Database,
                    algorithm: str) -> tuple[Witness, frozenset[tuple[str, ...]]]:
    """The witness and the Q(D) it was built from."""
    results = evaluate(query, db)
    parts: dict[str, set[tuple[str, ...]]] = {}
    if results:
        parts = _head_only_parts(query, results)
        for comp in existential_components(query):
            sub = query.subquery(comp.output_attributes, comp.relations)
            to_sub = projection(sorted(query.head), sorted(comp.output_attributes))
            rows = full_join_results(sub, db.restrict(comp.relations))
            _add_cheapest_joins(parts, sub, _cheapest_joins(sub, rows), set(map(to_sub, results)))
    return Witness.build(query, parts, algorithm), results


def solve_exact_head_cluster(query: Query, db: Database) -> SolveReport:
    """Minimum witness for queries where every existential component is
    dominated by each of its members."""
    if not has_head_cluster(query):
        raise PreconditionViolated("query is not head-cluster")
    witness, results = _component_walk(query, db, "exact")
    return SolveReport(witness, db.size, results, Fraction(1))


def solve_approx_head_domination(query: Query, db: Database) -> SolveReport:
    """Witness within 2 * (number of atoms) of the optimum for queries
    whose existential components all have a dominating relation."""
    if not has_head_domination(query):
        raise PreconditionViolated("query is not head-dominated")
    witness, results = _component_walk(query, db, "approx")
    return SolveReport(witness, db.size, results, Fraction(2 * len(query.relations)))


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
    rows = full_join_results(query, db)
    results = frozenset(map(projection(query.attributes, sorted(query.head)), rows))
    groups = demand_groups(query, rows)
    parts = _head_only_parts(query, results)
    # (price bound, value, round priced in, candidate); a value appears once,
    # so entries never compare beyond the value.  Only values joined with
    # some result are seeded; no other value can ever cover one.
    heap: list = [(0, b_value, -1, None) for b_value in sorted(groups)]
    covered: frozenset[tuple[str, ...]] = frozenset()
    round_no = 0
    while covered != results:
        while heap and heap[0][2] != round_no:
            stale_price, b_value, _, _ = heap[0]
            candidate = min_price_candidate(groups[b_value], covered)
            if candidate is None:  # nothing uncovered reachable, now or later
                heapq.heappop(heap)
            elif candidate.price < stale_price:
                raise InternalInconsistency(
                    f"price at {b_value!r} fell from {stale_price} to {candidate.price}")
            else:
                heapq.heapreplace(heap, (candidate.price, b_value, round_no, candidate))
        if not heap:
            raise InternalInconsistency("uncovered results reachable at no join value")
        best = heap[0][3]
        for name, chosen in best.subsets.items():
            parts.setdefault(name, set()).update(chosen)
        covered |= best.new_results
        round_no += 1
    witness = Witness.build(query, parts, "greedy")
    bound = 1.0 + math.log(max(1, len(results)))
    return SolveReport(witness, db.size, results, bound)


def solve_baseline_union(query: Query, db: Database) -> SolveReport:
    """Union of one single-result witness per result row.  Size is at most
    (number of atoms) * min(N, result count); the claimed ratio bound is
    N ** (1 - 1/rho) for the fractional edge cover number rho."""
    cheapest = _cheapest_joins(query, full_join_results(query, db))
    results = frozenset(cheapest)
    parts: dict[str, set[tuple[str, ...]]] = {}
    _add_cheapest_joins(parts, query, cheapest, results)
    witness = Witness.build(query, parts, "baseline")
    rho = fractional_edge_cover(query)
    bound = float(db.size) ** float(1 - Fraction(1) / rho) if db.size else 0.0
    return SolveReport(witness, db.size, results, bound, rho)

