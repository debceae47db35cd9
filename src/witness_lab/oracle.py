"""Exact smallest-witness search on small instances.

Tuples that survive dangling elimination are numbered into a bitmask.
Each result row owns the set of full join results producing it; a tuple
shared by every one of them is forced into any witness.  The search
branches on the uncovered result with the fewest distinct ways to cover
it, adding one full-join-result delta at a time, and prunes with an
admissible bound: distinct head projections still missing from a
relation each cost at least one tuple.  Connected pieces of the query
are solved independently and their minima summed.
"""
from __future__ import annotations

from .engine import full_join_results
from .errors import BudgetExhausted, InstanceTooLarge
from .model import Database, Query, Witness, projection
from .structure import relation_components

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
    head = sorted(query.head_set)
    to_head = projection(query.attributes, head)
    results = sorted(set(map(to_head, full)))
    to_relation = [(schema.name, projection(query.attributes, schema.sorted_attributes))
                   for schema in query.relations]

    tuple_ids: dict[tuple[str, tuple[str, ...]], int] = {}
    for fj in full:
        for name, project in to_relation:
            tuple_ids.setdefault((name, project(fj)), len(tuple_ids))
    by_id = {i: key for key, i in tuple_ids.items()}

    def join_mask(fj: tuple[str, ...]) -> int:
        mask = 0
        for name, project in to_relation:
            mask |= 1 << tuple_ids[(name, project(fj))]
        return mask

    supports: list[list[int]] = [[] for _ in results]
    position = {t: i for i, t in enumerate(results)}
    for fj in full:
        supports[position[to_head(fj)]].append(join_mask(fj))

    all_results = (1 << len(results)) - 1
    forced = 0
    for masks in supports:
        need = masks[0]
        for m in masks[1:]:
            need &= m
        forced |= need

    # Admissible lower bound: for every relation, each head projection
    # demanded by an uncovered result and absent from the chosen set
    # needs its own tuple.
    classes: list[tuple[int, int]] = []  # (result mask, tuple mask) per projection
    for schema in query.relations:
        proj_attrs = sorted(schema.attribute_set & query.head_set)
        relation_bits = 0
        for (name, _), i in tuple_ids.items():
            if name == schema.name:
                relation_bits |= 1 << i
        to_projection = projection(head, proj_attrs)
        buckets: dict[tuple[str, ...], tuple[int, int]] = {}
        for t, masks in zip(results, supports):
            value = to_projection(t)
            rmask, tmask = buckets.get(value, (0, 0))
            rmask |= 1 << position[t]
            for m in masks:
                tmask |= m
            buckets[value] = (rmask, tmask)
        for rmask, tmask in buckets.values():
            classes.append((rmask, tmask & relation_bits))

    def lower_bound(chosen: int, uncovered: int) -> int:
        count = 0
        for rmask, tmask in classes:
            if rmask & uncovered and not tmask & chosen:
                count += 1
        return count

    def coverage(chosen: int) -> int:
        mask = 0
        for i, masks in enumerate(supports):
            if any(m & chosen == m for m in masks):
                mask |= 1 << i
        return mask

    def greedy_complete(chosen: int) -> int:
        while True:
            covered = coverage(chosen)
            if covered == all_results:
                return chosen
            i = (~covered & all_results).bit_length() - 1
            delta = min((m & ~chosen for m in supports[i]),
                        key=lambda d: (d.bit_count(), d))
            chosen |= delta

    best = greedy_complete(forced)
    best_size = best.bit_count()

    # Depth first with an explicit stack, so deep searches cannot
    # overflow Python's recursion limit.  Children are pushed in reverse,
    # so they are visited, ticked and pruned in branch order.
    stack = [forced]
    while stack:
        chosen = stack.pop()
        budget.tick()
        covered = coverage(chosen)
        size = chosen.bit_count()
        if covered == all_results:
            if size < best_size:
                best, best_size = chosen, size
            continue
        if size + lower_bound(chosen, ~covered & all_results) >= best_size:
            continue
        branch_deltas: list[int] | None = None
        for i, masks in enumerate(supports):
            if covered >> i & 1:
                continue
            deltas = sorted({m & ~chosen for m in masks}, key=lambda d: (d.bit_count(), d))
            if branch_deltas is None or len(deltas) < len(branch_deltas):
                branch_deltas = deltas
                if len(deltas) == 1:
                    break
        assert branch_deltas
        stack.extend(chosen | delta for delta in reversed(branch_deltas))

    parts: dict[str, set[tuple[str, ...]]] = {}
    for i in range(best.bit_length()):
        if best >> i & 1:
            name, row = by_id[i]
            parts.setdefault(name, set()).add(row)
    return parts


def brute_force_swp(query: Query, db: Database,
                    budget: int | None = None, cap: int = DEFAULT_ORACLE_CAP) -> Witness:
    """Provably minimum witness by exhaustive search.  Refuses databases
    larger than `cap` tuples; `budget` limits explored search nodes."""
    if budget is not None and budget < 0:
        raise ValueError(f"search-node budget must be nonnegative, got {budget}")
    if cap < 0:
        raise ValueError(f"exhaustive-search cap must be nonnegative, got {cap}")
    if db.size > cap:
        raise InstanceTooLarge(db.size, cap)
    pieces: list[tuple[Query, list[tuple[str, ...]]]] = []
    for component in relation_components(query):
        names = sorted(component)
        head = [a for a in query.head
                if any(a in query.schema(n).attribute_set for n in names)]
        sub = query.subquery(head, names)
        full = sorted(full_join_results(sub, db.restrict(names)))  # tuple bits in row order
        if not full:  # Q(D) is empty: the empty database is the witness
            return Witness.build(query, {}, "oracle")
        pieces.append((sub, full))
    meter = _Budget(budget)
    parts: dict[str, set[tuple[str, ...]]] = {}
    for sub, full in pieces:
        piece = _solve_connected(sub, full, meter)
        for name, rows in piece.items():
            parts.setdefault(name, set()).update(rows)
    return Witness.build(query, parts, "oracle")
