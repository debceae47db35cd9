"""Instance families with known or measurable smallest-witness sizes.

Cover and matrix databases make the witness problem simulate set cover;
the pyramid family does the same for a query with no free sequence; the
line3 family encodes label cover into a three-hop path query.  The two
embed routines plant the cover and matrix shapes inside an arbitrary
query through a chosen attribute pair, padding everything else with a
single dummy value.  Predicted sizes are exact optima except for line3,
where the prediction is the size of the canonical integral construction.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import (
    AlphabetTooSmall,
    PreconditionViolated,
    UncoverableUniverse,
    UnsatisfiableConstraint,
)
from .model import Database, Query, Row
from .qparser import parse_query
from .structure import existential_components, find_free_sequence

DUMMY = "*"


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe elements and the subsets available to cover them."""

    universe: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.universe or len(set(self.universe)) != len(self.universe):
            raise ValueError("universe must be nonempty and free of duplicates")
        if not self.subsets:
            raise ValueError("at least one subset is required")
        seen: set[str] = set()
        for subset in self.subsets:
            if not subset:
                raise ValueError("empty subsets are not allowed")
            extra = set(subset) - set(self.universe)
            if extra:
                raise ValueError(f"subset elements outside the universe: {sorted(extra)}")
            seen.update(subset)
        if seen != set(self.universe):
            raise UncoverableUniverse()

    @property
    def set_names(self) -> tuple[str, ...]:
        return tuple(f"s{i + 1}" for i in range(len(self.subsets)))


def min_cover_size(instance: SetCoverInstance) -> int:
    """Exhaustive minimum set cover size."""
    universe = set(instance.universe)
    for size in range(1, len(instance.subsets) + 1):
        for combo in itertools.combinations(instance.subsets, size):
            if set().union(*combo) == universe:
                return size
    raise UncoverableUniverse()  # unreachable; construction validates coverage


@dataclass
class LabelCoverInstance:
    """Complete bipartite label cover: n left and n right vertices, an
    alphabet larger than n, and per-pair sets of admissible label pairs.
    Cost of a labelling is the total number of labels assigned."""

    n: int
    alphabet: tuple[str, ...]
    constraints: dict[tuple[int, int], frozenset[tuple[str, str]]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet has duplicates")
        if len(self.alphabet) <= self.n:
            raise AlphabetTooSmall(self.alphabet, self.n)
        letters = set(self.alphabet)
        for u in range(1, self.n + 1):
            for v in range(1, self.n + 1):
                pairs = self.constraints.get((u, v))
                if not pairs:
                    raise UnsatisfiableConstraint((u, v))
                for x, y in pairs:
                    if x not in letters or y not in letters:
                        raise ValueError(f"constraint ({u},{v}) uses labels outside the alphabet")


def min_label_cover_cost(instance: LabelCoverInstance) -> int:
    """Exhaustive minimum labelling cost: every left vertex gets a
    nonempty label set, every right vertex a label set hitting one
    admissible pair against every left vertex's labels."""
    n = instance.n
    left_choices = [frozenset(c)
                    for size in range(1, len(instance.alphabet) + 1)
                    for c in itertools.combinations(instance.alphabet, size)]

    def min_hitting(targets: list[frozenset[str]]) -> int | None:
        pool = sorted(set().union(*targets)) if targets else []
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                picked = set(combo)
                if all(t & picked for t in targets):
                    return size
        return None

    best: int | None = None
    for assignment in itertools.product(left_choices, repeat=n):
        cost = sum(len(labels) for labels in assignment)
        if best is not None and cost + n >= best:
            continue
        feasible = True
        for v in range(1, n + 1):
            targets = []
            for u in range(1, n + 1):
                allowed = frozenset(y for x, y in instance.constraints[(u, v)]
                                    if x in assignment[u - 1])
                if not allowed:
                    feasible = False
                    break
                targets.append(allowed)
            if not feasible:
                break
            hit = min_hitting(targets)
            if hit is None:
                feasible = False
                break
            cost += hit
        if feasible and (best is None or cost < best):
            best = cost
    if best is None:
        raise UnsatisfiableConstraint((0, 0))  # unreachable: full alphabet always works
    return best


@dataclass
class GeneratedInstance:
    query: Query
    database: Database
    predicted_witness_size: int | None
    metadata: dict = field(default_factory=dict)


def gen_cover_db(instance: SetCoverInstance, predict: bool = True) -> GeneratedInstance:
    """Membership pairs joined against a unary relation of set names.
    Smallest witness: one membership row per element plus one name per
    set in a minimum cover."""
    query = parse_query("Q(A) :- R1(A, B), R2(B)")
    names = instance.set_names
    r1 = {Row.make({"A": u, "B": names[j]})
          for j, subset in enumerate(instance.subsets) for u in subset}
    r2 = {Row.make({"B": name}) for name in names}
    k = min_cover_size(instance) if predict else None
    predicted = len(instance.universe) + k if k is not None else None
    return GeneratedInstance(query, Database.build(query, {"R1": r1, "R2": r2}), predicted, {
        "family": "cover",
        "universe_size": len(instance.universe),
        "set_count": len(instance.subsets),
        "min_cover": k,
    })


def gen_matrix_db(n: int, k: int, predict: bool = True) -> GeneratedInstance:
    """Two-hop query whose middle attribute ranges over k block names
    partitioning n elements; the right relation is a full block-by-column
    grid.  Smallest witness: n membership rows plus all k*n grid rows."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    query = parse_query("Q(A, C) :- R1(A, B), R2(B, C)")
    r1 = {Row.make({"A": f"u{i}", "B": f"s{(i - 1) % k + 1}"}) for i in range(1, n + 1)}
    r2 = {Row.make({"B": f"s{j}", "C": f"c{l}"})
          for j in range(1, k + 1) for l in range(1, n + 1)}
    return GeneratedInstance(query, Database.build(query, {"R1": r1, "R2": r2}),
                             n * (k + 1) if predict else None, {
        "family": "matrix",
        "n": n,
        "k": k,
    })


def gen_pyramid_db(instance: SetCoverInstance, predict: bool = True) -> GeneratedInstance:
    """Full triangle over three output attributes, each also paired with
    a shared non-output attribute whose values compose a set choice with
    an index.  Smallest witness: (k+4)*n^2 + k*n for minimum cover k."""
    query = parse_query(
        "Q(A, B, C) :- R1(A, B), R2(A, C), R3(B, C), R4(A, F), R5(B, F), R6(C, F)")
    n = len(instance.universe)
    m = len(instance.subsets)
    a = [f"a{i}" for i in range(1, n + 1)]
    b = [f"b{i}" for i in range(1, n + 1)]
    c = [f"c{i}" for i in range(1, n + 1)]
    f_all = [f"f-{j}|f+{i}" for j in range(1, m + 1) for i in range(1, n + 1)]
    tables: dict[str, set[Row]] = {
        "R1": {Row.make({"A": x, "B": y}) for x in a for y in b},
        "R2": {Row.make({"A": x, "C": y}) for x in a for y in c},
        "R3": {Row.make({"B": x, "C": y}) for x in b for y in c},
        "R6": {Row.make({"C": y, "F": f}) for y in c for f in f_all},
        "R4": {Row.make({"A": a[l], "F": f"f-{j + 1}|f+{x}"})
               for j, subset in enumerate(instance.subsets)
               for l, u in enumerate(instance.universe) if u in subset
               for x in range(1, n + 1)},
        "R5": {Row.make({"B": b[i - 1], "F": f"f-{j}|f+{i}"})
               for j in range(1, m + 1) for i in range(1, n + 1)},
    }
    k = min_cover_size(instance) if predict else None
    predicted = (k + 4) * n * n + k * n if k is not None else None
    return GeneratedInstance(query, Database.build(query, tables), predicted, {
        "family": "pyramid",
        "universe_size": n,
        "set_count": m,
        "min_cover": k,
    })


def gen_line3_db(instance: LabelCoverInstance, t: int, predict: bool = True) -> GeneratedInstance:
    """Three-hop path encoding label cover: t slots per vertex on the
    outside, labels in the middle, constraint pairs as the middle
    relation.  Predicted size is the integral construction t*cost + n^2,
    an upper bound that meets the optimum for large t."""
    if t < 1:
        raise ValueError("t must be positive")
    query = parse_query("Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)")
    n = instance.n
    r1 = {Row.make({"A1": f"u{j}#slot{i}", "A2": f"u{j}#lab{x}"})
          for j in range(1, n + 1) for i in range(1, t + 1) for x in instance.alphabet}
    r2 = {Row.make({"A2": f"u{j}#lab{x}", "A3": f"v{l}#lab{y}"})
          for (j, l), pairs in instance.constraints.items() for x, y in pairs}
    r3 = {Row.make({"A3": f"v{l}#lab{y}", "A4": f"v{l}#slot{i}"})
          for l in range(1, n + 1) for y in instance.alphabet for i in range(1, t + 1)}
    cost = min_label_cover_cost(instance) if predict else None
    predicted = t * cost + n * n if cost is not None else None
    return GeneratedInstance(query, Database.build(query, {"R1": r1, "R2": r2, "R3": r3}),
                             predicted, {
        "family": "line3",
        "n": n,
        "alphabet_size": len(instance.alphabet),
        "t": t,
        "min_label_cost": cost,
        "predicted_is_upper_bound": True,
    })


def gen_random_db(query: Query, rows_per_relation: int, pool: int, seed: int) -> GeneratedInstance:
    """Uniform random rows over per-attribute pools of `pool` values.
    Deterministic in the seed; duplicates collapse."""
    if rows_per_relation < 0 or pool < 1:
        raise ValueError("need rows_per_relation >= 0 and pool >= 1")
    rng = random.Random(seed)
    domains = {a: [f"{a.lower()}{i}" for i in range(pool)] for a in query.attributes}
    tables: dict[str, set[Row]] = {}
    for schema in query.relations:
        rows = set()
        for _ in range(rows_per_relation):
            rows.add(Row.make({a: rng.choice(domains[a]) for a in schema.attributes}))
        tables[schema.name] = rows
    return GeneratedInstance(query, Database.build(query, tables), None, {
        "family": "random",
        "rows_per_relation": rows_per_relation,
        "pool": pool,
        "seed": seed,
    })


def _role_rows(query: Query, instance: SetCoverInstance,
               element_attr: str, set_attrs: frozenset[str],
               column_attr: str | None, columns: list[str]) -> dict[str, set[Row]]:
    """Rows for the embedding devices.  The element attribute ranges over
    the universe, set attributes carry one set name each (equal within a
    row), the optional column attribute ranges over `columns`, and every
    other attribute is pinned to the dummy value."""
    names = instance.set_names
    tables: dict[str, set[Row]] = {}
    for schema in query.relations:
        attrs = schema.attribute_set
        has_element = element_attr in attrs
        has_set = bool(attrs & set_attrs)
        has_column = column_attr is not None and column_attr in attrs
        if has_element and has_column:
            raise PreconditionViolated("chosen endpoints share a relation")

        def fill(element: str | None, set_name: str | None, column: str | None) -> Row:
            values = {}
            for a in schema.attributes:
                if a == element_attr and element is not None:
                    values[a] = element
                elif a in set_attrs and set_name is not None:
                    values[a] = set_name
                elif a == column_attr and column is not None:
                    values[a] = column
                else:
                    values[a] = DUMMY
            return Row.make(values)

        rows: set[Row] = set()
        if has_element and has_set:
            for j, subset in enumerate(instance.subsets):
                for u in subset:
                    rows.add(fill(u, names[j], None))
        elif has_set and has_column:
            for name in names:
                for col in columns:
                    rows.add(fill(None, name, col))
        elif has_element:
            for u in instance.universe:
                rows.add(fill(u, None, None))
        elif has_set:
            for name in names:
                rows.add(fill(None, name, None))
        elif has_column:
            for col in columns:
                rows.add(fill(None, None, col))
        else:
            rows.add(fill(None, None, None))
        tables[schema.name] = rows
    return tables


def embed_cover_db(query: Query, instance: SetCoverInstance) -> GeneratedInstance:
    """Plant the cover structure inside any query that is not
    head-cluster: the first undominated pair supplies an output attribute
    for elements and its component's non-output attributes for set names."""
    chosen = None
    for comp in existential_components(query):
        covered = set()
        for name in sorted(comp.relations):
            covered.update(query.head_of(name))
        for name in sorted(comp.relations):
            missing = sorted(covered - set(query.head_of(name)))
            if missing:
                chosen = (comp, missing[0])
                break
        if chosen:
            break
    if chosen is None:
        raise PreconditionViolated("query is head-cluster; no undominated pair to embed into")
    comp, element_attr = chosen
    non_output = set(query.non_output)
    set_attrs = frozenset(a for name in comp.relations
                          for a in query.schema(name).attribute_set
                          if a in non_output)
    tables = _role_rows(query, instance, element_attr, set_attrs, None, [])
    return GeneratedInstance(query, Database.build(query, tables), None, {
        "family": "embed-cover",
        "element_attribute": element_attr,
        "set_attributes": sorted(set_attrs),
        "universe_size": len(instance.universe),
        "set_count": len(instance.subsets),
    })


def embed_matrix_db(query: Query, instance: SetCoverInstance) -> GeneratedInstance:
    """Plant the matrix structure along a free sequence: elements at one
    endpoint, a fresh column domain at the other, set names across the
    interior."""
    seq = find_free_sequence(query)
    if seq is None:
        raise PreconditionViolated("query has no free sequence to embed along")
    attrs = seq.attributes
    element_attr, column_attr = attrs[0], attrs[-1]
    set_attrs = frozenset(attrs[1:-1])
    columns = [f"c{i}" for i in range(1, len(instance.universe) + 1)]
    tables = _role_rows(query, instance, element_attr, set_attrs, column_attr, columns)
    return GeneratedInstance(query, Database.build(query, tables), None, {
        "family": "embed-matrix",
        "element_attribute": element_attr,
        "column_attribute": column_attr,
        "set_attributes": sorted(set_attrs),
        "universe_size": len(instance.universe),
        "set_count": len(instance.subsets),
    })
