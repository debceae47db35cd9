"""Instance families with known or measurable smallest-witness sizes.

Cover and matrix databases make the witness problem simulate set cover;
the pyramid family does the same for a query with no free sequence; the
line3 family encodes label cover into a three-hop path query.  Predicted
sizes are exact optima except for line3, where the prediction is the size
of the canonical integral construction.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import AlphabetTooSmall, UncoverableUniverse, UnsatisfiableConstraint
from .model import Database, Query
from .qparser import parse_query


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
            raise AlphabetTooSmall(len(self.alphabet), self.n)
        for u, v in self.constraints:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"constraint ({u},{v}) names a vertex outside 1..{self.n}")
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
    r1 = [{"A": u, "B": names[j]}
          for j, subset in enumerate(instance.subsets) for u in subset]
    r2 = [{"B": name} for name in names]
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
    r1 = [{"A": f"u{i}", "B": f"s{(i - 1) % k + 1}"} for i in range(1, n + 1)]
    r2 = [{"B": f"s{j}", "C": f"c{l}"}
          for j in range(1, k + 1) for l in range(1, n + 1)]
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
    tables: dict[str, list[dict[str, str]]] = {
        "R1": [{"A": x, "B": y} for x in a for y in b],
        "R2": [{"A": x, "C": y} for x in a for y in c],
        "R3": [{"B": x, "C": y} for x in b for y in c],
        "R6": [{"C": y, "F": f} for y in c for f in f_all],
        "R4": [{"A": a[l], "F": f"f-{j + 1}|f+{x}"}
               for j, subset in enumerate(instance.subsets)
               for l, u in enumerate(instance.universe) if u in subset
               for x in range(1, n + 1)],
        "R5": [{"B": b[i - 1], "F": f"f-{j}|f+{i}"}
               for j in range(1, m + 1) for i in range(1, n + 1)],
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
    r1 = [{"A1": f"u{j}#slot{i}", "A2": f"u{j}#lab{x}"}
          for j in range(1, n + 1) for i in range(1, t + 1) for x in instance.alphabet]
    r2 = [{"A2": f"u{j}#lab{x}", "A3": f"v{l}#lab{y}"}
          for (j, l), pairs in instance.constraints.items() for x, y in pairs]
    r3 = [{"A3": f"v{l}#lab{y}", "A4": f"v{l}#slot{i}"}
          for l in range(1, n + 1) for y in instance.alphabet for i in range(1, t + 1)]
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
    tables = {schema.name: [{a: rng.choice(domains[a]) for a in schema.attributes}
                            for _ in range(rows_per_relation)]
              for schema in query.relations}
    return GeneratedInstance(query, Database.build(query, tables), None, {
        "family": "random",
        "rows_per_relation": rows_per_relation,
        "pool": pool,
        "seed": seed,
    })
