"""Seeded instance corpora for the three benchmark workloads.

Each workload is chosen so that one layer of witness-lab does most of
the work there and little anywhere else:

* ``walk``: routes ``exact``, ``approx`` and ``baseline``, whose cost is
  the per-result witness lookup (``engine.full_join_results`` with a
  fixed result); no max-flow runs.
* ``greedy``: queries with a single non-output attribute, whose cost is
  pricing, density search and max-flow in ``densest``; no per-result
  lookup runs.
* ``scan``: full queries (every attribute in the head), solved with
  ``--out``, plus ``export-dsf`` on 3-hop line instances; the cost is
  bulk ``engine.evaluate`` joins, CSV load/write and JSON output.

The corpus is generated through ``witness-lab generate`` (the public
entry point), so set-up time is the program's own generation and CSV
writing.  Every instance takes its contents from a generator seeded by
the workload name and the ``--seed`` argument, so one seed always gives
the same bytes.  Companion instances (at most 30 tuples, one pair per
random shape) are not timed: they are solved once per run and compared
against the branch-and-bound oracle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

EXACT = "Q(A, C) :- R1(A, B), R2(A, B), R3(C, D)"
COVER = "Q(A) :- R1(A, B), R2(B)"
PATH3 = "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)"
TWO_HOP = "Q(A, C) :- R1(A, B), R2(B, C)"
STAR3 = "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)"
TRIANGLE = "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"
PATH3_FULL = "Q(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D)"
LINE3 = "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)"

LINE3_ALPHABET = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Instance:
    """One corpus entry: how to generate it and which operation runs on it.

    ``op`` is ``solve``, ``solve-out`` (solve with ``--out`` into a fresh
    directory) or ``export-dsf``.  ``route`` is the algorithm that
    ``--algo auto`` must pick (``dsf`` for export operations).
    ``query`` is the query text for the random family, written to
    ``query.txt`` before generation; family instances write their own.
    """

    name: str
    generate: tuple[str, ...]
    op: str
    route: str
    query: str | None = None
    companion: bool = False


def _random(name: str, query: str, rows: int, pool: int, seed: int, op: str, route: str,
            companion: bool = False) -> Instance:
    args = ("random", "--rows", str(rows), "--pool", str(pool), "--seed", str(seed))
    return Instance(name, args, op, route, query, companion)


def _covering_sets(rng: random.Random, universe: int, count: int, size: int) -> str:
    """``count`` subsets of 1..universe, each of ``size`` elements, that
    together cover the universe, in the ``--sets`` syntax."""
    elements = list(range(1, universe + 1))
    rng.shuffle(elements)
    sets = [set() for _ in range(count)]
    for i, element in enumerate(elements):
        sets[i % count].add(element)
    for subset in sets:
        while len(subset) < size:
            subset.add(rng.randint(1, universe))
    return ";".join(",".join(map(str, sorted(s))) for s in sets)


def _label_constraints(rng: random.Random, n: int, pairs: int) -> str:
    """Random admissible label pairs for every vertex pair of a line3 instance."""
    every = [f"{x}/{y}" for x in LINE3_ALPHABET for y in LINE3_ALPHABET]
    return ";".join(f"{u},{v}:" + ",".join(sorted(rng.sample(every, pairs)))
                    for u in range(1, n + 1) for v in range(1, n + 1))


def _walk(rng: random.Random) -> list[Instance]:
    out = []
    for i in range(6):
        out.append(_random(f"exact-{i}", EXACT, 200, 20, rng.randrange(1 << 30), "solve", "exact"))
        out.append(_random(f"approx-{i}", COVER, 400, 40, rng.randrange(1 << 30), "solve", "approx"))
        out.append(_random(f"baseline-{i}", PATH3, 65, 11, rng.randrange(1 << 30), "solve",
                           "baseline"))
    for i in range(3):
        out.append(Instance(f"cover-{i}", ("cover", "--universe", "80",
                                           "--sets", _covering_sets(rng, 80, 14, 14)),
                            "solve", "approx"))
        out.append(Instance(f"line3-{i}", ("line3", "--n", "3", "--alphabet",
                                           ",".join(LINE3_ALPHABET), "--constraints",
                                           _label_constraints(rng, 3, 8), "--t", "3",
                                           "--no-predict"),
                            "solve", "baseline"))
    for i in range(2):
        out.append(_random(f"exact-small-{i}", EXACT, 10, 4, rng.randrange(1 << 30), "solve",
                           "exact", companion=True))
        out.append(_random(f"approx-small-{i}", COVER, 15, 5, rng.randrange(1 << 30), "solve",
                           "approx", companion=True))
        out.append(_random(f"baseline-small-{i}", PATH3, 10, 4, rng.randrange(1 << 30), "solve",
                           "baseline", companion=True))
    return out


def _greedy(rng: random.Random) -> list[Instance]:
    out = []
    for i in range(10):
        out.append(_random(f"two-hop-{i}", TWO_HOP, 55, 10, rng.randrange(1 << 30), "solve",
                           "greedy"))
        out.append(_random(f"star3-{i}", STAR3, 24, 7, rng.randrange(1 << 30), "solve",
                           "greedy"))
    for n, k in ((12, 3), (12, 4)):
        out.append(Instance(f"matrix-{n}x{k}", ("matrix", "--n", str(n), "--k", str(k)),
                            "solve", "greedy"))
    for i in range(3):
        out.append(Instance(f"pyramid-{i}", ("pyramid", "--universe", "3",
                                             "--sets", _covering_sets(rng, 3, 4, 2)),
                            "solve", "greedy"))
    for i in range(2):
        out.append(_random(f"two-hop-small-{i}", TWO_HOP, 15, 5, rng.randrange(1 << 30),
                           "solve", "greedy", companion=True))
        out.append(_random(f"star3-small-{i}", STAR3, 10, 4, rng.randrange(1 << 30),
                           "solve", "greedy", companion=True))
    return out


def _scan(rng: random.Random) -> list[Instance]:
    out = []
    for i in range(5):
        out.append(_random(f"triangle-{i}", TRIANGLE, 400, 29, rng.randrange(1 << 30),
                           "solve-out", "exact"))
        out.append(_random(f"path3-full-{i}", PATH3_FULL, 190, 40, rng.randrange(1 << 30),
                           "solve-out", "exact"))
        out.append(_random(f"line3-dsf-{i}", LINE3, 500, 45, rng.randrange(1 << 30),
                           "export-dsf", "dsf"))
    for i in range(2):
        out.append(_random(f"triangle-small-{i}", TRIANGLE, 10, 4, rng.randrange(1 << 30),
                           "solve", "exact", companion=True))
        out.append(_random(f"path3-full-small-{i}", PATH3_FULL, 10, 4, rng.randrange(1 << 30),
                           "solve", "exact", companion=True))
    return out


WORKLOADS = {"walk": _walk, "greedy": _greedy, "scan": _scan}


def corpus(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for one seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
