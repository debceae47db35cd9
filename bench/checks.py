"""Correctness checks on witness-lab's outputs, independent of its engine.

The query text is parsed here and Q(D) is computed by this module's own
hash-join evaluator over the CSV rows, so a fault in
``witness_lab.engine`` cannot hide itself.  Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)")

Atom = tuple[str, tuple[str, ...]]


def parse_query(text: str) -> tuple[tuple[str, ...], list[Atom]]:
    """Head attributes and body atoms of ``Q(A, C) :- R1(A, B), R2(B, C)``."""
    atoms = [(name, tuple(a.strip() for a in attrs.split(",") if a.strip()))
             for name, attrs in _ATOM.findall(text)]
    if len(atoms) < 2:
        raise ValueError(f"cannot parse query {text!r}")
    return atoms[0][1], atoms[1:]


def read_relation(path: Path, attributes: tuple[str, ...]) -> set[tuple[str, ...]]:
    """CSV rows as tuples in ``attributes`` order, whatever the file's column order."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if sorted(header) != sorted(attributes):
            raise ValueError(f"{path} has columns {header}, expected {list(attributes)}")
        order = [header.index(a) for a in attributes]
        return {tuple(record[i] for i in order) for record in reader if record}


def evaluate(head: tuple[str, ...], atoms: list[Atom],
             db: dict[str, set[tuple[str, ...]]]) -> set[tuple[str, ...]]:
    """Q(D) as tuples over ``head``: left-to-right hash joins, keeping only
    the attributes that the head or a later atom still needs."""
    needed = []
    later = set(head)
    for _, attrs in reversed(atoms):
        needed.append(set(later))
        later |= set(attrs)
    needed.reverse()
    acc_attrs: tuple[str, ...] = ()
    acc: set[tuple[str, ...]] = {()}
    for (name, attrs), keep in zip(atoms, needed):
        shared = [a for a in attrs if a in acc_attrs]
        right_key = [attrs.index(a) for a in shared]
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for row in db[name]:
            index.setdefault(tuple(row[i] for i in right_key), []).append(row)
        left_key = [acc_attrs.index(a) for a in shared]
        merged_attrs = acc_attrs + tuple(a for a in attrs if a not in acc_attrs)
        new_attrs = tuple(a for a in merged_attrs if a in keep)
        pick = [(0, acc_attrs.index(a)) if a in acc_attrs else (1, attrs.index(a))
                for a in new_attrs]
        joined = set()
        for left in acc:
            for right in index.get(tuple(left[i] for i in left_key), ()):
                pair = (left, right)
                joined.add(tuple(pair[side][i] for side, i in pick))
        acc, acc_attrs = joined, new_attrs
        if not acc:
            return set()
    order = [acc_attrs.index(a) for a in head]
    return {tuple(row[i] for i in order) for row in acc}


@dataclass
class Reference:
    """What the benchmark knows about one instance, computed from its files."""

    head: tuple[str, ...]
    atoms: list[Atom]
    db: dict[str, set[tuple[str, ...]]]
    results: set[tuple[str, ...]]
    optimum: int | None = None

    @property
    def size(self) -> int:
        return sum(len(rows) for rows in self.db.values())

    @property
    def lower_bound(self) -> int:
        """LB = sum over R of |pi_{attrs(R) & head} Q(D)|: every witness needs
        a distinct tuple of R per distinct projection of the results."""
        total = 0
        for _, attrs in self.atoms:
            positions = [i for i, a in enumerate(self.head) if a in attrs]
            total += len({tuple(t[i] for i in positions) for t in self.results})
        return total


def load_reference(directory: Path) -> Reference:
    head, atoms = parse_query((directory / "query.txt").read_text(encoding="utf-8"))
    db = {name: read_relation(directory / f"{name}.csv", attrs) for name, attrs in atoms}
    return Reference(head, atoms, db, evaluate(head, atoms, db))


def _witness_rows(ref: Reference, witness: dict) -> tuple[dict[str, set], list[str]]:
    rows: dict[str, set] = {}
    problems = []
    for name, attrs in ref.atoms:
        part = witness.get(name)
        if part is None:
            problems.append(f"witness lacks relation {name}")
            rows[name] = set()
            continue
        order = [part["columns"].index(a) for a in attrs]
        rows[name] = {tuple(r[i] for i in order) for r in part["rows"]}
        extra = rows[name] - ref.db[name]
        if extra:
            problems.append(f"witness rows of {name} not in D: {sorted(extra)[:3]}")
    return rows, problems


def _within_bound(size: int, optimum: int, bound: object) -> bool:
    if bound is None:
        return True
    if isinstance(bound, str):
        return size <= Fraction(bound) * optimum
    return size <= float(bound) * optimum * (1 + 1e-12)


def check_solve(doc: dict, ref: Reference, route: str) -> list[str]:
    """A ``solve`` document against the instance: sizes, W subset of D,
    Q(W) = Q(D), the projection lower bound, exactness and the ratio bound."""
    report = doc["report"]
    problems = []
    if report["algorithm"] != route:
        problems.append(f"routed to {report['algorithm']}, expected {route}")
    if report["db_size"] != ref.size:
        problems.append(f"db_size {report['db_size']} != {ref.size}")
    if report["result_count"] != len(ref.results):
        problems.append(f"result_count {report['result_count']} != {len(ref.results)}")
    rows, found = _witness_rows(ref, doc["witness"])
    problems += found
    size = sum(len(r) for r in rows.values())
    if size != report["witness_size"] or size != doc["comparison"]["witness_size"]:
        problems.append(f"witness has {size} rows, report says {report['witness_size']}")
    if evaluate(ref.head, ref.atoms, rows) != ref.results:
        problems.append("Q(W) != Q(D)")
    lb = ref.lower_bound
    if size < lb:
        problems.append(f"witness size {size} below the lower bound {lb}")
    if route == "exact" and size != lb:
        problems.append(f"exact witness size {size} != lower bound {lb}")
    if ref.optimum is not None:
        if size < ref.optimum:
            problems.append(f"witness size {size} below the optimum {ref.optimum}")
        if not _within_bound(size, ref.optimum, report["claimed_ratio_bound"]):
            problems.append(f"witness size {size} exceeds {report['claimed_ratio_bound']}"
                            f" x optimum {ref.optimum}")
    return problems


def check_out_dir(directory: Path, doc: dict, ref: Reference) -> list[str]:
    """The CSV files written by ``--out`` hold exactly the witness rows."""
    expected, _ = _witness_rows(ref, doc["witness"])
    problems = []
    for name, attrs in ref.atoms:
        try:
            written = read_relation(directory / f"{name}.csv", attrs)
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"--out {name}.csv unreadable: {exc}")
            continue
        if written != expected[name]:
            problems.append(f"--out {name}.csv differs from the witness JSON")
    return problems


def check_dsf(doc: dict, ref: Reference) -> list[str]:
    """An ``export-dsf`` document: one edge per tuple of D, one demand per
    projected result, and every demand reachable along the edges."""
    problems = []
    edges = doc["edges"]
    if len(edges) != ref.size:
        problems.append(f"{len(edges)} edges for {ref.size} tuples")
    schemas = dict(ref.atoms)
    tuples = {(e["relation"], tuple(e["row"][a] for a in schemas[e["relation"]])) for e in edges}
    if tuples != {(name, row) for name, rows in ref.db.items() for row in rows}:
        problems.append("edge tuples differ from D")
    chain = doc["chain"]
    last = len(chain) - 1
    first_at, last_at = ref.head.index(chain[0]), ref.head.index(chain[-1])
    expected = {(f"0:{t[first_at]}", f"{last}:{t[last_at]}") for t in ref.results}
    demands = [(d["from"], d["to"]) for d in doc["demands"]]
    if len(demands) != len(expected) or set(demands) != expected:
        problems.append(f"{len(demands)} demands, expected {len(expected)} from Q(D)")
    outgoing: dict[str, list[str]] = {}
    for e in edges:
        outgoing.setdefault(e["from"], []).append(e["to"])
    reach: dict[str, set[str]] = {}
    for source, target in demands:
        if source not in reach:
            seen = {source}
            frontier = [source]
            while frontier:
                for nxt in outgoing.get(frontier.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            reach[source] = seen
        if target not in reach[source]:
            problems.append(f"demand {source} -> {target} unreachable")
            break
    return problems
