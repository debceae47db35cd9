"""Command line front end.

Four subcommands: classify a query, solve an instance (routing to the
strongest algorithm the query's class supports unless one is forced),
generate a named instance family into a directory, and export a path
query instance as a directed Steiner forest JSON document.

Exit codes: 0 success, 2 bad input, 3 precondition not met by the
requested operation, 4 resource limit hit.  Reports go to stdout as a
single JSON document; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .dsf import dsf_to_json_dict, line_to_dsf
from .engine import evaluate, is_witness
from .errors import (
    BudgetExhausted,
    InstanceTooLarge,
    InternalInconsistency,
    NotALineQuery,
    PreconditionViolated,
    WitnessLabError,
)
from .generators import (
    LabelCoverInstance,
    SetCoverInstance,
    gen_cover_db,
    gen_line3_db,
    gen_matrix_db,
    gen_pyramid_db,
    gen_random_db,
)
from .oracle import DEFAULT_ORACLE_CAP, brute_force_swp
from .qparser import format_query, parse_query
from .solvers import (
    SolveReport,
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
)
from .storage import load_database, write_database, witness_to_json_dict, write_witness
from .structure import Label, classification_to_json_dict, classify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _read_query(path: str):
    return parse_query(Path(path).read_text(encoding="utf-8"))


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_classify(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    document = classification_to_json_dict(classify(query))
    document["query"] = format_query(query)
    _emit(document)
    return EXIT_OK


def _route(query, label: Label) -> str:
    if label is Label.EXACT_PTIME:
        return "exact"
    if label is Label.CONST_APPROX:
        return "approx"
    if len(query.non_output) == 1:
        return "greedy"
    return "baseline"


def cmd_solve(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    db = load_database(query, Path(args.data))
    classification = classify(query)
    algo = args.algo if args.algo != "auto" else _route(query, classification.label)
    started = time.perf_counter()
    if algo == "exact":
        report = solve_exact_head_cluster(query, db)
    elif algo == "approx":
        report = solve_approx_head_domination(query, db)
    elif algo == "greedy":
        report = solve_greedy_single_nonoutput(query, db)
    elif algo == "baseline":
        report = solve_baseline_union(query, db)
    else:
        witness = brute_force_swp(query, db, budget=args.budget, cap=args.oracle_cap)
        report = SolveReport(witness, db.size, evaluate(query, db), Fraction(1))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if not is_witness(query, db, report.witness, report.results):
        raise InternalInconsistency(f"{algo} produced a non-witness")
    document = {
        "spec": "1",
        "command": "solve",
        "query": format_query(query),
        "label": classification.label.value,
        "timing_ms": round(elapsed_ms, 3),
        "report": report.to_json_dict(),
        "comparison": {
            "db_size": report.db_size,
            "result_count": report.result_count,
            "witness_size": report.witness_size,
            "witness_over_db": report.witness_size / report.db_size if report.db_size else None,
            "witness_over_results": (report.witness_size / report.result_count
                                     if report.result_count else None),
        },
        "witness": witness_to_json_dict(query, report.witness),
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_witness(query, report.witness, out)
        document["out_dir"] = str(out)
    _emit(document)
    return EXIT_OK


def _parse_sets(universe_size: int, text: str) -> SetCoverInstance:
    universe = tuple(f"u{i}" for i in range(1, universe_size + 1))
    subsets = []
    for chunk in text.split(";"):
        indices = []
        for piece in chunk.split(","):
            i = int(piece)
            if not 1 <= i <= universe_size:
                raise ValueError(f"set element {i} outside 1..{universe_size}")
            indices.append(i)
        subsets.append(tuple(f"u{i}" for i in sorted(set(indices))))
    return SetCoverInstance(universe, tuple(subsets))


def _parse_constraints(text: str) -> dict[tuple[int, int], frozenset[tuple[str, str]]]:
    constraints: dict[tuple[int, int], frozenset[tuple[str, str]]] = {}
    for chunk in text.split(";"):
        place, _, body = chunk.partition(":")
        u, v = (int(p) for p in place.split(","))
        pairs = set()
        for pair in body.split(","):
            x, _, y = pair.partition("/")
            if not x or not y:
                raise ValueError(f"malformed label pair {pair!r}")
            pairs.add((x, y))
        constraints[(u, v)] = frozenset(pairs)
    return constraints


def cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed_env = os.environ.get("WITNESS_LAB_SEED", "")
        try:
            seed = int(seed_env) if seed_env else 0
        except ValueError:
            raise ValueError(f"WITNESS_LAB_SEED is not an integer: {seed_env!r}") from None
    predict = not args.no_predict
    if args.family == "cover":
        instance = gen_cover_db(_parse_sets(args.universe, args.sets), predict)
    elif args.family == "matrix":
        instance = gen_matrix_db(args.n, args.k, predict)
    elif args.family == "pyramid":
        instance = gen_pyramid_db(_parse_sets(args.universe, args.sets), predict)
    elif args.family == "line3":
        if not args.constraints:
            raise ValueError("the line3 family needs --constraints")
        lc = LabelCoverInstance(args.n, tuple(args.alphabet.split(",")),
                                _parse_constraints(args.constraints))
        instance = gen_line3_db(lc, args.t, predict)
    else:
        if not args.query:
            raise ValueError("the random family needs --query")
        query = _read_query(args.query)
        instance = gen_random_db(query, args.rows, args.pool, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "query.txt").write_text(format_query(instance.query) + "\n", encoding="utf-8")
    write_database(instance.query, instance.database, out)
    document = {
        "spec": "1",
        "command": "generate",
        "family": args.family,
        "query": format_query(instance.query),
        "db_size": instance.database.size,
        "predicted_witness_size": instance.predicted_witness_size,
        "metadata": instance.metadata,
        "out_dir": str(out),
    }
    (out / "metadata.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    _emit(document)
    return EXIT_OK


def cmd_export_dsf(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    db = load_database(query, Path(args.data))
    document = dsf_to_json_dict(line_to_dsf(query, db))
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    _emit(document)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing does not modify the parser."""
    parser = argparse.ArgumentParser(prog="witness-lab",
                                     description="smallest witness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural class of a query")
    p.add_argument("query", help="file containing the query text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="compute a witness for an instance")
    p.add_argument("query")
    p.add_argument("data", help="directory of relation CSV files")
    p.add_argument("--algo", default="auto",
                   choices=["auto", "exact", "approx", "greedy", "baseline", "oracle"])
    p.add_argument("--out", help="directory for witness CSV files")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write a named instance family")
    p.add_argument("family", choices=["cover", "matrix", "pyramid", "line3", "random"])
    p.add_argument("--out", required=True)
    p.add_argument("--universe", type=int, default=3, help="cover/pyramid universe size")
    p.add_argument("--sets", default="1,2;2,3", help="cover/pyramid subsets, e.g. 1,2;2,3")
    p.add_argument("--n", type=int, default=2, help="matrix/line3 dimension")
    p.add_argument("--k", type=int, default=2, help="matrix block count")
    p.add_argument("--alphabet", default="x,y,z", help="line3 labels")
    p.add_argument("--constraints", default="", help="line3 pairs, e.g. 1,1:x/y;1,2:y/z")
    p.add_argument("--t", type=int, default=2, help="line3 slots per vertex")
    p.add_argument("--query", help="random family query file")
    p.add_argument("--rows", type=int, default=8, help="random rows per relation")
    p.add_argument("--pool", type=int, default=4, help="random values per attribute")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-predict", action="store_true",
                   help="skip the exponential predicted-size computation")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export-dsf", help="path query instance as Steiner forest JSON")
    p.add_argument("query")
    p.add_argument("data")
    p.add_argument("--out", help="also write the JSON to this file")
    p.set_defaults(func=cmd_export_dsf)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionViolated, NotALineQuery) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InstanceTooLarge, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (WitnessLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
