"""Command line front end.

Four subcommands: classify a query, solve an instance (routing to the
strongest algorithm the query's class supports unless one is forced),
generate a named instance family into a directory, and export a path
query instance as a directed Steiner forest JSON document.

Exit codes: 0 success, 2 bad input, 3 precondition not met by the
requested operation, 4 resource limit hit.  Reports go to stdout as a
single JSON document; diagnostics go to stderr.

Every document, on stdout or in a file, has the bytes of
`json.dumps(document, indent=2, sort_keys=True)`.  With `indent` set,
`json` runs its pure-Python encoder, which is cheap on the small
documents (a classification, a solve report without its witness,
`generate`'s metadata) that go through it.  The two bulk arrays are
filled into templates instead: a solve report's witness, its last key,
by `storage.witness_to_json_text`, and the Steiner forest document by
`dsf.dsf_to_json_text`.  A document is encoded in full before any of it
is written.

`main` pauses CPython's cyclic garbage collector while a command runs
and restores the caller's setting on every exit: commands build acyclic
tuples, sets and dicts, so its passes (about 75 per round of the `scan`
benchmark) only scanned live objects.  The only cyclic garbage a command
leaves is the closures of `json`'s indenting encoder, 33 objects on
Python 3.11, which the next collection frees.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
from pathlib import Path

from .dsf import dsf_to_json_text, line_to_dsf
# Every route evaluates Q(D) itself; `evaluate` stays importable because the benchmark's
# traced run (bench/layers.py) wraps `cli.evaluate`, as it wraps `densest.evaluate`.
from .engine import evaluate, is_witness  # noqa: F401
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
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
)
from .storage import (
    load_database,
    read_utf8,
    witness_to_json_text,
    write_database,
    write_witness,
)
from .structure import Label, classification_to_json_dict, classify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _read_query(path: str):
    text = read_utf8(Path(path), lambda line, reason: ValueError(
        f"line {line} of query file {path!r}: {reason}"))
    # universal newlines, so a CRLF file reports an LF file's error offsets
    return parse_query(text.replace("\r\n", "\n").replace("\r", "\n"))


def _emit(text: str, copy: Path | None = None) -> None:
    """Write an encoded document, and a final newline, to `copy` (if
    given) and stdout."""
    text += "\n"
    if copy is not None:
        copy.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _out_dir(text: str) -> Path:
    """The `--out` directory, checked before any work is done: neither it
    nor any of its ancestors may be an existing file."""
    out = Path(text)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out: {str(path)!r} exists and is not a directory")
            break
    return out


def _out_file(text: str) -> Path:
    """The `--out` file, checked before any work is done: it may not be an
    existing directory, and its parent must be one."""
    out = Path(text)
    if out.is_dir():
        raise ValueError(f"--out: {text!r} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out: {str(out.parent)!r} is not an existing directory")
    return out


def _keep_inputs(text: str, inputs: dict[Path, str]) -> None:
    """Refuse an `--out` that names one of `inputs`, each given with what
    it is, so that writing the output never overwrites what was read."""
    out = Path(text)
    if out.exists():
        for path, what in inputs.items():
            if path.exists() and out.samefile(path):
                raise ValueError(f"--out: {text!r} is {what}")


def cmd_classify(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    document = classification_to_json_dict(classify(query))
    document["query"] = format_query(query)
    _emit(json.dumps(document, indent=2, sort_keys=True))
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
    out = _out_dir(args.out) if args.out else None
    if out is not None:
        _keep_inputs(args.out, {Path(args.data): "the data directory"})
        for name in ("query.txt", "metadata.json"):
            if (out / name).exists():
                raise ValueError(f"--out: {str(out / name)!r} exists; solve does not "
                                 "write into a data directory")
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
        report = brute_force_swp(query, db, budget=args.budget, cap=args.oracle_cap)
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
    }
    tables = None
    if out is not None:
        tables = write_witness(query, report.witness, out)
        document["out_dir"] = str(out)
    # "witness" sorts after every other key, so its text ends the document
    text = json.dumps(document, indent=2, sort_keys=True)
    witness_text = witness_to_json_text(query, report.witness, tables)
    _emit(text[:-2] + ',\n  "witness": ' + witness_text + "\n}")
    return EXIT_OK


def _parse_sets(universe_size: int, text: str) -> SetCoverInstance:
    universe = tuple(f"u{i}" for i in range(1, universe_size + 1))
    subsets = []
    for chunk in text.split(";"):
        try:
            indices = {int(piece) for piece in chunk.split(",")}
        except ValueError:
            raise ValueError(f"--sets: {chunk!r} is not a list of element numbers") from None
        for i in indices:
            if not 1 <= i <= universe_size:
                raise ValueError(f"--sets: set element {i} outside 1..{universe_size}")
        subsets.append(tuple(f"u{i}" for i in sorted(indices)))
    return SetCoverInstance(universe, tuple(subsets))


def _parse_constraints(text: str) -> dict[tuple[int, int], frozenset[tuple[str, str]]]:
    constraints: dict[tuple[int, int], frozenset[tuple[str, str]]] = {}
    for chunk in text.split(";"):
        place, _, body = chunk.partition(":")
        try:
            u, v = (int(p) for p in place.split(","))
        except ValueError:
            raise ValueError(f"--constraints: {chunk!r} lacks a vertex pair like '1,2:'") from None
        if (u, v) in constraints:
            raise ValueError(f"--constraints: vertex pair {u},{v} is given twice")
        pairs = set()
        for pair in body.split(","):
            x, _, y = pair.partition("/")
            if not x or not y:
                raise ValueError(f"--constraints: malformed label pair {pair!r} in {chunk!r}")
            pairs.add((x, y))
        constraints[(u, v)] = frozenset(pairs)
    return constraints


def cmd_generate(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
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
        instance = gen_random_db(query, args.rows, args.pool, args.seed)
    for schema in instance.query.relations:
        path = out / f"{schema.name}.csv"
        if path.exists():
            raise ValueError(f"--out: {str(path)!r} already exists; generate does not "
                             "overwrite relation CSV files")
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
    _emit(json.dumps(document, indent=2, sort_keys=True), out / "metadata.json")
    return EXIT_OK


def cmd_export_dsf(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    out = _out_file(args.out) if args.out else None
    if out is not None:
        inputs = {Path(args.data) / f"{r.name}.csv": f"the CSV file of relation {r.name!r}"
                  for r in query.relations}
        _keep_inputs(args.out, {Path(args.query): "the query file", **inputs})
    db = load_database(query, Path(args.data))
    _emit(dsf_to_json_text(line_to_dsf(query, db)), out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, with no usage
    block, and exits 2; subcommand parsers share the class."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing does not modify the parser."""
    parser = _Parser(prog="witness-lab", description="smallest witness toolkit")
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
    p.add_argument("--seed", type=int, default=0)
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
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
