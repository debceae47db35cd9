"""The command line front end, driven through main(argv)."""
import gc
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from witness_lab import cli, densest, dsf, engine, linprog, solvers
from witness_lab.cli import main
from witness_lab.engine import is_witness
from witness_lab.generators import gen_random_db
from witness_lab.model import Database
from witness_lab.qparser import format_query, parse_query
from witness_lab.storage import load_database, write_database
from witness_lab.structure import relation_components

from corpus import QUERY_CACHES, WORKED_OPTIMUM, random_db, random_single_nonoutput_query


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def worked_paths(data_dir):
    d = data_dir / "worked"
    return str(d / "query.txt"), str(d)


def test_classify_reports_label_and_certificate(capsys, data_dir):
    qpath, _ = worked_paths(data_dir)
    code, out, _ = run(capsys, "classify", qpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"] == "1"
    assert doc["label"] == "LogHard"
    assert doc["certificate"]["attributes"] == ["A", "B", "C"]
    assert doc["query"].startswith("Q(A, C, F)")


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_query_file_with_byte_order_mark(capsys, data_dir, tmp_path, command):
    qpath, dpath = worked_paths(data_dir)
    marked = tmp_path / "query.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(qpath).read_bytes())
    data = [dpath] if command == "solve" else []
    documents = []
    for path in (qpath, str(marked)):
        code, out, err = run(capsys, command, path, *data)
        assert (code, err) == (0, "")
        documents.append(json.loads(out))
        documents[-1].pop("timing_ms", None)
    assert documents[0] == documents[1]


def test_classify_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_classify_bad_syntax_is_input_error(capsys, tmp_path):
    bad = tmp_path / "q.txt"
    bad.write_text("Q(A :- R(A)")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "error" in err


def test_solve_auto_routes_hard_query_to_baseline(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, out, _ = run(capsys, "solve", qpath, dpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "baseline"
    assert doc["label"] == "LogHard"
    assert doc["comparison"]["witness_size"] == doc["report"]["witness_size"]
    assert doc["timing_ms"] >= 0
    assert set(doc["witness"]) == {"R1", "R2", "R3", "R4"}


def test_solve_oracle_finds_frozen_optimum(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, out, _ = run(capsys, "solve", qpath, dpath, "--algo", "oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["witness_size"] == WORKED_OPTIMUM
    assert doc["report"]["algorithm"] == "oracle"


def test_solve_writes_witness_directory(capsys, data_dir, tmp_path):
    qpath, dpath = worked_paths(data_dir)
    out_dir = tmp_path / "witness"
    code, out, _ = run(capsys, "solve", qpath, dpath, "--algo", "oracle",
                       "--out", str(out_dir))
    assert code == 0
    query = parse_query((data_dir / "worked" / "query.txt").read_text())
    db = load_database(query, data_dir / "worked")
    loaded = load_database(query, out_dir)
    assert loaded.size == WORKED_OPTIMUM
    assert is_witness(query, db, loaded)


@pytest.mark.parametrize("algo, text, requirement", [
    ("exact", "Q(A) :- R1(A, B), R2(B)", "query is not head-cluster"),
    ("approx", "Q(A, C) :- R1(A, B), R2(B, C)", "query is not head-dominated"),
    ("greedy", "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)",
     "query must have exactly one non-output attribute"),
], ids=["exact", "approx", "greedy"])
def test_solve_precondition_failure_exits_3(capsys, tmp_path, algo, text, requirement):
    query = parse_query(text)
    (tmp_path / "query.txt").write_text(text + "\n")
    write_database(query, gen_random_db(query, 6, 3, seed=1).database, tmp_path)
    code, out, err = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path),
                         "--algo", algo)
    assert (code, out) == (3, "")
    assert err == f"error: solver precondition not met: {requirement}\n"


@pytest.mark.parametrize("algo, message", [
    ("exact", "no full join result projects onto {'A': 'a1'}"),
    ("baseline", "no full join result projects onto {'A': 'a1'}"),
    ("greedy", "greedy produced a non-witness"),
], ids=["exact", "baseline", "greedy"])
def test_solve_internal_inconsistency_exits_1(capsys, tmp_path, monkeypatch, algo, message):
    """A full join that lost a result's rows is a bug, reported as one
    line with exit 1: the exact and baseline builders cross-check their
    joins with Q(D), and verification against the walk's Q(D) rejects
    greedy's witness."""
    text = "Q(A) :- R1(A, B), R2(A, B)"
    query = parse_query(text)
    (tmp_path / "query.txt").write_text(text + "\n")
    write_database(query, Database.build(query, {"R1": [{"A": "a1", "B": "b1"}],
                                                 "R2": [{"A": "a1", "B": "b1"}]}), tmp_path)
    monkeypatch.setattr(solvers, "full_join_results", lambda query, db: [])
    code, out, err = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path),
                         "--algo", algo)
    assert (code, out) == (1, "")
    assert err == f"internal error: {message}\n"


def test_solve_oracle_cap_exits_4(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, _, err = run(capsys, "solve", qpath, dpath, "--algo", "oracle",
                       "--oracle-cap", "5")
    assert code == 4
    assert "error" in err


def test_solve_oracle_budget_exits_4(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, _, _ = run(capsys, "solve", qpath, dpath, "--algo", "oracle",
                     "--budget", "0")
    assert code == 4


def frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_oracle_search_exits_4_not_recursion_error(capsys, tmp_path):
    """The oracle's depth-first search dives past 100 nodes deep on this
    cover instance within 300 nodes.  A search that recursed once per
    node would overflow the lowered limit; the explicit stack runs out
    of budget instead."""
    rng = random.Random(1)
    (tmp_path / "query.txt").write_text("Q(A) :- R1(A, B), R2(B)\n")
    (tmp_path / "R1.csv").write_text("A,B\n" + "".join(
        f"a{i:03d},b{j:02d}\n" for i in range(120) for j in rng.sample(range(41), 2)))
    (tmp_path / "R2.csv").write_text("B\n" + "".join(f"b{j:02d}\n" for j in range(41)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 80)
    try:
        code, out, err = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path),
                             "--algo", "oracle", "--oracle-cap", "1000", "--budget", "300")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (4, "")
    assert err == "error: no witness within the search-node budget 300\n"


@pytest.mark.parametrize("flag, value, wording", [
    ("--budget", "-1", "search-node budget must be nonnegative, got -1"),
    ("--oracle-cap", "-3", "exhaustive-search cap must be nonnegative, got -3"),
])
def test_solve_oracle_negative_limit_is_input_error(capsys, data_dir, flag, value, wording):
    qpath, dpath = worked_paths(data_dir)
    code, out, err = run(capsys, "solve", qpath, dpath, "--algo", "oracle", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {wording}\n"


def test_solve_oversized_csv_field_is_input_error(capsys, tmp_path):
    (tmp_path / "query.txt").write_text("Q(A) :- R(A, B)\n")
    (tmp_path / "R.csv").write_text("A,B\na1,b1\na2," + "x" * 131073 + "\n")
    code, out, err = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3 of 'R' is not valid CSV")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_solve_non_utf8_csv_is_input_error(capsys, tmp_path):
    (tmp_path / "query.txt").write_text("Q(A) :- R1(A, B)\n")
    # The bad byte sits on line 3, inside the reader's first decoded chunk.
    (tmp_path / "R1.csv").write_bytes(b"A,B\na0,b0\na\xff1,b1\n")
    code, out, err = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: line 3 of 'R1' is not valid CSV: byte 0xff is not UTF-8\n"


def test_non_utf8_query_file_names_file_line_and_byte(capsys, tmp_path):
    qfile = tmp_path / "q.txt"
    qfile.write_bytes(b"Q(A) :-\r\n  R1(A\xff, B)\n")
    code, out, err = run(capsys, "classify", str(qfile))
    assert code == 2
    assert out == ""
    assert err == f"error: line 2 of query file {str(qfile)!r}: byte 0xff is not UTF-8\n"


def test_non_utf8_byte_after_a_byte_order_mark_names_its_line(capsys, tmp_path):
    """The query file and the relation CSVs share one decoder, which
    counts lines and reads the byte past any byte-order mark."""
    qfile = tmp_path / "query.txt"
    qfile.write_bytes(b"\xef\xbb\xbfQ(A) :-\n  R1(A\xfe, B)\n")
    code, out, err = run(capsys, "classify", str(qfile))
    assert (code, out) == (2, "")
    assert err == f"error: line 2 of query file {str(qfile)!r}: byte 0xfe is not UTF-8\n"
    qfile.write_text("Q(A) :- R1(A, B)\n")
    (tmp_path / "R1.csv").write_bytes(b"\xef\xbb\xbfA,B\na\xfe,b\n")
    code, out, err = run(capsys, "solve", str(qfile), str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: line 2 of 'R1' is not valid CSV: byte 0xfe is not UTF-8\n"


def test_query_file_line_endings_do_not_move_error_offsets(capsys, tmp_path):
    """Query files are read with universal newlines: a CR or CRLF file
    reports the offsets its LF twin does."""
    errors = []
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        qfile = tmp_path / f"{name}.txt"
        qfile.write_bytes(b"Q(A) :-" + newline + b"  R1(A, B) R2(B)" + newline)
        code, _, err = run(capsys, "classify", str(qfile))
        assert code == 2
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]
    assert "(at offset 21)" in errors[0]


@pytest.mark.parametrize("algo, text", [
    ("exact", "Q(A, C) :- R1(A, B), R2(A, B), R3(C, D)"),
    ("approx", "Q(A) :- R1(A, B), R2(B)"),
    ("greedy", "Q(A, C) :- R1(A, B), R2(B, C)"),
    ("baseline", "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)"),
    ("oracle", "Q(A, C) :- R1(A, B), R2(B, C)"),
])
def test_solve_evaluates_once_over_db_and_once_over_witness(capsys, tmp_path, monkeypatch,
                                                            algo, text):
    query = parse_query(text)
    db = gen_random_db(query, 12, 4, seed=3).database
    write_database(query, db, tmp_path)
    (tmp_path / "query.txt").write_text(text + "\n")
    evaluated, joined = [], []
    original, original_join = engine.evaluate, engine.full_join_results

    def counting(q, d):
        evaluated.append((q, d))
        return original(q, d)

    def counting_joins(q, d):
        joined.append(d)
        return original_join(q, d)

    for module in (cli, densest, dsf, engine, solvers):
        monkeypatch.setattr(module, "evaluate", counting)
    monkeypatch.setattr(solvers, "full_join_results", counting_joins)
    code, out, _ = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path),
                       "--algo", algo)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == algo
    assert doc["report"]["result_count"] > 0
    # no route evaluates a query whose atoms fall into two relation components
    assert all(len(relation_components(q)) == 1 for q, _ in evaluated)
    # every route evaluates each piece of Q(D) once over the database,
    # and verification each piece once over the witness
    pieces = len(relation_components(query))
    assert pieces == (2 if algo == "exact" else 1)
    over_db, over_witness = evaluated[:pieces], evaluated[pieces:]
    assert [d for _, d in over_db] == [db] * pieces
    assert [q for q, _ in over_witness] == [q for q, _ in over_db]
    assert db not in [d for _, d in over_witness]
    if algo in ("greedy", "baseline"):  # its one component is the whole query, joined once
        assert joined == [db]


TIMING = re.compile(r'^ *"timing_ms": .*\n', re.MULTILINE)


def solve_text(capsys, query_path, data, *argv):
    code, out, err = run(capsys, "solve", str(query_path), str(data), *argv)
    assert (code, err) == (0, "")
    return TIMING.sub("", out)


def solve_cold(capsys, query_path, data, *argv):
    """`solve` with every per-query cache emptied first."""
    for cached in QUERY_CACHES:
        cached.cache_clear()
    return solve_text(capsys, query_path, data, *argv)


@pytest.mark.parametrize("algo, text", [
    ("exact", "Q(A, C) :- R1(A, B), R2(A, B), R3(C, D)"),
    ("approx", "Q(A) :- R1(A, B), R2(B)"),
    ("greedy", "Q(A, C) :- R1(A, B), R2(B, C)"),
    ("baseline", "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)"),
])
def test_second_solve_of_a_query_reuses_its_analysis(capsys, tmp_path, monkeypatch, algo, text):
    query = parse_query(text)
    (tmp_path / "query.txt").write_text(text + "\n")
    dirs = [tmp_path / "db3", tmp_path / "db4"]
    for seed, d in zip((3, 4), dirs):
        write_database(query, gen_random_db(query, 12, 4, seed=seed).database, d)
    cold = [solve_cold(capsys, tmp_path / "query.txt", d) for d in dirs]
    assert cold[0] != cold[1]
    assert json.loads(cold[0])["report"]["algorithm"] == algo

    pivots = []
    real_pivot = linprog._pivot

    def counting(*args):
        pivots.append(args)
        real_pivot(*args)

    monkeypatch.setattr(linprog, "_pivot", counting)
    assert solve_cold(capsys, tmp_path / "query.txt", dirs[0]) == cold[0]
    assert bool(pivots) == (algo == "baseline")  # only the baseline reports rho*
    misses = [cached.cache_info().misses for cached in QUERY_CACHES]
    pivots.clear()
    assert solve_text(capsys, tmp_path / "query.txt", dirs[1]) == cold[1]
    assert [cached.cache_info().misses for cached in QUERY_CACHES] == misses
    assert pivots == []


def test_query_caches_key_on_head_order_atom_order_and_column_order(capsys, tmp_path):
    texts = {
        "Q(A, C) :- R1(A, B), R2(B, C)": ("A", "B"),
        "Q(C, A) :- R1(A, B), R2(B, C)": ("A", "B"),
        "Q(A, C) :- R2(B, C), R1(A, B)": ("A", "B"),
        "Q(A, C) :- R1(B, A), R2(B, C)": ("B", "A"),
    }
    query = parse_query(next(iter(texts)))
    write_database(query, gen_random_db(query, 12, 4, seed=5).database, tmp_path)
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"query{i}.txt")
        paths[-1].write_text(text + "\n")
    solve_cold(capsys, paths[0], tmp_path, "--algo", "baseline")
    one = [cached.cache_info().currsize for cached in QUERY_CACHES]
    assert all(one)
    for cached in QUERY_CACHES:
        cached.cache_clear()
    warm = [solve_text(capsys, path, tmp_path, "--algo", "baseline") for path in paths]
    # no two of the texts share an entry in any cache
    assert [cached.cache_info().currsize for cached in QUERY_CACHES] == [4 * n for n in one]
    for path, (text, r1_columns), out in zip(paths, texts.items(), warm):
        doc = json.loads(out)
        assert doc["query"] == text
        assert tuple(doc["witness"]["R1"]["columns"]) == r1_columns
        assert out == solve_cold(capsys, path, tmp_path, "--algo", "baseline")


def test_generate_cover_writes_standard_layout(capsys, tmp_path):
    out = tmp_path / "inst"
    code, stdout, _ = run(capsys, "generate", "cover", "--out", str(out),
                          "--universe", "3", "--sets", "1,2;3;1,2,3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["predicted_witness_size"] == 3 + 1
    assert doc["metadata"]["min_cover"] == 1
    for name in ("query.txt", "R1.csv", "R2.csv", "metadata.json"):
        assert (out / name).is_file()
    assert (out / "metadata.json").read_text(encoding="utf-8") == stdout


def test_generate_then_solve_auto_uses_greedy(capsys, tmp_path):
    out = tmp_path / "matrix"
    code, _, _ = run(capsys, "generate", "matrix", "--out", str(out),
                     "--n", "3", "--k", "2")
    assert code == 0
    code, stdout, _ = run(capsys, "solve", str(out / "query.txt"), str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["report"]["algorithm"] == "greedy"
    assert doc["report"]["witness_size"] == 3 * 3  # greedy meets the optimum here


def test_generate_matrix_validates_dimensions(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "matrix", "--out", str(tmp_path / "x"),
                       "--n", "2", "--k", "3")
    assert code == 2
    assert "error" in err


def test_generate_cover_validates_set_elements(capsys, tmp_path):
    code, _, _ = run(capsys, "generate", "cover", "--out", str(tmp_path / "x"),
                     "--universe", "3", "--sets", "1,5")
    assert code == 2


@pytest.mark.parametrize("sets", ["", "1,,2", "1;x"])
def test_generate_cover_bad_sets_names_the_flag(capsys, tmp_path, sets):
    code, out, err = run(capsys, "generate", "cover", "--out", str(tmp_path / "x"),
                         "--universe", "3", "--sets", sets)
    assert code == 2
    assert out == ""
    chunk = sets.split(";")[-1]
    assert err == f"error: --sets: {chunk!r} is not a list of element numbers\n"


def test_generate_line3_bad_constraints_names_the_flag(capsys, tmp_path):
    code, out, err = run(capsys, "generate", "line3", "--out", str(tmp_path / "x"),
                         "--n", "1", "--alphabet", "x,y", "--constraints", "1:x/y")
    assert code == 2
    assert out == ""
    assert err == "error: --constraints: '1:x/y' lacks a vertex pair like '1,2:'\n"


def test_generate_line3_rejects_vertex_outside_range(capsys, tmp_path):
    every_pair = ";".join(f"{u},{v}:x/y" for u in (1, 2) for v in (1, 2))
    code, out, err = run(capsys, "generate", "line3", "--out", str(tmp_path / "x"),
                         "--n", "2", "--alphabet", "x,y,z",
                         "--constraints", every_pair + ";5,9:x/y")
    assert code == 2
    assert out == ""
    assert err == "error: constraint (5,9) names a vertex outside 1..2\n"
    assert not (tmp_path / "x").exists()


def test_generate_line3_repeated_vertex_pair_names_the_flag(capsys, tmp_path):
    code, out, err = run(capsys, "generate", "line3", "--out", str(tmp_path / "x"),
                         "--n", "1", "--alphabet", "x,y", "--constraints", "1,1:x/y;1,1:y/y")
    assert code == 2
    assert out == ""
    assert err == "error: --constraints: vertex pair 1,1 is given twice\n"


def test_generate_random_needs_query(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "random", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "--query" in err


def test_generate_random_seed_determinism(capsys, tmp_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("Q(A) :- R1(A, B), R2(B)\n")
    a, b, c, d = tmp_path / "a", tmp_path / "b", tmp_path / "c", tmp_path / "d"
    run(capsys, "generate", "random", "--out", str(a), "--query", str(qfile),
        "--seed", "7")
    run(capsys, "generate", "random", "--out", str(b), "--query", str(qfile),
        "--seed", "7")
    run(capsys, "generate", "random", "--out", str(c), "--query", str(qfile))
    run(capsys, "generate", "random", "--out", str(d), "--query", str(qfile),
        "--seed", "0")
    assert (a / "R1.csv").read_bytes() == (b / "R1.csv").read_bytes()
    # no --seed gives the bytes of --seed 0
    assert (c / "R1.csv").read_bytes() == (d / "R1.csv").read_bytes()


def test_generate_line3_needs_constraints(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "line3", "--out", str(tmp_path / "x"))
    assert code == 2
    assert err == "error: the line3 family needs --constraints\n"


def test_generate_line3_from_constraint_string(capsys, tmp_path):
    out = tmp_path / "lc"
    code, stdout, _ = run(capsys, "generate", "line3", "--out", str(out),
                          "--n", "1", "--alphabet", "x,y",
                          "--constraints", "1,1:x/x,y/y", "--t", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["metadata"]["min_label_cost"] == 2
    assert doc["predicted_witness_size"] == 2 * 2 + 1
    assert (out / "R2.csv").is_file()


def test_export_dsf_emits_layered_graph(capsys, tmp_path):
    out = tmp_path / "lc"
    run(capsys, "generate", "line3", "--out", str(out), "--n", "1",
        "--alphabet", "x,y", "--constraints", "1,1:x/x", "--t", "1")
    target = tmp_path / "dsf.json"
    code, stdout, _ = run(capsys, "export-dsf", str(out / "query.txt"), str(out),
                          "--out", str(target))
    assert code == 0
    assert json.loads(stdout)["chain"] == ["A1", "A2", "A3", "A4"]
    assert target.read_text(encoding="utf-8") == stdout


def test_solve_out_on_an_existing_file_names_the_flag_before_loading(capsys, data_dir,
                                                                     tmp_path, monkeypatch):
    qpath, dpath = worked_paths(data_dir)
    blocker = tmp_path / "R1.csv"
    blocker.write_text("A,B\n")

    def no_load(*_):
        raise AssertionError("data loaded before --out was checked")

    monkeypatch.setattr(cli, "load_database", no_load)
    for target in (blocker, blocker / "sub"):
        code, out, err = run(capsys, "solve", qpath, dpath, "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: --out: {str(blocker)!r} exists and is not a directory\n"
    assert blocker.read_text() == "A,B\n"


def test_generate_out_on_an_existing_file_names_the_flag(capsys, tmp_path):
    blocker = tmp_path / "inst"
    blocker.write_text("")
    code, out, err = run(capsys, "generate", "matrix", "--out", str(blocker))
    assert (code, out) == (2, "")
    assert err == f"error: --out: {str(blocker)!r} exists and is not a directory\n"


def test_generate_out_never_overwrites_relation_csvs(capsys, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "query.txt").write_text("Q(A) :- R1(A, B), R2(B)\n")
    (data / "R1.csv").write_text("A,B\nkeep,me\n")
    before = file_bytes(data)
    code, out, err = run(capsys, "generate", "random", "--query", str(data / "query.txt"),
                         "--out", str(data))
    assert (code, out) == (2, "")
    assert err == (f"error: --out: {str(data / 'R1.csv')!r} already exists; generate does not "
                   "overwrite relation CSV files\n")
    assert file_bytes(data) == before
    # a directory holding only the query file is still a valid target
    (data / "R1.csv").unlink()
    code, _, _ = run(capsys, "generate", "random", "--query", str(data / "query.txt"),
                     "--out", str(data))
    assert code == 0
    assert sorted(file_bytes(data)) == ["R1.csv", "R2.csv", "metadata.json", "query.txt"]


def test_export_dsf_bad_out_names_the_flag_before_loading(capsys, tmp_path, monkeypatch):
    out = tmp_path / "lc"
    run(capsys, "generate", "line3", "--out", str(out), "--n", "1",
        "--alphabet", "x,y", "--constraints", "1,1:x/x", "--t", "1")

    def no_load(*_):
        raise AssertionError("data loaded before --out was checked")

    monkeypatch.setattr(cli, "load_database", no_load)
    missing = tmp_path / "nodir"
    for target, wording in ((out, f"{str(out)!r} is a directory"),
                            (missing / "x.json",
                             f"{str(missing)!r} is not an existing directory")):
        code, stdout, err = run(capsys, "export-dsf", str(out / "query.txt"), str(out),
                                "--out", str(target))
        assert (code, stdout) == (2, "")
        assert err == f"error: --out: {wording}\n"
    assert not missing.exists()


def file_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_solve_out_on_the_data_directory_is_refused_before_loading(capsys, data_dir,
                                                                   tmp_path, monkeypatch):
    _, dpath = worked_paths(data_dir)
    data = tmp_path / "data"
    data.mkdir()
    for name, content in file_bytes(pathlib.Path(dpath)).items():
        (data / name).write_bytes(content)
    (tmp_path / "link").symlink_to(data)
    before = file_bytes(data)

    def no_load(*_):
        raise AssertionError("data loaded before --out was checked")

    monkeypatch.setattr(cli, "load_database", no_load)
    for target in (data, data / ".", tmp_path / "link", data / ".." / "data"):
        code, out, err = run(capsys, "solve", str(data / "query.txt"), str(data),
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: --out: {str(target)!r} is the data directory\n"
        assert file_bytes(data) == before


def test_export_dsf_out_on_an_input_file_is_refused_before_loading(capsys, tmp_path,
                                                                   monkeypatch):
    data = tmp_path / "lc"
    run(capsys, "generate", "line3", "--out", str(data), "--n", "1",
        "--alphabet", "x,y", "--constraints", "1,1:x/x", "--t", "1")
    capsys.readouterr()
    before = file_bytes(data)

    def no_load(*_):
        raise AssertionError("data loaded before --out was checked")

    monkeypatch.setattr(cli, "load_database", no_load)
    (tmp_path / "link.txt").symlink_to(data / "query.txt")
    targets = [(data / "query.txt", "the query file"),
               (data / ".." / "lc" / "query.txt", "the query file"),
               (tmp_path / "link.txt", "the query file")]
    targets += [(data / f"R{i}.csv", f"the CSV file of relation 'R{i}'") for i in (1, 2, 3)]
    for target, wording in targets:
        code, out, err = run(capsys, "export-dsf", str(data / "query.txt"), str(data),
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: --out: {str(target)!r} is {wording}\n"
        assert file_bytes(data) == before


def test_solve_out_into_another_data_directory_is_refused_before_loading(capsys, tmp_path,
                                                                       monkeypatch):
    """A directory holding a query.txt or a metadata.json is an instance
    (generated or hand-made), and solve --out must not replace its CSVs."""
    query = tmp_path / "q.txt"
    query.write_text("Q(A) :- R1(A, B), R2(B)\n")
    for name, seed in (("a", "1"), ("b", "2")):
        code, _, _ = run(capsys, "generate", "random", "--query", str(query), "--rows", "6",
                         "--pool", "3", "--seed", seed, "--out", str(tmp_path / name))
        assert code == 0
    data, target = tmp_path / "a", tmp_path / "b"
    only_query = tmp_path / "c"
    only_query.mkdir()
    (only_query / "query.txt").write_text("Q(A) :- R1(A, B), R2(B)\n")
    (target / "query.txt").unlink()  # metadata.json alone is refused too
    before = {d: file_bytes(d) for d in (data, target, only_query)}

    def no_load(*_):
        raise AssertionError("data loaded before --out was checked")

    monkeypatch.setattr(cli, "load_database", no_load)
    for out_dir, name in ((target, "metadata.json"), (only_query, "query.txt")):
        code, out, err = run(capsys, "solve", str(data / "query.txt"), str(data),
                             "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err == (f"error: --out: {str(out_dir / name)!r} exists; solve does not "
                       "write into a data directory\n")
    assert {d: file_bytes(d) for d in (data, target, only_query)} == before


def test_solve_out_into_an_existing_directory(capsys, data_dir, tmp_path):
    qpath, dpath = worked_paths(data_dir)
    code, out, _ = run(capsys, "solve", qpath, dpath, "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["out_dir"] == str(tmp_path)
    # solve --out writes CSVs only, so re-solving into its directory works
    written = file_bytes(tmp_path)
    code, again, _ = run(capsys, "solve", qpath, dpath, "--out", str(tmp_path))
    assert code == 0
    assert json.loads(again)["witness"] == json.loads(out)["witness"]
    assert file_bytes(tmp_path) == written


def test_export_dsf_rejects_branching_query(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, _, err = run(capsys, "export-dsf", qpath, dpath)
    assert code == 3
    assert "error" in err


def run_child(argv, **env):
    """`python -m witness_lab argv` in a fresh interpreter that imports the
    same witness_lab as this process, installed or not."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "witness_lab", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


def test_module_entry_point_smoke(data_dir):
    qpath, _ = worked_paths(data_dir)
    proc = run_child(["classify", qpath])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "LogHard"


STDLIB_ONLY_CHILD = """
import contextlib, io, json, sys
started = set(sys.modules)  # whatever site start-up imported, before witness_lab
src, qpath, dpath = sys.argv[1:]
sys.path.insert(0, src)
from witness_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["classify", qpath]), cli.main(["solve", qpath, dpath])]
imported = {name.partition(".")[0] for name in set(sys.modules) - started}
print(json.dumps([codes, sorted(imported - set(sys.stdlib_module_names))]))
"""


def test_classify_and_solve_import_only_the_standard_library(data_dir):
    """Run in isolated mode (`-I`: no PYTHONPATH, no user site-packages), so
    nothing reaches witness_lab but its own imports."""
    qpath, dpath = worked_paths(data_dir)
    src = str(pathlib.Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", STDLIB_ONLY_CHILD, src, qpath, dpath],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], ["witness_lab"]]


def test_greedy_output_independent_of_hash_seed(tmp_path):
    """The same input gives the same bytes, whatever order string hashing
    gives the sets and dicts inside pricing."""
    text = "Q(A, C) :- R1(A, B), R2(B, C)"
    query = parse_query(text)
    write_database(query, gen_random_db(query, 120, 12, 3).database, tmp_path)
    (tmp_path / "query.txt").write_text(text + "\n")
    argv = ["solve", str(tmp_path / "query.txt"), str(tmp_path), "--algo", "greedy"]
    outputs = []
    for hash_seed in ("0", "4242"):
        proc = run_child(argv, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(re.sub(r'^ *"timing_ms": .*\n', "", proc.stdout, flags=re.MULTILINE))
    assert json.loads(outputs[0])["report"]["algorithm"] == "greedy"
    assert outputs[0] == outputs[1]


GREEDY_CHILD = """
import contextlib, io, json, re, sys
sys.path.insert(0, sys.argv[1])
from witness_lab import cli
outputs = []
for directory in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", directory + "/query.txt", directory, "--algo", "greedy"])
    outputs.append([code, re.sub(r'^ *"timing_ms": .*\\n', "", out.getvalue(), flags=re.M)])
print(json.dumps(outputs))
"""


def test_greedy_witnesses_independent_of_hash_seed(tmp_path):
    """50 random single-non-output instances, each solved with `--algo
    greedy` in one child process per fixed string-hash seed: the demand
    keys within a group follow the unordered full join, whose order the
    seed sets, and the output bytes must not depend on it."""
    rng = random.Random(601)
    directories = []
    for i in range(50):
        query = random_single_nonoutput_query(rng)
        directory = tmp_path / f"i{i}"
        write_database(query, random_db(query, rng, max_rows=8, domain=3), directory)
        (directory / "query.txt").write_text(format_query(query) + "\n")
        directories.append(str(directory))
    src = str(pathlib.Path(cli.__file__).parents[1])
    outputs = []
    for hash_seed in ("0", "12345"):
        proc = subprocess.run([sys.executable, "-c", GREEDY_CHILD, src, *directories],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert all(code == 0 and '"timing_ms"' not in text for code, text in outputs[0])
    assert sum(json.loads(text)["comparison"]["witness_size"] > 0 for _, text in outputs[0]) >= 35
    assert outputs[0] == outputs[1]


@pytest.fixture
def collector():
    """Puts the cyclic garbage collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(capsys, data_dir, tmp_path, monkeypatch,
                                                   collector, enabled):
    qpath, dpath = worked_paths(data_dir)
    text = "Q(A) :- R1(A, B), R2(A, B)"
    query = parse_query(text)
    (tmp_path / "query.txt").write_text(text + "\n")
    write_database(query, Database.build(query, {"R1": [{"A": "a1", "B": "b1"}],
                                                 "R2": [{"A": "a1", "B": "b1"}]}), tmp_path)
    cases = [
        (0, ["classify", qpath]),
        (2, ["classify", str(tmp_path / "missing.txt")]),
        (2, ["solve", qpath, dpath, "--algo", "fastest"]),
        (3, ["solve", qpath, dpath, "--algo", "exact"]),
        (4, ["solve", qpath, dpath, "--algo", "oracle", "--oracle-cap", "5"]),
        (1, ["solve", str(tmp_path / "query.txt"), str(tmp_path)]),
    ]
    for code, argv in cases:
        if code == 1:  # a full join that lost a result's rows
            monkeypatch.setattr(solvers, "full_join_results", lambda query, db: [])
        (gc.enable if enabled else gc.disable)()
        assert exit_code(argv) == code
        assert gc.isenabled() is enabled, argv


def test_main_pauses_the_collector_while_a_command_runs(capsys, data_dir, monkeypatch,
                                                         collector):
    qpath, dpath = worked_paths(data_dir)
    seen = []

    def recording(query, db):
        seen.append(gc.isenabled())
        return solvers.solve_baseline_union(query, db)

    monkeypatch.setattr(cli, "solve_baseline_union", recording)
    gc.enable()
    assert main(["solve", qpath, dpath, "--algo", "baseline"]) == 0
    assert (seen, gc.isenabled()) == ([False], True)


def test_solve_leaves_no_per_row_cycles(capsys, tmp_path, collector):
    """With the collector paused, a command that built a reference cycle
    per row would pile them up.  A `scan`-sized triangle solve with --out
    leaves only the few closures of `json`'s indenting encoder."""
    text = "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)"
    query = parse_query(text)
    db = gen_random_db(query, 400, 29, seed=1).database
    write_database(query, db, tmp_path / "data")
    (tmp_path / "query.txt").write_text(text + "\n")
    argv = ["solve", str(tmp_path / "query.txt"), str(tmp_path / "data"),
            "--out", str(tmp_path / "out")]
    cli.build_parser()  # built once per process, leaving argparse's own cycles
    gc.collect()
    gc.disable()  # so that nothing is collected between the command and the count
    assert main(argv) == 0
    assert gc.collect() <= 60
