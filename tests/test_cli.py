"""The command line front end, driven through main(argv)."""
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from witness_lab import cli, densest, dsf, engine, solvers
from witness_lab.cli import main
from witness_lab.engine import is_witness
from witness_lab.generators import gen_random_db
from witness_lab.model import Witness
from witness_lab.qparser import parse_query
from witness_lab.storage import load_database, write_database

from corpus import WORKED_OPTIMUM


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
    assert is_witness(query, db, Witness(loaded.instances, "reloaded"))


def test_solve_precondition_failure_exits_3(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, _, err = run(capsys, "solve", qpath, dpath, "--algo", "exact")
    assert code == 3
    assert "head-cluster" in err


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
        evaluated.append(d)
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
    if algo in ("greedy", "baseline"):
        # these routes read Q(D) off their one full join over the database
        assert joined == [db]
        assert len(evaluated) == 1
    else:
        assert len(evaluated) == 2
        assert evaluated[0] == db


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


def test_generate_random_seed_determinism(capsys, tmp_path, monkeypatch):
    qfile = tmp_path / "q.txt"
    qfile.write_text("Q(A) :- R1(A, B), R2(B)\n")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run(capsys, "generate", "random", "--out", str(a), "--query", str(qfile),
        "--seed", "7")
    run(capsys, "generate", "random", "--out", str(b), "--query", str(qfile),
        "--seed", "7")
    monkeypatch.setenv("WITNESS_LAB_SEED", "7")
    run(capsys, "generate", "random", "--out", str(c), "--query", str(qfile))
    assert (a / "R1.csv").read_bytes() == (b / "R1.csv").read_bytes()
    assert (a / "R1.csv").read_bytes() == (c / "R1.csv").read_bytes()


def test_generate_bad_seed_variable_names_it(capsys, tmp_path, monkeypatch):
    qfile = tmp_path / "q.txt"
    qfile.write_text("Q(A) :- R1(A, B), R2(B)\n")
    monkeypatch.setenv("WITNESS_LAB_SEED", "abc")
    code, _, err = run(capsys, "generate", "random", "--out", str(tmp_path / "x"),
                       "--query", str(qfile))
    assert code == 2
    assert err == "error: WITNESS_LAB_SEED is not an integer: 'abc'\n"


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


def test_solve_out_into_an_existing_directory(capsys, data_dir, tmp_path):
    qpath, dpath = worked_paths(data_dir)
    code, out, _ = run(capsys, "solve", qpath, dpath, "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["out_dir"] == str(tmp_path)


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
