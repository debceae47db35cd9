"""The command line front end, driven through main(argv)."""
import json
import os
import pathlib
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
    evaluated = []
    original = engine.evaluate

    def counting(q, d):
        evaluated.append(d)
        return original(q, d)

    for module in (cli, densest, dsf, engine, solvers):
        monkeypatch.setattr(module, "evaluate", counting)
    code, out, _ = run(capsys, "solve", str(tmp_path / "query.txt"), str(tmp_path),
                       "--algo", algo)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == algo
    assert doc["report"]["result_count"] > 0
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
    saved = json.loads((out / "metadata.json").read_text())
    assert saved["db_size"] == doc["db_size"]


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
    doc = json.loads(stdout)
    assert doc["chain"] == ["A1", "A2", "A3", "A4"]
    assert json.loads(target.read_text()) == doc


def test_export_dsf_rejects_branching_query(capsys, data_dir):
    qpath, dpath = worked_paths(data_dir)
    code, _, err = run(capsys, "export-dsf", qpath, dpath)
    assert code == 3
    assert "error" in err


def test_module_entry_point_smoke(data_dir):
    qpath, _ = worked_paths(data_dir)
    # the child imports the same witness_lab as this process, installed or not
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "witness_lab", "classify", qpath],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "LogHard"
