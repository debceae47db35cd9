"""CSV loading and writing."""
import json

import pytest

from witness_lab.cli import main
from witness_lab.errors import HeaderMismatch, MissingRelationFile, RaggedRow, WitnessLabError
from witness_lab.model import Database
from witness_lab.qparser import parse_query
from witness_lab.storage import (
    load_database,
    witness_to_json_text,
    write_database,
    write_witness,
)

from corpus import WORKED_RESULTS, WORKED_TEXT, worked_example, naive_evaluate
from reference import load_database_per_record


def test_load_fixture_directory(data_dir):
    query = parse_query((data_dir / "worked" / "query.txt").read_text())
    db = load_database(query, data_dir / "worked")
    _, expected = worked_example()
    assert db == expected
    assert naive_evaluate(query, db) == WORKED_RESULTS


def test_write_then_load_round_trip(tmp_path):
    query, db = worked_example()
    write_database(query, db, tmp_path / "out")
    assert load_database(query, tmp_path / "out") == db


def test_written_files_are_deterministic(tmp_path):
    query, db = worked_example()
    write_database(query, db, tmp_path / "a")
    write_database(query, db, tmp_path / "b")
    for name in ("R1", "R2", "R3", "R4"):
        assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
            (tmp_path / "b" / f"{name}.csv").read_bytes()


def test_load_accepts_reordered_columns(tmp_path):
    query = parse_query("Q(A) :- R(A, B)")
    (tmp_path / "R.csv").write_text("B,A\nb1,a1\n")
    db = load_database(query, tmp_path)
    assert db.instances["R"] == frozenset({("a1", "b1")})


def test_load_skips_blank_lines_and_dedups(tmp_path):
    query = parse_query("Q(A) :- R(A)")
    (tmp_path / "R.csv").write_text("A\na1\n\na1\na2\n")
    assert len(load_database(query, tmp_path).instances["R"]) == 2


def test_load_missing_file(tmp_path):
    query = parse_query("Q(A) :- R(A)")
    with pytest.raises(MissingRelationFile):
        load_database(query, tmp_path)


def test_load_header_mismatch(tmp_path):
    query = parse_query("Q(A) :- R(A, B)")
    (tmp_path / "R.csv").write_text("A,C\na1,c1\n")
    with pytest.raises(HeaderMismatch):
        load_database(query, tmp_path)
    (tmp_path / "R.csv").write_text("")
    with pytest.raises(HeaderMismatch):
        load_database(query, tmp_path)


def test_load_ragged_row_reports_line(tmp_path):
    query = parse_query("Q(A) :- R(A, B)")
    # The second file's quoted field spans two physical lines.
    for text, line in (("A,B\na1,b1\na2\n", 3), ('A,B\n"a\n1",b1\na2\n', 4)):
        (tmp_path / "R.csv").write_text(text)
        with pytest.raises(RaggedRow) as err:
            load_database(query, tmp_path)
        assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("data, line", [
    (b"A,B\na1\na2,b2\n", 2),
    (b"A,B\na1,b1\n\n\na2\na3,b3\n", 5),
    (b"A,B\r\na1,b1\r\na2\r\na3,b3\r\n", 3),
], ids=["first-data-row", "after-blank-lines", "crlf"])
def test_load_ragged_row_line_after_bulk_read(tmp_path, data, line):
    """Records are read in bulk and their lengths checked only then; the
    error still names the physical line of the first ragged one.  CRLF is
    what `write_database` writes."""
    query = parse_query("Q(A) :- R(A, B)")
    (tmp_path / "R.csv").write_bytes(data)
    with pytest.raises(RaggedRow) as err:
        load_database(query, tmp_path)
    assert err.value.line == line


OVERSIZED = "a9," + "x" * 131073 + "\n"  # over the csv module's field size limit


@pytest.mark.parametrize("text", [
    "A,B\na1\n" + OVERSIZED,
    "A,B\na1,b1\n" + OVERSIZED + "a2\n",
    "A,C\na1\n" + OVERSIZED,
    "A," + "x" * 131073 + "\na1\n",
    'A,B\n"a\n1",b1\n\na2,b2,c2\n' + OVERSIZED,
], ids=["ragged-then-invalid", "invalid-then-ragged", "bad-header-then-invalid",
        "invalid-header", "quoted-newline-then-ragged"])
def test_load_errors_match_the_per_record_loader(tmp_path, text):
    """Whichever of a ragged record and invalid CSV comes first is the one
    reported, as when each record was checked as it was read."""
    query = parse_query("Q(A) :- R(A, B)")
    (tmp_path / "R.csv").write_text(text)
    with pytest.raises(WitnessLabError) as bulk:
        load_database(query, tmp_path)
    with pytest.raises(WitnessLabError) as per_record:
        load_database_per_record(query, tmp_path)
    assert (type(bulk.value), str(bulk.value)) == \
        (type(per_record.value), str(per_record.value))


GENERATE_FLAGS = {
    "cover": (),
    "matrix": ("--n", "3", "--k", "2"),
    "pyramid": (),
    "line3": ("--n", "1", "--alphabet", "x,y", "--constraints", "1,1:x/x,y/y", "--t", "2"),
    "random": ("--rows", "40", "--pool", "6", "--seed", "5"),
}


def test_bulk_load_matches_the_per_record_loader(capsys, data_dir, tmp_path):
    directories = sorted(path.parent for path in data_dir.glob("*/query.txt"))
    (tmp_path / "q.txt").write_text("Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)\n")
    for family, flags in GENERATE_FLAGS.items():
        extra = ("--query", str(tmp_path / "q.txt")) if family == "random" else ()
        assert main(["generate", family, "--out", str(tmp_path / family), *flags, *extra]) == 0
        directories.append(tmp_path / family)
    capsys.readouterr()
    for directory in directories:
        query = parse_query((directory / "query.txt").read_text())
        db = load_database(query, directory)
        assert db.size > 0
        assert db == load_database_per_record(query, directory)


def test_load_strips_utf8_byte_order_mark(tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark."""
    query = parse_query("Q(A) :- R(A, B)")
    (tmp_path / "R.csv").write_bytes(b"\xef\xbb\xbfB,A\r\nb1,a1\r\n")
    db = load_database(query, tmp_path)
    assert db.instances["R"] == frozenset({("a1", "b1")})


def test_write_witness_mirrors_layout(tmp_path):
    query = parse_query(WORKED_TEXT)
    witness = Database.of(query, {"R1": [("a1", "b1")]})
    write_witness(query, witness, tmp_path)
    assert (tmp_path / "R1.csv").read_text() == "A,B\na1,b1\n"
    assert (tmp_path / "R3.csv").read_text() == "C,F\n"


def test_witness_json_uses_schema_column_order():
    query = parse_query(WORKED_TEXT)
    witness = Database.of(query, {"R2": [("b1", "c1")]})
    doc = json.loads(witness_to_json_text(query, witness))
    assert doc["R2"] == {"columns": ["B", "C"], "rows": [["b1", "c1"]]}
    assert doc["R4"]["rows"] == []


def test_witness_json_from_written_rows_has_the_same_bytes(tmp_path):
    # columns listed out of name order, so the written rows are re-ordered
    query = parse_query("Q(A, C) :- R1(B, A), R2(C, B, D)")
    witness = Database.of(query, {"R1": [("a2", "b1"), ("a1", "b2"), ("a1", "b1")],
                                  "R2": [("b1", "c1", "d2"), ("b1", "c1", "d1")]})
    tables = write_witness(query, witness, tmp_path)
    assert (tmp_path / "R1.csv").read_text() == "B,A\nb1,a1\nb1,a2\nb2,a1\n"
    assert witness_to_json_text(query, witness, tables) == witness_to_json_text(query, witness)
