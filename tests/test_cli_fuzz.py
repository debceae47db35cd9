"""Malformed query text and CSV bytes reach the documented exit codes.

Random query files and relation CSVs go through `classify` and `solve`
under three algorithms; every run must end with exit 0, 2, 3 or 4, at
most one line on stderr and no traceback.  Bad flags are left out:
argparse answers them with a usage block before its error line.
"""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from witness_lab.cli import main

# Queries with the attributes of each relation, so that most CSVs drawn
# below fit and the solvers run.
QUERIES = {
    "Q(A) :- R1(A, B), R2(B)": {"R1": "AB", "R2": "B"},
    "Q(A, C) :- R1(A, B), R2(B, C)": {"R1": "AB", "R2": "BC"},
    "Q(A, C, F) :- R1(A, B), R2(B, C), R3(C, F), R4(C, H)":
        {"R1": "AB", "R2": "BC", "R3": "CF", "R4": "CH"},
    "Q() :- R1(A)": {"R1": "A"},
    "Q(A) :- R1(A, B).": {"R1": "AB"},
}

# Small pieces that CSV and query parsing treat specially.
awkward = st.sampled_from(["", ",", '"', '""', "\n", "\r", "\r\n", '"a\nb"', '"x,y"',
                           "\ufeff", "\x00", "é", " ", "(", ")", ":-", "."])
value = st.sampled_from(["a1", "a2", "b1", "b2", "c1"])
raw_bytes = st.sampled_from([b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\x80abc", b"\r"])


def sometimes(draw, chance=4):
    """True about once in `chance` draws; hypothesis leans to the first
    entry, so the fault-free case is listed first."""
    return draw(st.sampled_from([False] * (chance - 1) + [True]))


@st.composite
def encoded(draw, text):
    """`text` as bytes, with CRLF line ends, a byte-order mark or a
    stray non-UTF-8 byte sometimes."""
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if sometimes(draw, 10):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(raw_bytes) + data[at:]
    return data


def mutated(draw, text):
    """`text` cut short, with something inserted, or replaced outright."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return text[:draw(st.integers(0, len(text)))]
    at = draw(st.integers(0, len(text)))
    if kind == 1:
        return text[:at] + draw(awkward | st.text(max_size=4)) + text[at:]
    return draw(st.text(max_size=30))


@st.composite
def csv_text(draw, attributes):
    """A header of the relation's attributes in any order, then short
    rows; sometimes the header has a duplicate, a missing or a foreign
    name, a row is ragged or a field is awkward, or the file is empty."""
    if sometimes(draw, 20):
        return ""
    header = draw(st.permutations(attributes))
    if sometimes(draw, 10):
        header = draw(st.lists(st.sampled_from("ABCFH") | awkward, max_size=4))
    field = value | awkward if sometimes(draw, 5) else value
    width = st.just(len(header)) if not sometimes(draw, 10) else st.integers(0, 4)
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(field, min_size=n, max_size=n)),
                         max_size=8))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def inputs(draw):
    """The bytes of a query file and of each relation's CSV file; a
    relation's file is sometimes missing."""
    text, relations = draw(st.sampled_from(sorted(QUERIES.items())))
    query = text if not sometimes(draw) else mutated(draw, text)
    tables = {name: draw(encoded(draw(csv_text(attributes))))
              for name, attributes in relations.items() if not sometimes(draw, 20)}
    return draw(encoded(query)), tables


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs())
def test_malformed_input_exits_with_one_line(tmp_path, files):
    query, tables = files
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    (directory / "query.txt").write_bytes(query)
    for name, data in tables.items():
        (directory / f"{name}.csv").write_bytes(data)
    qpath = str(directory / "query.txt")
    runs = [["classify", qpath]] + [["solve", qpath, str(directory), "--algo", algo]
                                    for algo in ("auto", "oracle", "baseline")]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        assert code in {0, 2, 3, 4}, (argv, message)
        assert message.count("\n") <= 1 and "Traceback" not in message, (argv, message)
        assert (code == 0) == (message == ""), (argv, message)
