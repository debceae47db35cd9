"""CSV input and output, one file per relation.

A database directory holds `<RelationName>.csv` per body atom, RFC 4180
with a header row, in UTF-8 with or without a byte-order mark.  Columns
may come in any order; values are kept byte-for-byte.  Duplicate rows
collapse to one tuple.  Each record is permuted once from header order
to the schema's sorted-attribute order, and back to schema column order
on output.  Writing is deterministic: schema column order, rows sorted.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Callable
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from pathlib import Path

from .errors import HeaderMismatch, MalformedCsv, MissingRelationFile, RaggedRow
from .model import Database, Query, RelationSchema, projection

Tables = dict[str, list[tuple[str, ...]]]  # per relation, its rows in column order, sorted


def load_database(query: Query, directory: str | Path) -> Database:
    directory = Path(directory)
    instances: dict[str, frozenset[tuple[str, ...]]] = {}
    for schema in query.relations:
        path = directory / f"{schema.name}.csv"
        if not path.is_file():
            raise MissingRelationFile(schema.name, str(path))
        text = read_utf8(path, partial(MalformedCsv, schema.name))
        instances[schema.name] = _read_rows(schema, text)
    return Database(instances)


def read_utf8(path: Path, error: Callable[[int, str], Exception]) -> str:
    """A file's text, in UTF-8 with or without a byte-order mark.  The
    first byte that is not UTF-8 raises `error(line, reason)`, the line
    counted from 1 and the reason naming the byte."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the offsets count from after any byte-order mark, as does `exc.object`
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(line, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None


def _read_rows(schema: RelationSchema, text: str) -> frozenset[tuple[str, ...]]:
    """One relation's rows, read in bulk.  A ragged record or invalid CSV
    sends the text to `_raise_first_bad_record`, which names its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, ())
        if sorted(header) != sorted(schema.attributes):
            raise HeaderMismatch(schema.name, schema.attributes, header)
        records = list(filter(None, reader))  # a blank line reads as []
    except csv.Error:
        records = None
    if records is None or set(map(len, records)) - {len(header)}:
        _raise_first_bad_record(schema, text)
    return frozenset(map(projection(header, schema.sorted_attributes), records))


def _raise_first_bad_record(schema: RelationSchema, text: str) -> None:
    """Reads `text` record by record and raises for the first one that is
    ragged or not valid CSV, with the physical line the reader is on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        width = len(next(reader))
        for record in reader:
            if record and len(record) != width:
                raise RaggedRow(schema.name, reader.line_num)
    except csv.Error as exc:
        raise MalformedCsv(schema.name, reader.line_num, str(exc)) from None


def _tables(query: Query, instances: dict[str, frozenset[tuple[str, ...]]]) -> Tables:
    """Each relation's rows as they are written: in schema column order, sorted."""
    return {schema.name: sorted(map(projection(schema.sorted_attributes, schema.attributes),
                                    instances.get(schema.name, frozenset())))
            for schema in query.relations}


def _write_tables(query: Query, tables: Tables, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for schema in query.relations:
        path = directory / f"{schema.name}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema.attributes)
            writer.writerows(tables[schema.name])


def write_database(query: Query, db: Database, directory: str | Path) -> None:
    _write_tables(query, _tables(query, db.instances), directory)


def write_witness(query: Query, witness: Database, directory: str | Path) -> Tables:
    """Mirror the input layout with only the witness rows.  Returns the
    rows as written, which `witness_to_json_text` takes to skip its sort."""
    tables = _tables(query, witness.instances)
    _write_tables(query, tables, directory)
    return tables


def witness_to_json_text(query: Query, witness: Database, tables: Tables | None = None) -> str:
    """The witness as the `witness` value of a solve report, with the bytes
    `json.dumps(report, indent=2, sort_keys=True)` gives it one level into
    the report: per relation, in name order, its columns and its rows in
    column order, sorted.  Each column goes through `json`'s own ASCII
    escaper, and the rows are filled into one %-template per relation.
    `tables`, when given, is what `write_witness` returned for `witness`."""
    if tables is None:
        tables = _tables(query, witness.instances)
    relations = []
    for schema in sorted(query.relations, key=attrgetter("name")):
        template = "[\n          " + ",\n          ".join(["%s"] * len(schema.attributes)) \
            + "\n        ]"
        columns = zip(*tables[schema.name])
        rows = list(map(template.__mod__, zip(*[map(_escape, column) for column in columns])))
        relations.append(
            _escape(schema.name) + ': {\n      "columns": [\n        '
            + ",\n        ".join(map(_escape, schema.attributes)) + '\n      ],\n      "rows": '
            + ("[\n        " + ",\n        ".join(rows) + "\n      ]" if rows else "[]")
            + "\n    }")
    return "{\n    " + ",\n    ".join(relations) + "\n  }"
