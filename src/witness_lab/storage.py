"""CSV input and output, one file per relation.

A database directory holds `<RelationName>.csv` per body atom, RFC 4180
with a header row.  Columns may come in any order; values are kept
byte-for-byte.  Duplicate rows collapse to one tuple.  Writing is
deterministic: schema column order, rows sorted.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping

from .errors import HeaderMismatch, MalformedCsv, MissingRelationFile, RaggedRow
from .model import Database, Query, RelationSchema, Row, Witness


def load_database(query: Query, directory: str | Path) -> Database:
    directory = Path(directory)
    instances: dict[str, frozenset[Row]] = {}
    for schema in query.relations:
        path = directory / f"{schema.name}.csv"
        if not path.is_file():
            raise MissingRelationFile(schema.name, str(path))
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                instances[schema.name] = _read_rows(schema, reader)
            except csv.Error as exc:
                raise MalformedCsv(schema.name, reader.line_num, str(exc)) from None
    return Database(instances)


def _read_rows(schema: RelationSchema, reader) -> frozenset[Row]:
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatch(schema.name, schema.attributes, ()) from None
    if sorted(header) != sorted(schema.attributes):
        raise HeaderMismatch(schema.name, schema.attributes, header)
    rows = set()
    for line_no, record in enumerate(reader, start=2):
        if not record:
            continue  # blank line
        if len(record) != len(header):
            raise RaggedRow(schema.name, line_no)
        rows.add(Row.make(zip(header, record)))
    return frozenset(rows)


def _write_relation(path: Path, attributes: tuple[str, ...], rows: frozenset[Row]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(attributes)
        for record in sorted(tuple(row[a] for a in attributes) for row in rows):
            writer.writerow(record)


def write_database(query: Query, db: Database, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for schema in query.relations:
        _write_relation(directory / f"{schema.name}.csv", schema.attributes,
                        db.instances.get(schema.name, frozenset()))


def write_witness(query: Query, witness: Witness, directory: str | Path) -> None:
    """Mirror the input layout with only the witness rows."""
    write_database(query, witness.as_database(), directory)


def witness_to_json_dict(query: Query, witness: Witness) -> Mapping[str, object]:
    """Witness tuples as plain lists, per relation, in schema column order."""
    out: dict[str, object] = {}
    for schema in query.relations:
        rows = witness.tuples.get(schema.name, frozenset())
        out[schema.name] = {
            "columns": list(schema.attributes),
            "rows": sorted([row[a] for a in schema.attributes] for row in rows),
        }
    return out
