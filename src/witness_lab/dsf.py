"""Path queries as directed Steiner forest instances.

A query whose atoms chain two output endpoints through non-output
attributes becomes a layered digraph: one layer per attribute, one node
per value, one unit-weight edge per tuple.  Result rows become demand
pairs, a witness becomes an edge set connecting every demand, and any
demand-connecting edge set pulls back to a witness of the same size.

The demands come from Q(D) grouped by source, sorted by source and then
by target, and the export text writes them one source at a time: one
encoded head per source, one encoded tail per distinct target.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby, repeat
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
from typing import NamedTuple

from .engine import evaluate
from .errors import NotALineQuery
from .model import Database, Query


class DsfEdge(NamedTuple):
    id: int
    source: str
    target: str
    weight: int
    relation: str
    row: tuple[str, ...]  # over the relation's sorted attributes


@dataclass(frozen=True)
class DsfInstance:
    chain: tuple[str, ...]
    relation_order: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[DsfEdge, ...]
    demands: tuple[tuple[str, str], ...]


def _chain_order(query: Query) -> tuple[tuple[str, ...], tuple[str, ...]]:
    holders: dict[str, list[str]] = {}
    for schema in query.relations:
        if len(schema.attributes) != 2:
            raise NotALineQuery(f"{schema.name} is not binary")
        for a in schema.attributes:
            holders.setdefault(a, []).append(schema.name)
    for a, rels in holders.items():
        if len(rels) > 2:
            raise NotALineQuery(f"attribute {a} appears in more than two atoms")
    ends = sorted(a for a, rels in holders.items() if len(rels) == 1)
    if len(ends) != 2:
        raise NotALineQuery("atoms do not chain into a single path")
    if query.head_set != frozenset(ends):
        raise NotALineQuery("output attributes must be exactly the path endpoints")

    chain = [ends[0]]
    order: list[str] = []
    previous: str | None = None
    while True:
        candidates = [r for r in holders[chain[-1]] if r != previous]
        if not candidates:
            break
        previous = candidates[0]
        order.append(previous)
        other = [a for a in query.schema(previous).attributes if a != chain[-1]]
        chain.append(other[0])
    if len(order) != len(query.relations):
        raise NotALineQuery("atoms do not chain into a single path")
    return tuple(chain), tuple(order)


def line_to_dsf(query: Query, db: Database) -> DsfInstance:
    chain, order = _chain_order(query)
    layers: list[set[str]] = [set() for _ in chain]  # the values on each layer
    hops = []  # per hop: its relation, its rows sorted, and their two end columns
    for hop, name in enumerate(order):
        attrs = query.schema(name).sorted_attributes
        rows = sorted(db.instances.get(name, ()))
        ends = [list(map(itemgetter(attrs.index(a)), rows)) for a in chain[hop:hop + 2]]
        layers[hop].update(ends[0])
        layers[hop + 1].update(ends[1])
        hops.append((name, rows, ends))
    # one label per node, formatted once
    labels = [{v: f"{layer}:{v}" for v in values} for layer, values in enumerate(layers)]
    edges: list[DsfEdge] = []
    for hop, (name, rows, (sources, targets)) in enumerate(hops):
        # tuple.__new__ over zipped columns skips the named tuple's own __new__
        edges += map(tuple.__new__, repeat(DsfEdge), zip(
            count(len(edges)), map(labels[hop].__getitem__, sources),
            map(labels[hop + 1].__getitem__, targets), repeat(1), repeat(name), rows))
    nodes = sorted(label for layer in labels for label in layer.values())
    first, last = labels[0], labels[-1]
    # results are (first, last): the chain starts at the endpoint sorting first;
    # every label on a layer has the same prefix, so pairs sort as their values.
    # Grouping by source and sorting each group sorts the pairs with less work.
    targets_of: dict[str, list[str]] = {}
    for a, b in evaluate(query, db):
        targets_of.setdefault(a, []).append(b)
    demands: list[tuple[str, str]] = []
    for a in sorted(targets_of):
        demands += zip(repeat(first[a]), map(last.__getitem__, sorted(targets_of[a])))
    return DsfInstance(chain, order, tuple(nodes), tuple(edges), tuple(demands))


def _json_list(items: list[str]) -> str:
    """A list of encoded items as the value of a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _literal(text: str) -> str:
    """`text` encoded as a JSON string, ready to sit in a %-template."""
    return _escape(text).replace("%", "%%")


def _demand_items(demands: tuple[tuple[str, str], ...]) -> list[str]:
    """The encoded demands, one run of a common source at a time: the run
    shares one encoded head, and each distinct target is encoded once."""
    tails = {t: _escape(t) + "\n    }" for t in set(map(itemgetter(1), demands))}
    items: list[str] = []
    for source, run in groupby(demands, itemgetter(0)):
        head = '{\n      "from": ' + _escape(source) + ',\n      "to": '
        items += map(str.__add__, repeat(head), map(tails.__getitem__, map(itemgetter(1), run)))
    return items


def dsf_to_json_text(instance: DsfInstance) -> str:
    """The export document, as `json.dumps(document, indent=2,
    sort_keys=True)` would write it.  Edges fill one template per relation
    (a `row` maps the sorted attribute pair to the edge's row).  Demands
    are written one source at a time: each source's encoded head is joined
    to each target's encoded tail.  Strings go through `json`'s own ASCII
    escaper."""
    edge_template = {}
    for hop, name in enumerate(instance.relation_order):
        first, second = sorted(instance.chain[hop:hop + 2])
        edge_template[name] = ('{\n      "from": %s,\n      "id": %d,\n      "relation": '
                               + _literal(name) + ',\n      "row": {\n        '
                               + _literal(first) + ': %s,\n        ' + _literal(second)
                               + ': %s\n      },\n      "to": %s,\n      "weight": %d\n    }')
    return ('{\n  "chain": %s,\n  "demands": %s,\n  "edges": %s,\n  "nodes": %s,\n'
            '  "relation_order": %s,\n  "spec": "1"\n}') % (
        _json_list([_escape(a) for a in instance.chain]),
        _json_list(_demand_items(instance.demands)),
        _json_list([edge_template[e.relation] % (_escape(e.source), e.id, _escape(e.row[0]),
                                                 _escape(e.row[1]), _escape(e.target), e.weight)
                    for e in instance.edges]),
        _json_list([_escape(n) for n in instance.nodes]),
        _json_list([_escape(n) for n in instance.relation_order]),
    )
