"""Exception hierarchy shared by all witness_lab modules."""
from __future__ import annotations


class WitnessLabError(Exception):
    """Base class for every error raised by this package."""


# --- query text and model -------------------------------------------------

class QuerySyntaxError(WitnessLabError):
    """Query text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SelfJoinError(WitnessLabError):
    """A relation name occurs in more than one body atom."""

    def __init__(self, relation: str):
        super().__init__(f"relation {relation!r} occurs twice; self-joins are not supported")
        self.relation = relation


class UnboundHeadAttribute(WitnessLabError):
    """A head attribute does not occur in any body atom."""

    def __init__(self, attribute: str):
        super().__init__(f"head attribute {attribute!r} is not bound by any relation")
        self.attribute = attribute


class DuplicateAttributeInAtom(WitnessLabError):
    """An attribute is listed twice inside one atom."""

    def __init__(self, relation: str, attribute: str):
        super().__init__(f"attribute {attribute!r} listed twice in relation {relation!r}")
        self.relation = relation
        self.attribute = attribute


# --- data loading ---------------------------------------------------------

class MissingRelationFile(WitnessLabError):
    def __init__(self, relation: str, path: str):
        super().__init__(f"no CSV file for relation {relation!r} (expected {path})")
        self.relation = relation
        self.path = path


class HeaderMismatch(WitnessLabError):
    def __init__(self, relation: str, expected, found):
        super().__init__(
            f"header of {relation!r} does not match its schema: "
            f"expected columns {sorted(expected)}, found {sorted(found)}"
        )
        self.relation = relation
        self.expected = tuple(expected)
        self.found = tuple(found)


class RaggedRow(WitnessLabError):
    def __init__(self, relation: str, line: int):
        super().__init__(f"row on line {line} of {relation!r} has the wrong number of fields")
        self.relation = relation
        self.line = line


class MalformedCsv(WitnessLabError):
    """The CSV reader rejected a file, e.g. a field over its size limit."""

    def __init__(self, relation: str, line: int, reason: str):
        super().__init__(f"line {line} of {relation!r} is not valid CSV: {reason}")
        self.relation = relation
        self.line = line
        self.reason = reason


class NotASubDatabase(WitnessLabError):
    """A candidate witness contains a tuple absent from the database."""

    def __init__(self, relation: str, row):
        super().__init__(f"candidate tuple {row} is not present in relation {relation!r}")
        self.relation = relation
        self.row = row


# --- solving --------------------------------------------------------------

class ResultNotFound(WitnessLabError):
    """No full join result projects onto the requested output tuple."""

    def __init__(self, row):
        super().__init__(f"output tuple {row} is not a query result")
        self.row = row


class PreconditionViolated(WitnessLabError):
    """A solver was invoked on a query outside its supported class."""

    def __init__(self, requirement: str):
        super().__init__(f"solver precondition not met: {requirement}")
        self.requirement = requirement


class InstanceTooLarge(WitnessLabError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"instance holds {size} tuples, above the exhaustive-search cap {cap}")
        self.size = size
        self.cap = cap


class BudgetExhausted(WitnessLabError):
    def __init__(self, budget: int):
        super().__init__(f"no witness within the search-node budget {budget}")
        self.budget = budget


# --- density search -------------------------------------------------------

class EmptyEdgeSet(WitnessLabError):
    def __init__(self):
        super().__init__("density is undefined on an instance without edges")


# --- generators -----------------------------------------------------------

class UncoverableUniverse(WitnessLabError):
    def __init__(self):
        super().__init__("the subset family does not cover the universe")


class AlphabetTooSmall(WitnessLabError):
    def __init__(self, alphabet: int, n: int):
        super().__init__(f"alphabet size {alphabet} must exceed the vertex count {n}")
        self.alphabet = alphabet
        self.n = n


class UnsatisfiableConstraint(WitnessLabError):
    def __init__(self, pair):
        super().__init__(f"vertex pair {pair} admits no constraint edge; results would be lost")
        self.pair = pair


class NotALineQuery(WitnessLabError):
    def __init__(self, reason: str):
        super().__init__(f"query is not a binary chain: {reason}")
        self.reason = reason


class UnreachableDemand(WitnessLabError):
    def __init__(self, demand):
        super().__init__(f"demand pair {demand} has no connecting path")
        self.demand = demand


# --- cross-checks ---------------------------------------------------------

class InternalInconsistency(WitnessLabError):
    """Two routes that must agree disagreed; this is a bug, not bad input."""
