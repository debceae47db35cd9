"""Smallest witness toolkit for self-join-free conjunctive queries.

Classify a query into its witness-complexity class, compute witnesses
with the algorithm the class supports, verify them, and generate
instance families with known optima.
"""
from .engine import evaluate, full_join_results, is_witness
from .errors import WitnessLabError
from .linprog import agm_bound_holds, fractional_edge_cover
from .model import Database, Query, RelationSchema, Row, Witness
from .oracle import DEFAULT_ORACLE_CAP, brute_force_swp
from .qparser import format_query, parse_query
from .solvers import (
    SolveReport,
    solve_approx_head_domination,
    solve_baseline_union,
    solve_exact_head_cluster,
    solve_greedy_single_nonoutput,
    witness_for_result,
)
from .storage import load_database, write_database, write_witness
from .structure import Classification, Label, classify

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "Database",
    "DEFAULT_ORACLE_CAP",
    "Label",
    "Query",
    "RelationSchema",
    "Row",
    "SolveReport",
    "Witness",
    "WitnessLabError",
    "agm_bound_holds",
    "brute_force_swp",
    "classify",
    "evaluate",
    "format_query",
    "fractional_edge_cover",
    "full_join_results",
    "is_witness",
    "load_database",
    "parse_query",
    "solve_approx_head_domination",
    "solve_baseline_union",
    "solve_exact_head_cluster",
    "solve_greedy_single_nonoutput",
    "witness_for_result",
    "write_database",
    "write_witness",
    "__version__",
]
