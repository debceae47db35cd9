import pathlib

import pytest

from witness_lab.linprog import fractional_edge_cover
from witness_lab.qparser import parse_query
from witness_lab.structure import classify, existential_components


@pytest.fixture(autouse=True)
def empty_query_caches():
    """Every test starts with no query analysis cached, so none passes or
    fails by what an earlier test happened to solve, and a patched helper
    is always reached."""
    for cached in (parse_query, classify, existential_components, fractional_edge_cover):
        cached.cache_clear()


@pytest.fixture
def data_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"
