import pathlib

import pytest

from corpus import QUERY_CACHES


@pytest.fixture(autouse=True)
def empty_query_caches():
    """Every test starts with no query analysis or join plan cached, so
    none passes or fails by what an earlier test happened to solve, and a
    patched helper is always reached."""
    for cached in QUERY_CACHES:
        cached.cache_clear()


@pytest.fixture
def data_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"
