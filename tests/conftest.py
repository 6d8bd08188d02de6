import random
import zlib

import pytest

from mayss import make_context


@pytest.fixture(autouse=True)
def _private_cache_dir(tmp_path, monkeypatch):
    # CLI runs without --cache-dir or --no-cache use $MAYSS_CACHE_DIR; keep
    # them out of the user's cache.  A test that sets the variable wins.
    monkeypatch.setenv("MAYSS_CACHE_DIR", str(tmp_path / "mayss-cache"))


@pytest.fixture(scope="session")
def ctx5():
    return make_context(5)


@pytest.fixture(scope="session")
def ctx7():
    return make_context(7)


@pytest.fixture
def rng(request):
    # seeded from the test name: deterministic across runs, distinct per test
    return random.Random(zlib.crc32(request.node.name.encode()))
