import random
import zlib

import pytest

from mayss import make_context


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
