import random
import zlib

import pytest

from mayss import make_context
from mayss.enumeration import clear_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    # The basis memo and the shared search tables outlive a test; a test that
    # patches generator_universe would otherwise leave its mutant tables to
    # later tests, and a test that counts universe builds would see none.
    clear_memo()
    yield
    clear_memo()


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
