import random
import signal
import zlib

import pytest

from mayss import make_context
from mayss.enumeration import clear_memo

#: Seconds any one test may run.  The slowest test takes about a second;
#: the limit only keeps a query that never ends from hanging the suite.
TIME_LIMIT = 120


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture(autouse=True)
def time_limit(request):
    # SIGALRM from a real-time interval timer, delivered to the main thread
    # that runs the test; no thread of its own.
    def expire(signum, frame):
        raise TimeLimitExceeded("%s ran past %d s" % (request.node.nodeid, TIME_LIMIT))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def fresh_memo():
    # The basis memo and the shared search tables outlive a test; a test that
    # patches _generator_rows would otherwise leave its mutant tables to
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
