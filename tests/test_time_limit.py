"""The per-test time limit of conftest.py."""

import signal
import time

import pytest

from conftest import TIME_LIMIT, TimeLimitExceeded


def test_each_test_runs_under_the_time_limit():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TIME_LIMIT and interval == 0


def test_the_time_limit_stops_a_test_that_never_ends():
    signal.setitimer(signal.ITIMER_REAL, 0.05)   # as if the limit were 50 ms
    deadline = time.monotonic() + 10
    with pytest.raises(TimeLimitExceeded, match="test_the_time_limit_stops"):
        while time.monotonic() < deadline:
            pass
