import pytest

from helpers import profile_to_degree
from mayss import ParameterError, Tridegree, grading, make_context, padic_profile
from mayss.algebra import _INTERNED, Generator
from mayss.grading import PAdicProfile, generator_tridegree


def test_context_rejects_non_primes_and_small_values():
    for bad in (-5, 0, 1, 2, 3, 4, 6, 9, 15, 21, 25, 49):
        with pytest.raises(ParameterError):
            make_context(bad)


def test_context_rejects_primes_above_the_bound_without_trial_division(monkeypatch):
    def no_trial_division(n):
        raise AssertionError("tested %d for primality" % n)

    monkeypatch.setattr(grading, "_is_prime", no_trial_division)
    for big in (2**61 - 1, grading.MAX_PRIME + 1):
        with pytest.raises(ParameterError, match="exceeds %d" % grading.MAX_PRIME):
            make_context(big)


def test_is_prime_agrees_with_a_sieve():
    # make_context rejects p < 5 before it asks, so only this reaches n < 2.
    limit = 3000
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, limit):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    for n in range(-2, limit):
        assert grading._is_prime(n) == (n >= 0 and sieve[n]), n


def test_context_accepts_odd_primes_from_five():
    for p in (5, 7, 11, 13, 101):
        ctx = make_context(p)
        assert ctx.p == p
        assert ctx.q == 2 * (p - 1)


def test_profile_known_values(ctx5):
    assert padic_profile(137, ctx5) == PAdicProfile(c_minus1=1, digits=(2, 3))
    assert padic_profile(0, ctx5) == PAdicProfile(c_minus1=0, digits=())
    assert padic_profile(7, ctx5) == PAdicProfile(c_minus1=7, digits=())
    assert padic_profile(8, ctx5) == PAdicProfile(c_minus1=0, digits=(1,))
    # 130194 = 8 * 16274 + 2 and 16274 in base 5 is 1 0 1 0 0 4 4
    assert padic_profile(130194, ctx5) == PAdicProfile(2, (4, 4, 0, 0, 1, 0, 1))


def test_profile_roundtrip_exhaustive_small(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for t in range(2001):
            prof = padic_profile(t, ctx)
            assert 0 <= prof.c_minus1 < ctx.q
            assert all(0 <= c < ctx.p for c in prof.digits)
            assert not prof.digits or prof.digits[-1] != 0
            assert profile_to_degree(prof, ctx) == t


def test_profile_roundtrip_random_large(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(200):
            t = rng.randrange(10 ** 12)
            assert profile_to_degree(padic_profile(t, ctx), ctx) == t


def test_profile_rejects_negative_degree(ctx5):
    with pytest.raises(ParameterError):
        padic_profile(-1, ctx5)


def test_profile_to_degree_validates(ctx5):
    with pytest.raises(ParameterError):
        profile_to_degree(PAdicProfile(8, ()), ctx5)      # remainder >= q
    with pytest.raises(ParameterError):
        profile_to_degree(PAdicProfile(0, (5,)), ctx5)    # digit >= p
    with pytest.raises(ParameterError):
        profile_to_degree(PAdicProfile(0, (1, 0)), ctx5)  # trailing zero


def test_generator_tridegrees_hand_table(ctx5):
    table = {
        ("a", 0, None): (1, 1, 1),
        ("a", 1, None): (1, 9, 3),
        ("a", 2, None): (1, 49, 5),
        ("h", 1, 0): (1, 8, 1),
        ("h", 1, 1): (1, 40, 1),
        ("h", 2, 0): (1, 48, 3),
        ("h", 2, 1): (1, 240, 3),
        ("h", 3, 0): (1, 248, 5),
        ("b", 1, 0): (2, 40, 5),
        ("b", 1, 1): (2, 200, 5),
        ("b", 2, 0): (2, 240, 15),
    }
    for (kind, i, j), want in table.items():
        assert generator_tridegree(kind, i, j, ctx5) == Tridegree(*want)


def test_generator_tridegree_validates():
    # Indices are checked once, when a generator is built, so no generator
    # reaches generator_tridegree with indices it does not grade.
    for kind, i, j in (("a", -1, None), ("h", 0, 0), ("h", 1, -1),
                       ("b", 0, 0), ("b", 1, -2), ("x", 1, 0), ("a", 1, 0)):
        with pytest.raises(ParameterError):
            Generator(kind, i, j)
        assert (kind, i, j) not in _INTERNED


def test_tridegree_arithmetic():
    d = Tridegree(1, 2, 3) + Tridegree(4, 5, 6)
    assert d == Tridegree(5, 7, 9)
