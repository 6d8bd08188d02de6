"""Prime context, tridegrees, and base-p degree profiles.

Everything downstream is graded by a tridegree (s, t, u): s is the filtration
(homological degree), t the internal degree, u the auxiliary weight.  Internal
degrees decompose uniquely as t = q*(c_n p^n + ... + c_1 p + c_0) + c_{-1}
with q = 2(p-1), 0 <= c_j < p, 0 <= c_{-1} < q; that profile drives both the
fast vanishing tests and the enumeration pruning.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ParameterError


#: Largest prime make_context accepts.  Primality is tested by trial
#: division, which takes under 0.1 s at this bound and grows like sqrt(p).
MAX_PRIME = 2**40

#: Largest internal degree a monomial or a scenario may have, so that every
#: degree prints in fewer digits than Python converts by default (4300).  No
#: generator has s or u above its t, so this bounds the whole tridegree.
MAX_DEGREE = 10**4000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeContext(namedtuple("PrimeContext", "p q")):
    """An odd prime p >= 5 together with q = 2(p-1)."""

    __slots__ = ()


def make_context(p: int) -> PrimeContext:
    """Validate p and build the context all other operations take."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 5:
        raise ParameterError("p=%r is not an odd prime >= 5" % (p,))
    if p > MAX_PRIME:
        raise ParameterError("p=%d exceeds %d" % (p, MAX_PRIME))
    if not _is_prime(p):
        raise ParameterError("p=%r is not an odd prime >= 5" % (p,))
    return PrimeContext(p=p, q=2 * (p - 1))


def check_degree(t: int) -> None:
    if t > MAX_DEGREE:
        raise ParameterError("internal degree exceeds 10^4000")


def check_power(p: int, n: int) -> None:
    """Reject p**n above MAX_DEGREE, whenever n alone shows it, without
    computing it: p >= 2**(bit_length(p) - 1) bounds p**n from below."""
    if n * (p.bit_length() - 1) >= MAX_DEGREE.bit_length():
        raise ParameterError("internal degree exceeds 10^4000")


class Tridegree(namedtuple("Tridegree", "s t u")):
    __slots__ = ()

    # adds componentwise, in place of tuple concatenation
    def __add__(self, other: "Tridegree") -> "Tridegree":
        return Tridegree(self.s + other.s, self.t + other.t, self.u + other.u)

    def scaled(self, e: int) -> "Tridegree":
        return Tridegree(e * self.s, e * self.t, e * self.u)


class PAdicProfile(namedtuple("PAdicProfile", "c_minus1 digits")):
    """The unique expansion t = q*sum(digits[j] * p^j) + c_minus1.

    digits has no trailing zeros (the top digit is nonzero); t = 0 is the
    empty profile (c_minus1 = 0, digits = ()).
    """

    __slots__ = ()


def padic_profile(t: int, ctx: PrimeContext) -> PAdicProfile:
    """Decompose a nonnegative internal degree into its profile."""
    if t < 0:
        raise ParameterError("internal degree must be nonnegative, got %d" % t)
    body, c_minus1 = divmod(t, ctx.q)
    digits = []
    while body:
        body, r = divmod(body, ctx.p)
        digits.append(r)
    return PAdicProfile(c_minus1=c_minus1, digits=tuple(digits))


def generator_tridegree(kind: str, i: int, j: int | None, ctx: PrimeContext) -> Tridegree:
    """Tridegree of a single multiplicative generator (Generator checks its indices).

    kind "h": exterior, (1, 2(p^i - 1) p^j, 2i - 1), i >= 1, j >= 0.
    kind "b": polynomial, (2, 2(p^i - 1) p^(j+1), (2i - 1) p), i >= 1, j >= 0.
    kind "a": polynomial, (1, 2 p^i - 1, 2i + 1), i >= 0, no second index.
    """
    p = ctx.p
    if kind == "h":
        return Tridegree(1, 2 * (p**i - 1) * p**j, 2 * i - 1)
    if kind == "b":
        return Tridegree(2, 2 * (p**i - 1) * p ** (j + 1), (2 * i - 1) * p)
    return Tridegree(1, 2 * p**i - 1, 2 * i + 1)
