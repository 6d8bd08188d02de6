"""The first differential d1 and its matrices on monomial bases.

On generators:

    d1 h(i,j) = sum over 0 < k < i of  h(i-k, k+j) h(k, j)
    d1 a(i)   = sum over 0 <= k < i of h(i-k, k) a(k)
    d1 b(i,j) = 0

extended to products by the Leibniz rule with Koszul sign (-1)^parity(prefix),
where parity counts exterior factors (see algebra module).

A canonical monomial is differentiated factor by factor: a power g^e gives
e g^(e-1) d1(g), skipped when p divides e, and each summand of d1(g) is
merged straight into the other factors.  The sign of a summand is the
Koszul sign of the exterior factors before g, times the parity of the moves
that carry each new h to its place among the monomial's other exterior
factors, times the order of the new h's within the summand.  A new h equal
to one already present is an exterior square, so the term is zero.  No
word is expanded or re-sorted, so the cost is linear in the number of
factors, not in the total exponent.

d1 shifts tridegrees by (+1, 0, -1): it raises filtration, preserves internal
degree, and drops the weight by one, so it restricts to weight blocks.  The
monomials of the target tridegree form a basis of it, so a d1 matrix numbers
its rows by the image monomials themselves and needs no enumerated codomain.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

from .algebra import Element, Generator, Monomial, _from_accumulator, a, h
from .grading import PrimeContext, Tridegree
from .linalg import MatrixFp

D1_SHIFT = Tridegree(1, 0, -1)

Factors = tuple[tuple[Generator, int], ...]


@lru_cache(maxsize=None)
def _summands(g: Generator) -> tuple[tuple[tuple[Generator, ...], Generator | None, int], ...]:
    """The summands of d1(g) as (new h's, new polynomial factor, sign parity).

    The h's are sorted by key and the parity counts the swaps that sorted
    them from written order.  Independent of the prime, so kept per generator.
    """
    if g.kind == "h":
        out = []
        for k in range(1, g.i):
            x, y = h(g.i - k, k + g.j), h(k, g.j)
            swapped = x.key > y.key
            out.append(((y, x) if swapped else (x, y), None, int(swapped)))
        return tuple(out)
    if g.kind == "a":
        return tuple(((h(g.i - k, k),), a(k), 0) for k in range(0, g.i))
    return ()


def _multiply_in(out: list, keys: list, g: Generator) -> None:
    """Multiply a canonical factor list (with its sort keys) by g, in place."""
    j = bisect_left(keys, g.key)
    if j < len(keys) and keys[j] == g.key:
        out[j] = (g, out[j][1] + 1)
    else:
        out.insert(j, (g, 1))
        keys.insert(j, g.key)


def _d1_factors(mon: Monomial, p: int) -> dict[Factors, int]:
    """d1 of one canonical monomial as canonical factor tuples -> coefficient.

    Coefficients are not reduced mod p.  Every key has the tridegree
    mon.tridegree + D1_SHIFT.
    """
    factors = mon.factors
    keys = [g.key for g, _ in factors]
    ext = [k for (g, _), k in zip(factors, keys) if g.is_exterior]
    accum: dict[Factors, int] = {}
    before = 0  # exterior factors ahead of the current one
    for i, (g, e) in enumerate(factors):
        here = before
        if g.is_exterior:
            before += 1
        summands = _summands(g)
        if not summands or e % p == 0:
            continue
        others = ext[:here] + ext[here + 1:] if g.is_exterior else ext
        # the monomial with one g taken out
        if e == 1:
            rest, rest_keys = factors[:i] + factors[i + 1:], keys[:i] + keys[i + 1:]
        else:
            rest, rest_keys = factors[:i] + ((g, e - 1),) + factors[i + 1:], keys
        for new_h, poly, parity in summands:
            # moving one new h to its place among the others costs
            # (its rank among them) + (slots before g) swaps, mod 2
            parity += here * (len(new_h) + 1)
            for x in new_h:
                pos = bisect_left(others, x.key)
                if pos < len(others) and others[pos] == x.key:
                    break
                parity += pos
            else:
                out, out_keys = list(rest), list(rest_keys)
                for x in new_h + ((poly,) if poly else ()):
                    _multiply_in(out, out_keys, x)
                term = tuple(out)
                accum[term] = accum.get(term, 0) + (-e if parity % 2 else e)
    return accum


def d1(x: Element, ctx: PrimeContext) -> Element:
    """Extend d1 linearly to an element."""
    accum: dict[Monomial, int] = {}
    for mon, c in x.terms.items():
        deg = mon.tridegree + D1_SHIFT
        for factors, c2 in _d1_factors(mon, ctx.p).items():
            out = Monomial(factors=factors, tridegree=deg)
            accum[out] = accum.get(out, 0) + c * c2
    return _from_accumulator(accum, ctx)


def d1_matrix(domain: Sequence[Monomial], ctx: PrimeContext,
              row_of: dict[Factors, int] | None = None) -> MatrixFp:
    """Matrix of d1 on the given basis; column k is the image of domain[k].

    Rows are image monomials, keyed by factor tuple (factors determine the
    tridegree): each key not yet in row_of gets the next row number, in the
    order the images first show it.  row_of may be pre-seeded and is
    extended in place; the matrix has len(row_of) rows.
    """
    p = ctx.p
    if row_of is None:
        row_of = {}
    columns = []
    for mon in domain:
        col = {}
        for factors, c in _d1_factors(mon, p).items():
            c %= p
            if c:
                col[row_of.setdefault(factors, len(row_of))] = c
        columns.append(col)
    return MatrixFp(modulus=p, rows=len(row_of), cols=len(domain), columns=tuple(columns))
