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

d1() on elements works on factor tuples, so a word like a(1)^1000000 costs
what a(1) does.  d1_matrix, which differentiates whole bases, works on the
packed keys the basis search emits (see the enumeration module): a basis's
layout lists generators in canonical order and gives generator k the bit
field [k*w, (k+1)*w), which holds its exponent.  The layout is the
universe of the basis's degree t, which holds every generator of every
summand of its generators, and an image raises an exponent by at
most one, within the width.  Then

    image key = key - unit(g) + sum of the units of the summand's factors,

the Koszul parity is the popcount of the exterior fields of key - unit(g)
under a mask fixed per summand (the exterior fields below each new h, and
below g when it brings two), and an exterior square is a nonzero AND of
key - unit(g) with the new h's units.  Those masks are built once per
generator and layout, on the first block that holds the generator.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache

from .algebra import Element, Generator, Monomial, _from_accumulator, a, h
from .enumeration import BidegreeBasis, Layout
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


def _plan(layout: Layout, g: Generator) -> list[tuple[int, int, int, int]]:
    """The summands of d1(g) on the layout's keys, as (mask of the new h's,
    key change, sign parity, moves mask).

    The tuple path adds the exterior slots before g (for two new h's) and
    each new h's rank among the other exterior factors; mod 2 that sum is
    the popcount of key - unit(g) under the moves mask.
    """
    exterior = layout.exterior

    def unit(x):
        return 1 << (layout.position[x] * layout.width)

    def below(x):   # the exterior fields before x's
        return exterior & (unit(x) - 1)

    plan = []
    for new_h, poly, parity in _summands(g):
        hmask = sum(unit(x) for x in new_h)
        moves = below(g) if len(new_h) == 2 else 0
        for x in new_h:
            moves ^= below(x)
        plan.append((hmask, hmask + (unit(poly) if poly else 0), parity, moves))
    return plan


def d1_matrix(block: BidegreeBasis, ctx: PrimeContext,
              seeds: Sequence[int | None] = ()) -> MatrixFp:
    """Matrix of d1 on a basis, usually one weight block of one; column k is
    the image of the monomial of block.keys[k].

    Rows are monomials of the image tridegree: the monomial of key seeds[k]
    on the block's layout is row k (the seeds are distinct), and every other
    image monomial gets the next row number, in the order the images first
    show it.  A seed of None stands for a monomial the layout cannot pack
    (a generator outside its universe, an exponent past its width), which
    is no image, so its row stays empty.  The entries are those of d1() on
    each monomial, computed on packed keys.
    """
    p = ctx.p
    layout = block.layout
    w = layout.width
    mask = (1 << w) - 1
    plans = layout.plans
    held = 0
    for key in block.keys:
        held |= key
    # (field offset, unit, plan) of each generator some monomial holds and
    # d1 does not kill
    terms = []
    for k, _ in layout.fields(held):
        plan = plans.get(k)
        if plan is None:
            plan = plans[k] = _plan(layout, layout.universe[k])
        if plan:
            terms.append((k * w, 1 << (k * w), plan))

    rows = {-1 - r if key is None else key: r   # image keys are never negative
            for r, key in enumerate(seeds)}
    columns = []
    for key in block.keys:
        accum: dict[int, int] = {}
        for shift, unit, plan in terms:
            e = key >> shift & mask
            if not e % p:   # absent, or a p-th power
                continue
            rest = key - unit
            for hmask, delta, parity, moves in plan:
                if rest & hmask:   # a new h already present: an exterior square
                    continue
                img = rest + delta
                c = -e if (parity + (rest & moves).bit_count()) & 1 else e
                accum[img] = accum.get(img, 0) + c
        col = {}
        for img, c in accum.items():
            c %= p
            if c:
                col[rows.setdefault(img, len(rows))] = c
        columns.append(col)
    return MatrixFp(modulus=p, rows=len(rows), cols=len(columns), columns=tuple(columns))
