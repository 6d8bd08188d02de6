"""Shared test utilities: random algebra objects and small independent oracles.

The oracles here deliberately re-derive results through the dumbest route
available (selection sort for signs, raw multiset search for bases, the
search as a tree walk without its memo, the E1 count per weight from the
generators' degree formulas, span counting for ranks, d1 of every expanded
unit, dense Gauss-Jordan, the set of every reachable carry per digit
column, every solution of the column system) so that engine bugs cannot
hide in shared code paths.  The
column-sum predicates of the spanning-factor argument and of the run count
(interval_starts, the carry test's bound under narrow caps), the digit and
remainder vanishing bounds (the search's carry test subsumes them) and the
element arithmetic the engine itself never needs (add, scale) and the
dense-rows constructor of matrices (matrix_from_rows) live here too: only
tests use them.
"""

import itertools
from bisect import bisect_left
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from mayss import enumeration
from mayss.algebra import (Element, Generator, Monomial, _from_accumulator, a, b,
                           canonicalize, element_from_monomial, element_tridegree, h,
                           monomial_from_factors)
from mayss.differential import d1, d1_matrix
from mayss.enumeration import BidegreeBasis, Layout, _Order, _search
from mayss.errors import ParameterError
from mayss.grading import PAdicProfile, Tridegree, padic_profile
from mayss.linalg import MatrixFp

#: The empty monomial.
UNIT = Monomial(factors=(), tridegree=Tridegree(0, 0, 0))

#: The (s, t) points of the dense second-page benchmark, all at p = 5.
DENSE_E2 = ((12, 3000), (8, 130194), (11, 2988), (12, 3012))

#: The (p, m, n, s) of the paper's main scenario at the eight points of the
#: scenarios benchmark.
SCENARIOS = ((5, 4, 6, 4), (5, 8, 12, 4), (7, 6, 10, 6), (13, 4, 6, 12), (5, 10, 16, 4),
             (5, 12, 20, 4), (7, 8, 14, 6), (11, 6, 10, 10))


def canonicalize_word(gens, ctx):
    """algebra.canonicalize for a raw word of generators, each to the first
    power: (sign, monomial), or None on an exterior square."""
    return canonicalize([(g, 1) for g in gens], ctx)


def add(x, y, ctx):
    accum = x.terms
    for mon, c in y.terms.items():
        accum[mon] = accum.get(mon, 0) + c
    return _from_accumulator(accum, ctx)


def scale(c, x, ctx):
    return _from_accumulator({mon: c * cc for mon, cc in x.terms.items()}, ctx)


def element_parity(x):
    """Koszul parity (s + t) mod 2 of a homogeneous nonzero element."""
    deg = element_tridegree(x)
    if deg is None:
        return None
    return (deg.s + deg.t) % 2


def d1_generator(g, ctx):
    """d1 of a single generator as a canonical element."""
    return d1(element_from_monomial(monomial_from_factors(((g, 1),), ctx), ctx), ctx)


def factor_count(mon):
    """Number of factors counted with multiplicity (a b-factor counts once)."""
    return sum(e for _, e in mon.factors)


def profile_to_degree(profile: PAdicProfile, ctx) -> int:
    """Inverse of padic_profile: t = q*sum(digits[j] * p^j) + c_minus1.

    Validates the digit bounds, so a malformed profile cannot pass as a degree.
    """
    if not 0 <= profile.c_minus1 < ctx.q:
        raise ParameterError("c_minus1=%d out of range [0, %d)" % (profile.c_minus1, ctx.q))
    for j, c in enumerate(profile.digits):
        if not 0 <= c < ctx.p:
            raise ParameterError("digit c_%d=%d out of range [0, %d)" % (j, c, ctx.p))
    if profile.digits and profile.digits[-1] == 0:
        raise ParameterError("top digit must be nonzero")
    body = 0
    for c in reversed(profile.digits):
        body = body * ctx.p + c
    return ctx.q * body + profile.c_minus1


def random_generator(rng, max_i=4, max_j=3):
    kind = rng.choice("ahb")
    if kind == "a":
        return a(rng.randint(0, max_i))
    i = rng.randint(1, max_i)
    j = rng.randint(0, max_j)
    return h(i, j) if kind == "h" else b(i, j)


def random_word(rng, max_factors=4, max_i=4, max_j=3):
    return [random_generator(rng, max_i, max_j)
            for _ in range(rng.randint(1, max_factors))]


def random_monomial(rng, ctx, max_factors=4, max_i=4, max_j=3):
    """A random canonical monomial (resampling past exterior squares)."""
    while True:
        res = canonicalize_word(random_word(rng, max_factors, max_i, max_j), ctx)
        if res is not None:
            return res[1]


def random_element(rng, ctx, max_terms=3, **kw):
    out = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        mon = random_monomial(rng, ctx, **kw)
        out = add(out, Element({mon: rng.randint(1, ctx.p - 1)}), ctx)
    return out


#: Characters of element text: the grammar's own, plus a non-ASCII digit, a
#: superscript, a newline and a letter that names no generator.
TEXT_ALPHABET = "ahb(),^*+- \t0123456789" + "\u0663\u00b2\nx"

#: Thirty-two pieces of element text, whole and partial, valid and not:
#: indices at and past MAX_GENERATOR_INDEX, a 5,000-digit run (past the
#: digits int() converts) and a degree past 10^4000 (h(1,9000)).
TEXT_TOKENS = ("a(0)", "a(1)", "a(2)^2", "h(1,0)", "h(1,1)", "h(2,0)", "b(1,0)", "b(1,1)^3",
               "h(1,9000)", "a(10000)", "a(10001)", "h(1,10001)", "a(", "h(1,", ")", ",",
               "^", "^0", "*", "2*", "3", "0", " ", "  ", "\t", " + ", " - ", "-", "+",
               "1" * 5000, "\u0663", "\n")


def random_element_text(rng):
    """Random element text: half free strings over TEXT_ALPHABET, half joins
    of up to eight TEXT_TOKENS."""
    if rng.random() < 0.5:
        return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(0, 16)))
    return "".join(rng.choice(TEXT_TOKENS) for _ in range(rng.randint(1, 8)))


def brute_sign(word, ctx):
    """Koszul sign by selection-sorting the exterior subsequence, or None on
    a repeated exterior factor."""
    keys = [g.key for g in word if g.is_exterior]
    if len(set(keys)) != len(keys):
        return None
    sign = 1
    arr = list(keys)
    for i in range(len(arr)):
        j = min(range(i, len(arr)), key=lambda k: arr[k])
        if j != i:
            arr.insert(i, arr.pop(j))
            sign *= (-1) ** (j - i)
    return sign


def single_search(ctx, s, t):
    """The engine's search over the one-filtration window [s, s]: the basis
    of (s, t)."""
    return _search(ctx, s, s, t)[s]


def tree_search(ctx, s_lo, s_hi, t):
    """The engine's search as a plain depth-first tree walk, without the
    memo over states: the oracle of enumeration._search, whose bases it
    returns from the same search order, the same pruning rules and the same
    layout.  It runs the carry test on every candidate that passes the
    degree bounds, without the engine's skip of the candidates an earlier
    failure in the node decides, so it is the unbounded oracle of that skip
    too.  Its root keeps a filtration s when s <= t and carry_oracle admits
    t under cap s over every column of t/q, so it is the oracle of the
    engine's root tests as well.  Its carry tests below the root go through
    enumeration._carry_failure, so a test that wraps that can count them."""
    found = {s: ([], []) for s in range(s_lo, s_hi + 1)}
    every_column = (4 << (t // ctx.q).bit_length()) - 1   # every column of t/q, and more
    live = [s for s in found if s <= t and carry_oracle(t, s, every_column, ctx)]
    search = enumeration.EMPTY_LAYOUT
    if live:
        search, order = enumeration._tables(ctx, t, s_hi)
        s_hi, span = live[-1], live[-1] - live[0]
        pos, neg_degs, filts, weights, nidx, _, max_frac = order
        width = search.width
        last = len(pos) - 1
        carry_failure = enumeration._carry_failure

        def rec(idx: int, s_rem: int, t_rem: int, u: int, key: int):
            # s_rem is the largest filtration left, s_rem - span the smallest.
            if not t_rem:
                if s_rem <= span:
                    keys, us = found[s_hi - s_rem]
                    keys.append(key)
                    us.append(u)
                return
            # Filtrations (bit f for f in {1, 2}) whose upper bound still holds.
            open_filts = 3 if s_rem >= 2 else 1
            # Generators heavier than t_rem form a prefix of the order.
            for k in range(max(idx, bisect_left(neg_degs, -t_rem)), last):
                f = filts[k]
                if f > s_rem:
                    continue
                ns, nt = s_rem - f, t_rem + neg_degs[k]
                ni = nidx[k]
                ns_lo = ns - span         # below 0 it bounds nothing, as 0 would
                if nt or ns_lo > 0:
                    md, mf = max_frac[ni]
                    if nt * mf > ns * md:
                        open_filts &= ~f
                        if not open_filts:
                            return
                        continue
                    if nt < ns_lo:
                        continue
                    if carry_failure(nt, ns, ctx) is not None:
                        continue
                rec(ni, ns, nt, u + weights[k], key + (1 << (pos[k] * width)))
            # The a(0) branch: its one completion is a(0)^t_rem.
            if t_rem <= s_rem <= t_rem + span:
                keys, us = found[s_hi - s_rem + t_rem]
                keys.append(key + t_rem)
                us.append(u + t_rem)

        rec(0, s_hi, t, 0, 0)
    return {s: BidegreeBasis(ctx.p, s, t, search, tuple(keys), tuple(us))
            for s, (keys, us) in found.items()}


def e1_tridegree(p, kind, i, j):
    """The (filtration, degree, weight) of one generator, from the formulas
    of the E1-term, without the engine's Generator.tridegree."""
    if kind == "h":
        return 1, 2 * (p**i - 1) * p**j, 2 * i - 1
    if kind == "b":
        return 2, 2 * (p**i - 1) * p ** (j + 1), (2 * i - 1) * p
    return 1, 2 * p**i - 1, 2 * i + 1


#: A generator by its (kind, i, j), which digit_span reads, without the
#: engine's Generator.
Name = namedtuple("Name", "kind i j")


def e1_generators(p, t):
    """Every generator of degree at most t as (filtration, degree, weight,
    exterior, Name), listed from the degree formulas alone, in decreasing
    degree, ties in canonical order (the a's, the h's and the b's, each by
    (i, j)), as the search orders them."""
    gens = []
    i = 0
    while 2 * p**i - 1 <= t:
        gens.append(e1_tridegree(p, "a", i, None) + (False, Name("a", i, None)))
        i += 1
    for kind in "hb":
        i = 1
        while e1_tridegree(p, kind, i, 0)[1] <= t:
            j = 0
            while e1_tridegree(p, kind, i, j)[1] <= t:
                gens.append(e1_tridegree(p, kind, i, j) + (kind == "h", Name(kind, i, j)))
                j += 1
            i += 1
    gens.sort(key=lambda g: -g[1])
    return gens


def e1_dims(p, s, t):
    """{u: dim} of the E1-term at (s, t): the coefficients of the Poincare
    series of the free graded-commutative algebra on the generators, by a
    memoized walk over them in decreasing degree that uses each exterior one
    at most once.  The only prune is exact: a state whose degree left
    exceeds its filtration left times the best degree per filtration of the
    generators still to come has no completion."""
    gens = e1_generators(p, t)
    n = len(gens)
    best = [(0, 1)] * (n + 1)   # (deg, filt) with max deg/filt over gens[k:]
    for k in range(n - 1, -1, -1):
        f, d = gens[k][:2]
        bd, bf = best[k + 1]
        best[k] = (d, f) if d * bf > bd * f else (bd, bf)

    @lru_cache(maxsize=None)
    def walk(k, s_rem, t_rem):
        if k == n:
            return {0: 1} if s_rem == 0 and t_rem == 0 else {}
        bd, bf = best[k]
        if t_rem * bf > s_rem * bd:
            return {}
        f, d, w, exterior, _ = gens[k]
        top = min(s_rem // f, t_rem // d)
        if exterior:
            top = min(top, 1)
        if not top:
            return walk(k + 1, s_rem, t_rem)
        out = dict(walk(k + 1, s_rem, t_rem))
        for e in range(1, top + 1):
            for u, c in walk(k + 1, s_rem - e * f, t_rem - e * d).items():
                out[u + e * w] = out.get(u + e * w, 0) + c
        return out

    return walk(0, s, t) if s >= 0 and t >= 0 else {}


def basis_mismatch(ctx, s, t, monomials):
    """None when monomials is the complete basis of (s, t), else what is
    wrong.  Each monomial must be canonical, carry its tridegree by the
    formulas of e1_tridegree and be distinct, and the counts per weight
    must equal e1_dims; together these prove the list complete."""
    p = ctx.p
    for mon in monomials:
        if mon != monomial_from_factors(mon.factors, ctx):
            return "%s is not canonical" % mon.render()
        degs = [e1_tridegree(p, g.kind, g.i, g.j) for g, _ in mon.factors]
        formula = tuple(sum(e * deg[x] for (_, e), deg in zip(mon.factors, degs))
                        for x in range(3))
        got = mon.tridegree
        if (got.s, got.t, got.u) != formula or formula[:2] != (s, t):
            return "%s has tridegree %s, by the formulas %s" % (mon.render(), got, formula)
    if len(set(monomials)) != len(monomials):
        return "repeated monomials"
    dims = dict(Counter(mon.tridegree.u for mon in monomials))
    want = e1_dims(p, s, t)
    if dims != want:
        return "dimensions per weight %s, E1 count %s" % (sorted(dims.items()),
                                                           sorted(want.items()))
    return None


def generator_universe(ctx, t_max):
    """All generators with deg <= t_max, in canonical order: the a's, the
    h's and the b's, each by (i, j), one Generator per position of the
    engine's generator rows."""
    last_a, last_h, _, _ = enumeration._generator_rows(ctx.p, t_max)
    return ([a(i) for i in range(last_a + 1)]
            + [h(i, j) for i, last in enumerate(last_h, 1) for j in range(last + 1)]
            + [b(i, j) for i, last in enumerate(last_h, 1) for j in range(last)])


def digit_span(g):
    """Inclusive column range [lo, hi] a generator contributes to; -1 is the
    remainder column.  a(0) contributes to the remainder column only."""
    if g.kind == "a":
        return (-1, g.i - 1)
    if g.kind == "h":
        return (g.j, g.i + g.j - 1)
    return (g.j + 1, g.i + g.j)


def object_tables(ctx, t):
    """(universe, search tables) of degree t, built from one Generator and
    one Tridegree per position of generator_universe, sorted by
    (-degree, position), with the lowest bits from digit_span.  The oracle
    of enumeration._tables, which builds neither."""
    universe = tuple(generator_universe(ctx, t))
    tri = [g.tridegree(ctx) for g in universe]
    pos = sorted(range(len(universe)), key=lambda c: (-tri[c].t, c))
    n = len(pos)
    order = [universe[c] for c in pos]
    degs = [tri[c].t for c in pos]
    filts = [tri[c].s for c in pos]
    lob = [digit_span(g)[0] + 1 for g in order]
    max_frac = [(0, 1)] * (n + 1)
    for k in range(n - 1, -1, -1):
        d, f = degs[k], filts[k]
        md, mf = max_frac[k + 1]
        max_frac[k] = (d, f) if d * mf > md * f else (md, mf)
    return universe, _Order(tuple(pos), tuple(-d for d in degs), tuple(filts),
                            tuple(tri[c].u for c in pos),
                            tuple(k + 1 if g.is_exterior else k for k, g in enumerate(order)),
                            tuple(lob), tuple(max_frac))


def object_exterior(universe, width):
    """The exterior mask of a layout, one binary string built from the
    universe's generators, top field first."""
    one, zero = "0" * (width - 1) + "1", "0" * width
    return int("".join(one if g.is_exterior else zero for g in reversed(universe)) or "0", 2)


def layout_universe(layout):
    """The generators of a layout in canonical order, one per position."""
    return tuple(layout.generator(k) for k in range(layout.size))


def universe_up_to(ctx, t, s):
    """The generators of degree at most t and filtration at most s, in
    canonical order: those a monomial of (s, t) can hold."""
    return [g for g in generator_universe(ctx, t) if g.tridegree(ctx).s <= s]


def reference_basis(ctx, s, t):
    """Raw multiset search over the generator universe; no feasibility
    reasoning beyond nonnegative remainders.  Returns sorted renders."""
    if s < 0 or t < 0:
        return []
    if s == 0:
        return [""] if t == 0 else []
    universe = universe_up_to(ctx, t, s)
    found = []

    def rec(idx, s_rem, t_rem, word):
        if s_rem == 0:
            if t_rem == 0:
                res = canonicalize_word(word, ctx)
                assert res is not None, "universe order should never square"
                found.append(res[1].render())
            return
        for k in range(idx, len(universe)):
            g = universe[k]
            d = g.tridegree(ctx)
            if d.s > s_rem or d.t > t_rem:
                continue
            rec(k + 1 if g.is_exterior else k, s_rem - d.s, t_rem - d.t, word + [g])

    rec(0, s, t, [])
    assert len(set(found)) == len(found)
    return sorted(found)


def vanishes_by_digit_bound(s1, t, ctx):
    """True when some base-p digit of t/q exceeds s1, forcing an empty
    bidegree.  Requires 0 < s1 < p; column sums are capped by the factor
    count, which is capped by the filtration, and for s1 < p no carry chain
    can make up the difference."""
    if not 0 < s1 < ctx.p:
        raise ParameterError("digit bound needs 0 < s1 < p, got s1=%d" % s1)
    return any(c > s1 for c in padic_profile(t, ctx).digits)


def vanishes_by_remainder_bound(s1, t, ctx):
    """True when t mod q exceeds s1, forcing an empty bidegree.  Requires
    0 < s1 < q; only a-type factors feed the remainder column and carries
    only increase it."""
    if not 0 < s1 < ctx.q:
        raise ParameterError("remainder bound needs 0 < s1 < q, got s1=%d" % s1)
    return padic_profile(t, ctx).c_minus1 > s1


def column_sums(mon):
    """Digit-column sums of a monomial, remainder column first."""
    top = -1
    for g, _ in mon.factors:
        top = max(top, digit_span(g)[1])
    sums = [0] * (top + 2)
    for g, e in mon.factors:
        lo, hi = digit_span(g)
        for col in range(lo, hi + 1):
            sums[col + 1] += e
    return tuple(sums)


def column_sums_impossible(cbar: Sequence[int], mprime: int) -> bool:
    """True when some triple i1 < i2 < i3 has cbar[i1] + cbar[i3] - mprime >
    cbar[i2].  Factor supports are contiguous, so at least
    cbar[i1] + cbar[i3] - mprime factors cover both outer columns and hence
    the middle one; the inequality is therefore unsatisfiable by any
    monomial with mprime factors.  cbar[0] is the remainder column."""
    if mprime < 0:
        raise ParameterError("factor count must be nonnegative, got %d" % mprime)
    ncols = len(cbar)
    for x in range(ncols):
        for z in range(x + 2, ncols):
            need = cbar[x] + cbar[z] - mprime
            if need <= 0:
                continue
            if any(cbar[y] < need for y in range(x + 1, z)):
                return True
    return False


def bit_run(g):
    """The bits a generator adds one unit to, from its (kind, i, j) formula
    rather than enumeration.digit_span: bit 0 is the remainder column and
    bit J column J-1, so a(i) covers bits 0 .. i, h(i,j) bits j+1 .. i+j
    and b(i,j) bits j+2 .. i+j+1."""
    if g.kind == "a":
        return range(g.i + 1)
    if g.kind == "h":
        return range(g.j + 1, g.i + g.j + 1)
    return range(g.j + 2, g.i + g.j + 2)


def run_profile(factors):
    """The column sums of a factor tuple, remainder column first, summed
    run by run over bit_run; a factor g^e adds its run e times."""
    sums = Counter()
    for g, e in factors:
        for bit in bit_run(g):
            sums[bit] += e
    return tuple(sums[bit] for bit in range(max(sums, default=-1) + 1))


def interval_starts(cbar: Sequence[int]) -> int:
    """The least number of runs of bits whose indicators sum to cbar:
    cbar[0] plus every rise cbar[b] - cbar[b-1] > 0.  Each run adds one to
    that sum, so a monomial has at least this many factors."""
    return sum(max(c - prev, 0) for prev, c in zip((0, *cbar), cbar))


@dataclass(frozen=True)
class ForcedFactors:
    """Conclusion of the spanning-factor argument for a column-sum vector."""

    generator: Generator | None
    count: int
    vanishes: bool

    def describe(self) -> str:
        if self.count == 0:
            return "no forced factors"
        base = "%d cop%s of %s" % (self.count, "y" if self.count == 1 else "ies",
                                   self.generator.render())
        if self.vanishes:
            base += ", hence the monomial is zero"
        return base


def forced_spanning_factors(cbar: Sequence[int], mprime: int,
                            i1: int, i2: int, i3: int) -> ForcedFactors:
    """Forced factors of any b-free monomial with column sums cbar.

    Preconditions (violations raise ParameterError): -1 <= i1 < i2 < i3 <=
    top column, cbar[i1] + cbar[i3] - mprime <= cbar[i2], and cbar vanishes
    outside [i1, i3].  With k = cbar[i1] + cbar[i3] - mprime > 0, at least k
    factors cover both ends; their contiguous support pinned inside
    [i1, i3] forces h(i3-i1+1, i1) when i1 > -1 (k > 1 then kills the
    monomial, exterior square) and a(i3+1) when i1 = -1.
    """
    top = len(cbar) - 2
    if not (-1 <= i1 < i2 < i3 <= top):
        raise ParameterError("need -1 <= i1 < i2 < i3 <= %d, got (%d, %d, %d)"
                             % (top, i1, i2, i3))

    def at(col: int) -> int:
        return cbar[col + 1]

    k = at(i1) + at(i3) - mprime
    if k > at(i2):
        raise ParameterError("column sums already impossible for (%d, %d, %d)" % (i1, i2, i3))
    for col in range(-1, top + 1):
        if (col < i1 or col > i3) and at(col) != 0:
            raise ParameterError("column %d is nonzero outside [i1, i3]" % col)
    if k <= 0:
        return ForcedFactors(generator=None, count=0, vanishes=False)
    if i1 == -1:
        return ForcedFactors(generator=a(i3 + 1), count=k, vanishes=False)
    return ForcedFactors(generator=h(i3 - i1 + 1, i1), count=k, vanishes=k > 1)


@dataclass(frozen=True)
class CarrySolution:
    """One solution of the digit-column system for a target profile.

    cbar[0] is the remainder-column sum, cbar[1 + j] the sum for column j.
    lambdas[0] is the remainder carry, lambdas[1 + j] the carry out of
    column j; the top column has no carry out.
    """

    cbar: tuple
    lambdas: tuple


def carry_solutions(target, mprime_max, ctx):
    """All solutions of the column system with every cbar and lambda <=
    mprime_max, sorted by cbar: the lemma form of the carry test."""
    if mprime_max < 0:
        raise ParameterError("mprime_max must be nonnegative, got %d" % mprime_max)
    digits = target.digits
    p, q = ctx.p, ctx.q
    sols = []
    if not digits:
        if target.c_minus1 <= mprime_max:
            sols.append(CarrySolution(cbar=(target.c_minus1,), lambdas=()))
        return sols

    first_states = []
    lam = 0
    while True:
        cm = target.c_minus1 + lam * q
        if cm > mprime_max or lam > mprime_max:
            break
        first_states.append((cm, lam))
        lam += 1

    def extend(col, carry_in, cbar, lams):
        if col == len(digits) - 1:
            top = digits[col] - carry_in
            if 0 <= top <= mprime_max:
                sols.append(CarrySolution(cbar=tuple(cbar + [top]), lambdas=tuple(lams)))
            return
        lam_out = 0
        while lam_out <= mprime_max:
            c = digits[col] + lam_out * p - carry_in
            if c > mprime_max:
                break
            if c >= 0:
                extend(col + 1, lam_out, cbar + [c], lams + [lam_out])
            lam_out += 1

    for cm, lam in first_states:
        extend(0, lam, [cm], [lam])
    sols.sort(key=lambda s: s.cbar)
    return sols


def set_carry_feasible(t_rem, cap, support, ctx):
    """The digit-column carry test by dynamic programming over the set of
    every reachable carry, column by column.  Memory grows with cap.

    support is a bitmask: bit 0 is the remainder column, bit j+1 is column j.
    """
    if t_rem == 0:
        return True
    p, q = ctx.p, ctx.q
    body, cm = divmod(t_rem, q)
    cap_m1 = cap if support & 1 else 0
    if cm > cap_m1:
        return False
    carries = set()
    lam = 0
    while cm + lam * q <= cap_m1 and lam <= cap:
        carries.add(lam)
        lam += 1
    col = 0
    while body or (support >> (col + 1)):
        if not carries:
            return False
        body, d = divmod(body, p)
        cap_j = cap if (support >> (col + 1)) & 1 else 0
        nxt = set()
        for carry_in in carries:
            lam_out = 0
            while True:
                c = d + lam_out * p - carry_in
                if c > cap_j:
                    break
                if c >= 0:
                    nxt.add(lam_out)
                lam_out += 1
        carries = nxt
        col += 1
    # Any leftover carry must vanish through zero-capacity columns.
    while carries and 0 not in carries:
        carries = {lam // p for lam in carries if lam % p == 0}
    return 0 in carries


def carry_oracle(t, cap, mask, ctx):
    """The carry test's verdict by the set oracle over the columns of mask,
    and under a narrow cap, at most p - 2, where no carry is positive and
    the column sums are t mod q and then the digits of t/q, also by the run
    count of those sums: at most cap runs."""
    if not set_carry_feasible(t, cap, mask, ctx):
        return False
    if cap > ctx.p - 2:
        return True
    profile = padic_profile(t, ctx)
    return interval_starts((profile.c_minus1, *profile.digits)) <= cap


def span_vectors(rows, p):
    """Every vector in the row span, by brute force (tiny matrices only)."""
    cols = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p
                      for i in range(cols)))
    return out


def span_rank(rows, p):
    size = len(span_vectors(rows, p))
    k = 0
    while p ** k < size:
        k += 1
    assert p ** k == size
    return k


def units(mon):
    """The factors of a monomial expanded with multiplicity, in canonical order."""
    return [g for g, e in mon.factors for _ in range(e)]


def unit_summand_pairs(g):
    """The two-generator words of d1(g), in written order, with +1 coefficients."""
    if g.kind == "h":
        return [(h(g.i - k, k + g.j), h(k, g.j)) for k in range(1, g.i)]
    if g.kind == "a":
        return [(h(g.i - k, k), a(k)) for k in range(0, g.i)]
    return []


def unit_d1_monomial(mon, ctx):
    """d1 of a canonical monomial by the Leibniz rule on every expanded unit:
    substitute each summand pair into the word and canonicalize the result.
    Raw (unreduced) coefficients keyed by monomial."""
    word = units(mon)
    accum = {}
    h_before = 0
    for pos, g in enumerate(word):
        prefix_sign = -1 if h_before % 2 else 1
        for pair in unit_summand_pairs(g):
            res = canonicalize_word(word[:pos] + list(pair) + word[pos + 1:], ctx)
            if res is None:
                continue
            sign, out = res
            accum[out] = accum.get(out, 0) + prefix_sign * sign
        if g.is_exterior:
            h_before += 1
    return accum


def key_monomials(basis, ctx):
    """The monomials of a basis in its own column order, decoded from each
    packed key by reading every field of its layout in turn, each the field
    of one generator of generator_universe of the basis's degree."""
    layout = basis.layout
    mask = (1 << layout.width) - 1
    universe = generator_universe(ctx, basis.t) if basis.keys else ()
    out = []
    for key in basis.keys:
        fields = [(g, key >> (k * layout.width) & mask) for k, g in enumerate(universe)]
        assert key >> (len(fields) * layout.width) == 0, "bits past the universe"
        out.append(monomial_from_factors([(g, e) for g, e in fields if e], ctx))
    return out


def block_of(monomials, ctx):
    """A basis of the given monomials, of one (s, t), in the given order,
    packed on a fresh layout of the universe of degree t at the width of
    s, shared with no search."""
    s, t = monomials[0].tridegree.s, monomials[0].tridegree.t
    assert all((m.tridegree.s, m.tridegree.t) == (s, t) for m in monomials)
    layout = Layout(*enumeration._generator_rows(ctx.p, t)[:2], (s + 1).bit_length())
    return BidegreeBasis(ctx.p, s, t, layout, tuple(layout.pack(m.factors) for m in monomials),
                         tuple(m.tridegree.u for m in monomials))


def codomain_matrix(block, codomain, ctx):
    """d1_matrix with its rows numbered by an enumerated codomain basis: the
    matrix whose row r is codomain[r].  Fails when an image monomial lies
    outside the codomain, which would mean that basis is incomplete.  An
    empty block, whose layout may hold no universe, gives no columns."""
    if not block.dimension:
        return MatrixFp(modulus=ctx.p, rows=len(codomain), cols=0, columns=())
    m = d1_matrix(block, ctx, packed_seeds(block, codomain))
    if m.rows > len(codomain):
        known = set(codomain)
        outside = {out for mon in key_monomials(block, ctx)
                   for out in d1(element_from_monomial(mon, ctx), ctx).terms
                   if out not in known}
        raise AssertionError("image monomials missing from the codomain basis: %s"
                             % sorted(out.render() for out in outside))
    return m


def packed_seeds(block, monomials):
    """The seeds d1_matrix takes for rows numbered by monomials: their keys
    on the block's layout, which holds every generator and exponent of a
    monomial of the block's degree and at most one filtration more."""
    return [block.layout.pack(mon.factors) for mon in monomials]


def image_d1_matrix(block, ctx, seeds=()):
    """The oracle of d1_matrix: the matrix of the d1() images of the
    monomials of a basis, in its column order, which go through the
    factor-tuple path.  seeds[k] is row k; the other image monomials are
    numbered in first-seen order after them."""
    row_of = {mon.factors: r for r, mon in enumerate(seeds)}
    columns = tuple({row_of.setdefault(out.factors, len(row_of)): c
                     for out, c in d1(element_from_monomial(mon, ctx), ctx).terms.items()}
                    for mon in key_monomials(block, ctx))
    return MatrixFp(modulus=ctx.p, rows=len(row_of), cols=len(columns), columns=columns)


def matrix_from_rows(rows: Sequence[Sequence[int]], p: int, cols: int | None = None) -> MatrixFp:
    if p < 2:
        raise ParameterError("modulus must be at least 2, got %d" % p)
    if cols is None:
        if not rows:
            raise ParameterError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    for r, row in enumerate(rows):
        if len(row) != cols:
            raise ParameterError("ragged rows: expected %d columns, got %d" % (cols, len(row)))
        for c, v in enumerate(row):
            v %= p
            if v:
                columns[c][r] = v
    return MatrixFp(modulus=p, rows=len(rows), cols=cols, columns=tuple(columns))


def transpose(m):
    rows = m.to_rows()
    return matrix_from_rows([[row[c] for row in rows] for c in range(m.cols)], m.modulus,
                            cols=m.rows)


def mat_vec(m, v):
    if len(v) != m.cols:
        raise ParameterError("vector length %d does not match %d columns" % (len(v), m.cols))
    return tuple(sum(x * y for x, y in zip(row, v)) % m.modulus for row in m.to_rows())


def dense_rref(rows, p):
    """Reduced row echelon form of a copy of rows: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, nrows) if rows[rr][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c]:
                f = rows[rr][c]
                rows[rr] = [(rows[rr][k] - f * rows[r][k]) % p for k in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_rank(m):
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(dense_rref(m.to_rows(), m.modulus)[1])


def dense_in_span(m, v):
    """Solve m @ c = v through the augmented echelon form, or None."""
    p = m.modulus
    if m.cols == 0:
        return () if all(x % p == 0 for x in v) else None
    if m.rows == 0:
        return (0,) * m.cols
    rref, pivots = dense_rref([row + [x % p] for row, x in zip(m.to_rows(), v)], p)
    if m.cols in pivots:
        return None
    sol = [0] * m.cols
    for r, pc in enumerate(pivots):
        sol[pc] = rref[r][m.cols]
    return tuple(sol)
