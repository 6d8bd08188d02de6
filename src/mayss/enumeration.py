"""Complete monomial bases of a tridegree, with provably safe pruning.

A monomial of filtration s and internal degree t draws its factors from the
finite universe of generators with deg <= t and filt <= s.  The search is a
depth-first multiset selection over that universe in decreasing degree order.
Every pruning rule here is a necessary condition on any completion of the
partial selection, so the search always runs all of them; the tests run it
with fewer rules and hold the results equal.

The strong rule is the digit-column system.  Each generator contributes one
unit to a contiguous range of base-p digit columns of t/q (the a(i) also
contribute one unit to the extra "remainder" column holding t mod q):

    a(i): remainder column and columns 0 .. i-1
    h(i,j): columns j .. i+j-1
    b(i,j): columns j+1 .. i+j

Writing cbar_j for the column sums of a candidate monomial, compatibility
with the target profile requires nonnegative carries lambda with

    cbar_{-1} = c_{-1} + lambda_{-1} q
    cbar_j + lambda_{j-1} = c_j + lambda_j p      (no carry out of the top)

and every cbar_j is at most the number of factors, hence at most the
remaining filtration.  Each search node checks that system for the residual
degree, with every column its remaining generators cannot reach capped at 0.
The carries that can enter a column always form an interval [0, hi]: a
column of digit d and capacity cap passes on exactly the carries
0 .. (hi + cap - d) // p, since d >= 0 makes the lower end 0 reachable
whenever any carry is.  So one integer recurrence over the columns decides
the system exactly, with the top carry hi >= 0 as its only condition.

At the root, with cap s, that test also covers the two digit-wise
vanishing bounds.  A remainder t mod q above s fails the remainder column
outright.  For s < p the carries stay in [0, 0], so any digit of t/q above
s fails its column.

The search order also lets a node skip, without testing them, the
candidates that cannot pass.  Generators heavier than the remaining degree
form a prefix of the order, so the loop starts past them by bisection.
Within one filtration f the remaining filtration after a pick is fixed, the
remaining degree never decreases along the order, and the best
degree-per-filtration ratio of the remaining suffix never increases; so once
the degree upper bound fails for a generator of filtration f it fails for
every later one, and the loop stops when both filtrations are closed.  The
lower degree bound and the carry test are not monotone along the order and
are tested per candidate.  With the degree rule off every candidate is
visited.

One search serves a window of filtrations [s_lo, s_hi] at one t: a
second-page query at (s, t) reads the bases of s - 1 and s, which share
the universe of filtration s.  A node whose picks used filtration
`used` may still end in any filtration of the window, so a rule may prune
only when it fails for every one of them; each rule below is the weakest
case of its single-filtration form, hence still necessary for some
completion, hence lossless.

  * A leaf is any node with no degree left whose used filtration lies in
    the window.
  * The upper degree bound, and so the degree-ordered skip, use the largest
    filtration left, s_hi - used - f: it bounds the degree any completion
    can still add.  Along the order within filtration f it is fixed, so the
    skip's monotonicity argument holds unchanged, and a filtration closes
    exactly as in a single search, also when no filtration is left but
    degree is.
  * The lower degree bound uses the smallest, max(0, s_lo - used - f): a
    completion needs at least that much filtration, so at least that many
    units of the suffix's least degree per filtration.
  * The carry test caps the column sums by the largest filtration left.
    A solution under a smaller cap is a solution under a larger one.
  * The root's lower degree bound and its carry test decide per
    filtration at the root, and the window shrinks to span the filtrations
    that pass.  Each is a necessary condition on one bidegree, so a
    filtration it drops has no monomials, also one left inside the shrunk
    window.

A window of one filtration is exactly the single-filtration search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .algebra import Generator, Monomial, a, b, h
from .errors import ParameterError
from .grading import PrimeContext, Tridegree, check_degree

PRUNE_DEGREE = "degree"
PRUNE_CARRY = "carry"
ALL_PRUNING = frozenset({PRUNE_DEGREE, PRUNE_CARRY})

# The search recurses once per factor, so up to s levels deep.  Filtrations
# above this bound are rejected with a ParameterError, well before Python's
# default recursion limit of 1000 frames.
MAX_FILTRATION = 512

_memo: dict[tuple, "BidegreeBasis"] = {}


@dataclass(frozen=True)
class BidegreeBasis:
    """Every canonical monomial of one (s, t) bidegree, optionally one weight."""

    p: int
    s: int
    t: int
    monomials: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def weights(self) -> list[int]:
        return [m.tridegree.u for m in self.monomials]


def generator_universe(ctx: PrimeContext, t_max: int, s_max: int) -> list[Generator]:
    """All generators with deg <= t_max and filt <= s_max, canonically sorted."""
    out: list[Generator] = []
    if t_max < 1 or s_max < 1:
        return out
    p = ctx.p
    i = 0
    while 2 * p**i - 1 <= t_max:
        out.append(a(i))
        i += 1
    i = 1
    while 2 * (p**i - 1) <= t_max:
        j = 0
        while 2 * (p**i - 1) * p**j <= t_max:
            out.append(h(i, j))
            j += 1
        i += 1
    if s_max >= 2:
        i = 1
        while 2 * (p**i - 1) * p <= t_max:
            j = 0
            while 2 * (p**i - 1) * p ** (j + 1) <= t_max:
                out.append(b(i, j))
                j += 1
            i += 1
    out.sort(key=lambda g: g.key)
    return out


def digit_span(g: Generator) -> tuple[int, int]:
    """Inclusive column range [lo, hi] a generator contributes to; -1 is the
    remainder column.  a(0) contributes to the remainder column only."""
    if g.kind == "a":
        return (-1, g.i - 1)
    if g.kind == "h":
        return (g.j, g.i + g.j - 1)
    return (g.j + 1, g.i + g.j)


# --- the digit-column carry system ----------------------------------------


def _carry_feasible(t_rem: int, cap: int, support: int, ctx: PrimeContext) -> bool:
    """Whether the residual degree admits any column solution with sums
    bounded by cap and restricted to the supported columns.

    support is a bitmask: bit 0 is the remainder column, bit j+1 is column
    j.  Necessary for any completion.

    The reachable carries always form an interval [0, hi], so one integer
    follows them.  Out of the remainder column they are the lam >= 0 with
    cm + lam*q <= cap_m1, that is [0, (cap_m1 - cm) // q], which holds 0
    once cm <= cap_m1 (and never passes cap, since cap_m1 <= cap).  Into
    column j with digit d and capacity cap_j, a carry out lam >= 0 is
    reachable iff some carry in c in [0, hi] gives
    0 <= d + lam*p - c <= cap_j; as d >= 0 that holds iff
    d + lam*p - cap_j <= hi.  So the carries out are
    [0, (hi + cap_j - d) // p], empty when that bound is negative.  The top
    column must carry out 0, which an interval from 0 holds whenever it is
    non-empty, and past the top digit d = 0 keeps hi >= 0.  So the test is
    that hi stays >= 0 through the digits of t_rem: time linear in them,
    memory constant in cap.
    """
    p, q = ctx.p, ctx.q
    body, cm = divmod(t_rem, q)
    cap_m1 = cap if support & 1 else 0
    if cm > cap_m1:
        return False
    hi = (cap_m1 - cm) // q
    cols = support >> 1
    while body:
        # body % p is this column's digit d, cols & 1 its support bit.
        hi = (hi + (cap if cols & 1 else 0) - body % p) // p
        if hi < 0:
            return False
        body //= p
        cols >>= 1
    return True


# --- the search ------------------------------------------------------------


def _search(ctx: PrimeContext, s_lo: int, s_hi: int, t: int,
            flags: frozenset[str]) -> dict[int, list[tuple[str, Monomial]]]:
    """The monomials of every bidegree (s, t) with s_lo <= s <= s_hi, from one
    depth-first pass pruned by the named rules, keyed by s.  Each monomial
    comes with its rendered text, in search order.  enumerate_basis always
    passes ALL_PRUNING; fewer rules give the same monomials, which is how the
    tests check that each rule is lossless."""
    found: dict[int, list[tuple[str, Monomial]]] = {s: [] for s in range(s_lo, s_hi + 1)}
    use_degree = PRUNE_DEGREE in flags
    use_carry = PRUNE_CARRY in flags
    # The carry test with every column supported needs no universe, so a
    # huge t that no filtration of the window admits ends before one is built.
    if use_carry and not any(_carry_feasible(t, s, -1, ctx) for s in found):
        return found
    universe = generator_universe(ctx, t, s_hi)   # canonical (key) order
    tri = [g.tridegree(ctx) for g in universe]
    # Search order: decreasing degree, ties in canonical order.  pos[k] is
    # the canonical position of the k-th generator of the search order.
    pos = sorted(range(len(universe)), key=lambda c: (-tri[c].t, c))
    n = len(pos)
    order = [universe[c] for c in pos]
    degs = [tri[c].t for c in pos]
    neg_degs = [-d for d in degs]     # ascending, for bisect
    filts = [tri[c].s for c in pos]
    weights = [tri[c].u for c in pos]
    # An exterior generator is picked at most once, so the search moves past it.
    nidx = [k + 1 if g.is_exterior else k for k, g in enumerate(order)]

    # Per suffix: supported columns, and the extreme degree-per-filtration
    # fractions for the reachability bounds.
    supp = [0] * (n + 1)
    max_frac = [(0, 1)] * (n + 1)   # (deg, filt) with max deg/filt in the suffix
    min_frac = [(1, 0)] * (n + 1)   # min deg/filt; (1, 0) acts as +infinity
    for k in range(n - 1, -1, -1):
        lo, hi = digit_span(order[k])
        mask = 0
        for col in range(lo, hi + 1):
            mask |= 1 << (col + 1)
        supp[k] = supp[k + 1] | mask
        d, f = degs[k], filts[k]
        md, mf = max_frac[k + 1]
        max_frac[k] = (d, f) if d * mf > md * f else (md, mf)
        md, mf = min_frac[k + 1]
        min_frac[k] = (d, f) if d * mf < md * f else (md, mf)

    def root_feasible(s: int) -> bool:
        # The root's own lower degree bound and carry test; rec tests every
        # child, the upper degree bound in its loop where it can end the loop.
        md, mf = min_frac[0]
        if use_degree and t * mf < s * md:
            return False
        return not use_carry or _carry_feasible(t, s, supp[0], ctx)

    live = [s for s in found if root_feasible(s)]
    if not live:
        return found
    s_lo, s_hi = live[0], live[-1]
    span = s_hi - s_lo
    # Each (canonical position, exponent) run as a factor and its text,
    # made on first use.
    pieces: dict[tuple[int, int], tuple[tuple[Generator, int], str]] = {}
    chosen: list[int] = []   # canonical positions of the picks

    def leaf(s: int, u: int):
        # Canonical positions order the factors as monomial_from_factors would.
        factors, texts = [], []
        for c in sorted(set(chosen)):
            run = (c, chosen.count(c))
            piece = pieces.get(run)
            if piece is None:
                g, e = universe[c], run[1]
                piece = pieces[run] = ((g, e), g.text if e == 1 else "%s^%d" % (g.text, e))
            factors.append(piece[0])
            texts.append(piece[1])
        found[s].append((" ".join(texts),
                         Monomial(factors=tuple(factors), tridegree=Tridegree(s, t, u))))

    def rec(idx: int, s_rem: int, t_rem: int, u: int):
        # s_rem is the largest filtration left, s_rem - span the smallest.
        if not t_rem:
            if s_rem <= span:
                leaf(s_hi - s_rem, u)
            return
        # Filtrations (bit f for f in {1, 2}) whose upper bound still holds.
        open_filts = 3 if s_rem >= 2 else 1
        # Generators heavier than t_rem form a prefix of the order.
        for k in range(max(idx, bisect_left(neg_degs, -t_rem)), n):
            f = filts[k]
            if f > s_rem:
                continue
            ns, nt = s_rem - f, t_rem - degs[k]
            ni = nidx[k]
            ns_lo = ns - span         # below 0 it bounds nothing, as 0 would
            if nt or ns_lo > 0:
                if use_degree:
                    md, mf = max_frac[ni]
                    if nt * mf > ns * md:
                        # Lossless skip: within filtration f, ns is fixed,
                        # nt never decreases along the order (degs never
                        # increases), and max_frac[ni] never increases (ni is
                        # k or k+1, so never decreases, and the suffix shrinks).
                        # So the bound fails for every later generator of
                        # filtration f too.
                        open_filts &= ~f
                        if not open_filts:
                            break
                        continue
                    md, mf = min_frac[ni]
                    if nt * mf < ns_lo * md:
                        continue
                if use_carry and not _carry_feasible(nt, ns, supp[ni], ctx):
                    continue
            chosen.append(pos[k])
            rec(ni, ns, nt, u + weights[k])
            chosen.pop()

    rec(0, s_hi, t, 0)
    # rec reaches itself through its closure; unbinding it frees the
    # per-search lists now instead of at the next full garbage collection.
    rec = None
    return found


def _check(s: int, t: int) -> None:
    if s < 0 or t < 0:
        raise ParameterError("filtration and degree must be nonnegative, got (%d, %d)" % (s, t))
    if s > MAX_FILTRATION:
        raise ParameterError("filtration %d exceeds %d" % (s, MAX_FILTRATION))
    check_degree(t)


def _fill(ctx: PrimeContext, s_lo: int, s_hi: int, t: int, cache) -> None:
    """Memoize the bases of (s, t) for s_lo <= s <= s_hi: each from the memo,
    else from the cache, else from one window search over the missing ones,
    whose leaves are sorted by their text into a basis, memoized and stored.
    Bases already in the memo are kept as they are."""
    missing = []
    for s in range(s_lo, s_hi + 1):
        if (ctx.p, s, t) in _memo:
            continue
        basis = cache.load_basis(ctx, s, t) if cache is not None else None
        if basis is None:
            missing.append(s)
        else:
            _memo[ctx.p, s, t] = basis
    if not missing:
        return
    found = _search(ctx, missing[0], missing[-1], t, ALL_PRUNING)
    for s in missing:
        leaves = sorted(found[s], key=itemgetter(0))
        basis = BidegreeBasis(p=ctx.p, s=s, t=t, monomials=tuple(mon for _, mon in leaves))
        _memo[ctx.p, s, t] = basis
        if cache is not None:
            cache.store_basis(basis)


def enumerate_basis(ctx: PrimeContext, s: int, t: int, u: int | None = None,
                    cache=None) -> BidegreeBasis:
    """The complete basis of tridegree (s, t, u), or of the whole (s, t)
    bidegree when u is None.  Sorted by rendered monomial."""
    _check(s, t)
    _fill(ctx, s, s, t, cache)
    basis = _memo[ctx.p, s, t]
    if u is None:
        return basis
    picked = tuple(m for m in basis.monomials if m.tridegree.u == u)
    return BidegreeBasis(p=ctx.p, s=s, t=t, monomials=picked)


def _enumerate_window(ctx: PrimeContext, s: int, t: int, cache) -> None:
    """Memoize the bases of (s - 1, t) and (s, t), the two a second-page
    query at (s, t) reads, searching the missing ones in one pass.

    The query's d1 lands in filtration s + 1, so s + 1 is range-checked too,
    after s, though never searched: an out-of-range window fails before any
    search."""
    _check(s, t)
    _check(s + 1, t)
    _fill(ctx, max(s - 1, 0), s, t, cache)


def clear_memo() -> None:
    """Drop the in-process basis memo (tests use this around cache checks)."""
    _memo.clear()
