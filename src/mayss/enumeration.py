"""Complete monomial bases of a tridegree, with provably safe pruning.

A monomial of filtration s and internal degree t draws its factors from the
finite universe of generators with deg <= t and filt <= s.  The search is a
depth-first multiset selection over that universe in decreasing degree order.
Every pruning rule here is a necessary condition on any completion of the
partial selection, so the search runs all of them, always.  The tests hold
each basis to an independent count of the E1-term per weight
(tests/helpers.py:e1_dims): with every monomial canonical, of the right
tridegree and distinct, equal counts prove the basis complete.

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
are tested per candidate.

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
  * The root's carry test and its lower degree bound decide per
    filtration at the root, and the window shrinks to span the filtrations
    that pass.  Each is a necessary condition on one bidegree, so a
    filtration it drops has no monomials, also one left inside the shrunk
    window.  The carry test runs first, with every column supported, before
    any universe is built.

A window of one filtration is exactly the single-filtration search.

The search emits packed exponent keys, not Monomials.  The universe, in
canonical order, gives generator k the bit field [k*w, (k+1)*w) with
w = (s_hi + 1).bit_length(), and each pick of generator k adds 1 << (k*w)
to the key carried down the search, so a leaf's key holds its exponents.
No exponent of a monomial of filtration at most s_hi passes s_hi, and d1
raises one exponent by at most one, so no field ever carries into the next
(see differential.d1_matrix).  The bases keep that layout, the search's
own: a d1 summand of a generator of degree at most t is an a or an h, of
filtration 1 and of smaller degree, so the universe already holds every
generator an image can hold.

a(0) is the only generator of degree 1 (every other has degree at least
2p - 1), so it is the last candidate of every node, and it has filtration
1.  Once it is picked nothing else can follow, so that branch has exactly
one completion, a(0)^t_rem, which uses filtration t_rem: a leaf exactly
when the filtration left after it lies in the window, that is when
t_rem <= s_rem <= t_rem + span.  The search decides that branch by this
test and emits its one leaf directly instead of recursing once per unit;
the test is exact, so lossless.

The leaves under a search node depend only on its state (idx, s_rem, t_rem):
the first candidate of its loop, the largest filtration left and the degree
left.  Every rule above reads the state, the window's span and the tables
of the search order, and nothing of the picks that led there; the key and
weight a path carries are only added to.  So the search is a function of
the state, memoized for one search, that returns the state's leaves as
suffixes in search order, each packed into one int: its key in the fields
of the universe, its weight in the bits past the last field and its
filtration left above that.  A state's list is, in loop order, each passing
candidate's leaf or its child state's list with the candidate's unit and
weight added, then the a(0) leaf.  That is exactly the order in which a
depth-first walk reaches them, since the walk below a child is the child's
list; the root files each leaf under its filtration, so every basis keeps
the depth-first order.  The candidate loop, every pruning rule, the early
close of filtrations and the a(0) leaf run once per state, not once per
path to it.  On the four dense second-page windows of the benchmark a plain
tree walk makes 25,938 calls, whose states with degree left number only
4,641, and most repeated work lies below states that have leaves, which a
memo of empty results alone would not share.  Where no state repeats, the
memo costs a dictionary probe per child, and every state without leaves
shares one empty result.

The universe and the tables of its search order (positions, degrees,
filtrations, weights, first child candidates, suffix supports and
degree-per-filtration extremes) are shared by every search over the same
universe: a verify scenario searches single filtrations at several
neighbouring degrees, all over one universe.  The universe of (t, s_hi)
holds the generators of degree at most t and filtration at most s_hi, so
it is fixed by p, by min(s_hi, 2) (a universe of filtration 0 is empty,
every a and h has filtration 1 and every b filtration 2) and by the
largest generator degree at most t; the tables are keyed by those three.
b(i,j) has the degree of h(i,j+1), so the b's add no degree to that key's
thresholds: the a(i) and h(i,j) give them all.  The key is computed only
after the root carry test has passed, since at a huge t it takes one step
per tower index.  One table set is kept per (p, min(s_hi, 2)), replaced
when a search needs another universe, and clear_memo drops it with the
bases, so a cycle that starts from clear_memo builds its tables again.
The tables are tuples because every later search reads them: a search
that wrote to one would change the next one's results.  The window fields
(s_hi, span) and the root tests stay per search.  The search's layout,
whose field width follows s_hi, is shared too, one per width, so the
generator positions, the exterior mask and the d1 plans kept on it are
built once per universe and width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .algebra import Generator, Monomial, a, b, h
from .errors import ParameterError
from .grading import PrimeContext, Tridegree, check_degree

# The search recurses once per factor other than a(0), so up to s levels
# deep.  Filtrations above this bound are rejected with a ParameterError,
# well before Python's default recursion limit of 1000 frames.
MAX_FILTRATION = 512

_memo: dict[tuple, "BidegreeBasis"] = {}
# (p, min(s_hi, 2)) -> (top degree, universe, search tables, layouts by
# width); see _tables
_shared: dict[tuple[int, int], tuple[int, tuple, "_Order", dict[int, "Layout"]]] = {}


@dataclass(frozen=True, eq=False)
class Layout:
    """A generator universe in canonical order, each generator owning one
    bit field of a packed key: universe[k] holds its exponent in bits
    [k*width, (k+1)*width).  It is the universe of the search that made the
    keys, which holds every generator of their d1 images (module
    docstring).  `plans` keeps, per canonical position, what d1_matrix
    derives from a generator, so that every block on this layout reuses
    it.  Searches over one universe share its layout per width, and a
    basis read from a cache has one of its own; repack moves keys between
    two layouts."""

    universe: tuple[Generator, ...]
    width: int
    plans: dict = field(default_factory=dict)

    @cached_property
    def position(self) -> dict[Generator, int]:
        return {g: k for k, g in enumerate(self.universe)}

    @cached_property
    def exterior(self) -> int:
        """The lowest bit of every exterior generator's field."""
        # One binary string, top field first, is linear in the universe; a
        # sum of shifted ints is quadratic.
        one, zero = "0" * (self.width - 1) + "1", "0" * self.width
        return int("".join(one if g.is_exterior else zero for g in reversed(self.universe))
                   or "0", 2)

    def fields(self, key: int):
        """(canonical position, exponent) of every nonzero field of a key,
        in canonical order."""
        w = self.width
        mask = (1 << w) - 1
        while key:
            shift = (key & -key).bit_length() - 1
            shift -= shift % w
            e = key >> shift & mask
            yield shift // w, e
            key -= e << shift

    def pack(self, factors) -> int | None:
        """The key of a factor tuple, or None when a generator lies outside
        the universe or an exponent does not fit its field."""
        key = 0
        for g, e in factors:
            k = self.position.get(g)
            if k is None or e >> self.width:
                return None
            key += e << (k * self.width)
        return key

    def repack(self, keys, source: "Layout"):
        """Keys of the source layout on this one, field by field, each None
        where pack gives None; the keys themselves when the layouts are
        one."""
        if source is self:
            return keys
        universe = source.universe
        return [self.pack([(universe[k], e) for k, e in source.fields(key)]) for key in keys]


class BidegreeBasis:
    """Every canonical monomial of one (s, t) bidegree, optionally one weight.

    The basis is stored packed, in search order: keys[k] holds the
    exponents of the k-th monomial in the fields of `layout`, the universe
    of the search that found it, and weights[k] is its weight.  `monomials`,
    the same monomials as Monomial objects sorted by render, is built from
    the keys on its first read and kept; the second-page path never reads
    it.

    A basis read back from a cache is made by from_monomials.  It holds its
    monomials, in the given order, and packs its keys on their first read.

    `ranks` maps a weight to the rank of d1 on that block, filled by
    pages.e2_dimension; it lives and is dropped with the basis.
    """

    def __init__(self, p: int, s: int, t: int, layout: Layout,
                 keys: tuple[int, ...], weights: tuple[int, ...]):
        self.p, self.s, self.t = p, s, t
        self.layout, self.keys, self.weights = layout, keys, weights
        self.ranks: dict[int, int] = {}

    @classmethod
    def from_monomials(cls, ctx: PrimeContext, s: int, t: int, monomials) -> "BidegreeBasis":
        """A basis of (s, t) given by monomials of that bidegree, on the
        layout a search of (s, t) builds, or on the empty layout when there
        are none."""
        basis = cls.__new__(cls)
        basis.p, basis.s, basis.t = ctx.p, s, t
        basis.monomials = tuple(monomials)
        basis.layout = Layout(tuple(generator_universe(ctx, t, s)) if basis.monomials else (),
                              (s + 1).bit_length())
        basis.weights = tuple(mon.tridegree.u for mon in basis.monomials)
        basis.ranks = {}
        return basis

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        # Equal factors and equal tridegrees are each one object, shared by
        # every monomial that holds them.
        layout = self.layout
        factor_of: dict[tuple[int, int], tuple[Generator, int]] = {}
        degrees = {u: Tridegree(self.s, self.t, u) for u in set(self.weights)}
        out = []
        for key, u in zip(self.keys, self.weights):
            factors = []
            for run in layout.fields(key):
                factor = factor_of.get(run)
                if factor is None:
                    factor = factor_of[run] = (layout.universe[run[0]], run[1])
                factors.append(factor)
            out.append(Monomial(factors=tuple(factors), tridegree=degrees[u]))
        return tuple(sorted(out, key=Monomial.render))

    @cached_property
    def keys(self) -> tuple[int, ...]:
        # reached only by a basis made from monomials
        return tuple(self.layout.pack(mon.factors) for mon in self.monomials)

    @cached_property
    def _by_weight(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for k, u in enumerate(self.weights):
            out.setdefault(u, []).append(k)
        return out

    def block(self, u: int) -> "BidegreeBasis":
        """The monomials of weight u, in this basis's order, on its layout."""
        picked = self._by_weight.get(u, ())
        keys = self.keys
        return BidegreeBasis(self.p, self.s, self.t, self.layout,
                             tuple(keys[k] for k in picked), (u,) * len(picked))


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


class _Order(NamedTuple):
    """What every node of one window's search reads: the live filtrations,
    and per generator of the search order (decreasing degree, ties in
    canonical order) or per suffix of it, the tables below.  The tables are
    shared by every search over the same universe (see _tables); s_hi and
    span are each search's own."""

    s_hi: int                        # the largest live filtration
    span: int                        # s_hi minus the smallest
    pos: tuple[int, ...]                   # canonical position
    degs: tuple[int, ...]
    neg_degs: tuple[int, ...]              # ascending, for bisect
    filts: tuple[int, ...]
    weights: tuple[int, ...]
    nidx: tuple[int, ...]                  # a child's first candidate: past an exterior pick
    supp: tuple[int, ...]                  # per suffix: supported columns
    max_frac: tuple[tuple[int, int], ...]  # per suffix: (deg, filt) with max deg/filt
    min_frac: tuple[tuple[int, int], ...]  # per suffix: min deg/filt; (1, 0) acts as +infinity


def _top_degree(p: int, t: int) -> int:
    """The largest degree of a generator at most t, 0 when there is none.

    b(i,j) has the degree of h(i,j+1), so the a(i) and h(i,j) give every
    generator degree.  Within one i the largest h(i,j) that fits has
    j >= 0 and its p^j only shrinks as i grows, so one pass down the powers
    of p serves every i."""
    top, pw = 0, 1
    while 2 * pw - 1 <= t:          # a(i), of degree 2 p^i - 1
        top, pw = 2 * pw - 1, pw * p
    base, pw = 2 * (p - 1), 1       # h(i,j), of degree base * p^j with base = 2 (p^i - 1)
    while base * pw * p <= t:
        pw *= p
    while base <= t:
        while base * pw > t:
            pw //= p
        top = max(top, base * pw)
        base = base * p + 2 * (p - 1)
    return top


def _tables(ctx: PrimeContext, t: int, s_hi: int) -> tuple[tuple[Generator, ...], _Order,
                                                             dict[int, Layout]]:
    """The universe of the generators with deg <= t and filt <= s_hi, in
    canonical order, the tables of its search order, as an _Order whose
    window fields (s_hi, span) are left 0 for each search to fill in, and
    the layouts of the universe by field width, filled by _order.  They are
    built once per universe and shared until a search needs another
    universe of the same (p, min(s_hi, 2)), or until clear_memo (module
    docstring)."""
    key = (ctx.p, min(s_hi, 2))
    top = _top_degree(ctx.p, t)
    kept = _shared.get(key)
    if kept is not None and kept[0] == top:
        return kept[1:]
    universe = tuple(generator_universe(ctx, t, s_hi))
    tri = [g.tridegree(ctx) for g in universe]
    pos = sorted(range(len(universe)), key=lambda c: (-tri[c].t, c))
    n = len(pos)
    order = [universe[c] for c in pos]
    degs = [tri[c].t for c in pos]
    filts = [tri[c].s for c in pos]
    supp = [0] * (n + 1)
    max_frac = [(0, 1)] * (n + 1)
    min_frac = [(1, 0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        lo, hi = digit_span(order[k])   # bits lo + 1 .. hi + 1 of the mask
        supp[k] = supp[k + 1] | ((1 << (hi - lo + 1)) - 1) << (lo + 1)
        d, f = degs[k], filts[k]
        md, mf = max_frac[k + 1]
        max_frac[k] = (d, f) if d * mf > md * f else (md, mf)
        md, mf = min_frac[k + 1]
        min_frac[k] = (d, f) if d * mf < md * f else (md, mf)
    tables = _Order(0, 0, tuple(pos), tuple(degs), tuple(-d for d in degs), tuple(filts),
                    tuple(tri[c].u for c in pos),
                    tuple(k + 1 if g.is_exterior else k for k, g in enumerate(order)),
                    tuple(supp), tuple(max_frac), tuple(min_frac))
    _shared[key] = (top, universe, tables, {})
    return _shared[key][1:]


def _order(ctx: PrimeContext, s_lo: int, s_hi: int, t: int) -> tuple[Layout, _Order | None]:
    """The layout of the window's universe, and its search order narrowed to
    the filtrations that pass the root's tests, None when none does."""
    width = (s_hi + 1).bit_length()
    # The root carry test needs no universe, so a huge t that no filtration
    # of the window admits ends before one is built or its key computed
    # (_top_degree loops once per tower index).  Supporting every column
    # loses nothing against the universe's own support: the recurrence reads
    # only the remainder column and the digit columns of t/q, and the
    # universe holds a(0) and h(1,j) for each of them.
    live = [s for s in range(s_lo, s_hi + 1) if _carry_feasible(t, s, -1, ctx)]
    if not live:
        return Layout((), width), None
    universe, tables, layouts = _tables(ctx, t, s_hi)
    # The root's lower degree bound; every node tests each child, the upper
    # degree bound in its loop where it can end the loop.
    md, mf = tables.min_frac[0]
    live = [s for s in live if t * mf >= s * md]
    layout = layouts.get(width)
    if layout is None:
        layout = layouts[width] = Layout(universe, width)
    if not live:
        return layout, None
    return layout, tables._replace(s_hi=live[-1], span=live[-1] - live[0])


def _walk(ctx: PrimeContext, o: _Order, t: int, width: int, found) -> None:
    """File every leaf of the search from the root (0, o.s_hi, t) under its
    filtration in found, in search order: its key and its weight.

    leaves(idx, s_rem, t_rem) is the list of a state's leaves, each packed
    into one int: its key, its weight from bit ushift and its filtration
    left from bit sshift.  It is memoized for the duration of this walk (see
    the module docstring).
    """
    s_hi, span, pos, degs, neg_degs, filts, weights, nidx, supp, max_frac, min_frac = o
    n = len(pos)
    ushift = n * width
    # A leaf has at most s_hi factors, so its weight fits below sshift.
    sshift = ushift + (s_hi * max(weights, default=0)).bit_length()
    # a(0), when the universe is not empty: the last generator of the order,
    # in canonical position 0, so its unit is 1 and its weight 1.
    last = n - 1
    memo: dict[tuple[int, int, int], list[int] | tuple] = {}
    dead = ()   # the one result of every state without leaves

    def leaves(idx: int, s_rem: int, t_rem: int):
        # s_rem is the largest filtration left, s_rem - span the smallest.
        if not t_rem:
            return [s_rem << sshift] if s_rem <= span else dead
        out = []
        # Filtrations (bit f for f in {1, 2}) whose upper bound still holds.
        open_filts = 3 if s_rem >= 2 else 1
        # Generators heavier than t_rem form a prefix of the order.
        for k in range(max(idx, bisect_left(neg_degs, -t_rem)), last):
            f = filts[k]
            if f > s_rem:
                continue
            ns, nt = s_rem - f, t_rem - degs[k]
            ni = nidx[k]
            ns_lo = ns - span         # below 0 it bounds nothing, as 0 would
            if nt or ns_lo > 0:
                md, mf = max_frac[ni]
                if nt * mf > ns * md:
                    # Lossless skip: within filtration f, ns is fixed, nt
                    # never decreases along the order (degs never increases),
                    # and max_frac[ni] never increases (ni is k or k+1, so
                    # never decreases, and the suffix shrinks).  So the bound
                    # fails for every later generator of filtration f too,
                    # a(0) among them when f is 1.
                    open_filts &= ~f
                    if not open_filts:
                        return out or dead
                    continue
                md, mf = min_frac[ni]
                if nt * mf < ns_lo * md:
                    continue
                if not _carry_feasible(nt, ns, supp[ni], ctx):
                    continue
            else:
                # No degree left in a filtration of the window: the pick
                # ends a leaf.
                out.append((1 << (pos[k] * width)) + (weights[k] << ushift) + (ns << sshift))
                continue
            state = (ni, ns, nt)
            sub = memo.get(state)
            if sub is None:
                sub = memo[state] = leaves(ni, ns, nt)
            if sub:
                add = (1 << (pos[k] * width)) + (weights[k] << ushift)
                out += [leaf + add for leaf in sub]
        # The a(0) branch: its one completion is a(0)^t_rem (module docstring).
        if last >= 0 and t_rem <= s_rem <= t_rem + span:
            out.append(t_rem + (t_rem << ushift) + ((s_rem - t_rem) << sshift))
        return out or dead

    top = leaves(0, s_hi, t)
    # leaves reaches itself and the memo through its closure; unbinding it
    # frees them now instead of at the next full garbage collection.
    leaves = None
    mask, umask = (1 << ushift) - 1, (1 << (sshift - ushift)) - 1
    for leaf in top:
        keys, us = found[s_hi - (leaf >> sshift)]
        keys.append(leaf & mask)
        us.append(leaf >> ushift & umask)


def _search(ctx: PrimeContext, s_lo: int, s_hi: int, t: int) -> dict[int, BidegreeBasis]:
    """The bases of every bidegree (s, t) with s_lo <= s <= s_hi, from one
    memoized depth-first walk under every pruning rule, keyed by s, each in
    search order on the layout of the window's universe."""
    found: dict[int, tuple[list[int], list[int]]] = {
        s: ([], []) for s in range(s_lo, s_hi + 1)}
    layout, order = _order(ctx, s_lo, s_hi, t)
    if order is not None:
        _walk(ctx, order, t, layout.width, found)
    return {s: BidegreeBasis(ctx.p, s, t, layout, tuple(keys), tuple(us))
            for s, (keys, us) in found.items()}


def _check(s: int, t: int) -> None:
    if s < 0 or t < 0:
        raise ParameterError("filtration and degree must be nonnegative, got (%d, %d)" % (s, t))
    if s > MAX_FILTRATION:
        raise ParameterError("filtration %d exceeds %d" % (s, MAX_FILTRATION))
    check_degree(t)


def _fill(ctx: PrimeContext, s_lo: int, s_hi: int, t: int, cache) -> None:
    """Memoize the bases of (s, t) for s_lo <= s <= s_hi: each from the memo,
    else from the cache, else from one window search over the missing ones,
    whose bases are memoized and stored.  Bases already in the memo are kept
    as they are."""
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
    found = _search(ctx, missing[0], missing[-1], t)
    for s in missing:
        _memo[ctx.p, s, t] = found[s]
        if cache is not None:
            cache.store_basis(found[s])


def enumerate_basis(ctx: PrimeContext, s: int, t: int, u: int | None = None,
                    cache=None) -> BidegreeBasis:
    """The complete basis of tridegree (s, t, u), or of the whole (s, t)
    bidegree when u is None."""
    _check(s, t)
    _fill(ctx, s, s, t, cache)
    basis = _memo[ctx.p, s, t]
    return basis if u is None else basis.block(u)


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
    """Drop the in-process basis memo, the block ranks kept on its bases and
    the shared search tables, so that the next query starts from nothing."""
    _memo.clear()
    _shared.clear()
