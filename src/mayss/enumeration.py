"""Complete monomial bases of a tridegree, with provably safe pruning.

A monomial of internal degree t draws its factors from the finite universe
of generators with deg <= t.  The search is a depth-first multiset
selection over that universe in decreasing degree order.
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
Every suffix the search reads holds a(0), and h(1,c), of degree q p^c, lies
after every generator that reaches column c, so a suffix supports the
remainder column and columns 0 .. B-1; its tables keep reach = p^B.
The carries that can enter a column always form an interval [0, hi]: a
column of digit d and capacity cap passes on exactly the carries
0 .. (hi + cap - d) // p, since d >= 0 makes the lower end 0 reachable
whenever any carry is.  With body, cm = divmod(t_rem, q), the remainder
column passes [0, h0], h0 = (cap - cm) // q, when cm <= cap, and the
nested floors collapse: the bound into column J is X_J // p^J, with

    X_J = h0 + cap (p^min(J,B) - 1)/(p - 1) - (body mod p^J).

So the system holds iff cm <= cap and every X_J >= 0, and X_J falls from
J-1 to J only where column J-1 holds a nonzero digit.

Under a narrow cap, at most p - 2, the test also counts runs.  There
h0 = 0 and every bound X_J // p^J is 0, so no carry is positive and the
column sums are exactly cm at bit 0 and then the base-p digits of body,
bit J holding column J-1.  Each factor adds one unit to one run of bits:
a(i) to bits 0 .. i, h(i,j) to bits j+1 .. i+j and b(i,j) to bits
j+2 .. i+j+1, and g^e adds e runs.  A sum of N runs c_0, c_1, .. rises by
at most N in all, so N >= sum_b (c_b - c_{b-1})^+ with c_{-1} = 0, and a
completion has at most cap factors, each of filtration at least 1.  So the
test fails at the first bit where cm plus the rises of the digits so far
passes cap.  That count is at least the largest digit so far, so it
subsumes each column's own bound, and it fails only at a rise, a nonzero
digit.  A wide cap is decided by the system alone.

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
are tested per candidate, but a failed carry test decides some later
candidates of its node.  Number the columns as the carry test does, bit 0
the remainder column and bit J column J-1, and let lob(k) be the lowest
bit generator k contributes to.  When candidate k of filtration f fails at
bit c < lob(k), every later candidate k' of filtration f' >= f with
lob(k') > c fails too, so the loop skips it untested:

  * Below lob(k') the residual t_rem - deg(k') keeps the node's digits: the
    degree of an h or b is q times a run of powers of p that starts at its
    lowest column.  An a has lob 0, so it is never skipped.  The same holds
    for k below lob(k) > c, so both residuals have the node's cm and its
    body mod p^c.
  * The cap of k', s_rem - f', is at most k's, s_rem - f, and so is its h0.
  * reach[nidx[k']] <= reach[nidx[k]]: both are suffixes of the order, and
    nidx[k'] >= k + 1 >= nidx[k].
  * So k' fails the remainder column if k does, and otherwise its X_c is
    at most k's, which is negative.  Either way k' fails at a bit <= c.
  * Under a narrow cap k's cap bounds k''s, so k' is narrow too.  If k
    failed on the run count at c, k''s count at c is k's, above its cap,
    unless it failed sooner.  If k failed past its B at c, the digit at c
    is nonzero and c > B >= B', so k' fails at a bit <= c too.

So a failure of filtration 1 cuts both filtrations and one of filtration 2
only filtration 2: a later candidate of filtration 1 has the larger cap.
At (3, 298), p = 5, b(2,0) fails the remainder column under cap 1, yet
the later h(1,2) completes with a(2)^2 under cap 2.  The cuts live in one
call for one state, so the memo below is unchanged.

The loop decides a candidate's cut, and its closed filtration, before any
arithmetic on it.  Each filtration keeps one threshold: the lowest cut,
or -1 once the upper degree bound has closed it.  A candidate whose lowest
bit lies above its filtration's threshold costs one comparison.  Every b
has lowest bit at least 2, so a threshold below 2 closes filtration 2,
and filtration 2 starts closed when fewer than 2 filtrations are left.
No test that runs changes:

  * A cut candidate fails its carry test whether or not its bound was
    read, and it is no leaf: its residual keeps the node's digit at the
    failing bit, which is nonzero (cm > cap at bit 0, and above it
    X_c < X_{c-1} or a rise of the run count).
  * The bound is monotone within a filtration, so a closure that a cut
    candidate hides is caught at the next uncut one of its filtration.
  * The node returns early only once the bound has closed filtration 1
    and filtration 2 is closed.  A cut never closes filtration 1: a(0)
    has lowest bit 0, and its branch is decided after the loop.

So the search order, the leaves and the sequence of carry tests are those
of testing the bound first.

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
    completion needs at least that much filtration, and no monomial has a
    degree below its filtration (a(0), of degree 1 and filtration 1, has
    the least degree per filtration), so it needs at least that much degree.
  * The carry test caps the column sums by the largest filtration left.
    A solution under a smaller cap is a solution under a larger one.
  * The root's lower degree bound, s <= t, and its carry test decide per
    filtration at the root, and the window shrinks to span the filtrations
    that pass.  Each is a necessary condition on one bidegree, so a
    filtration it drops has no monomials, also one left inside the shrunk
    window.  Both run before any universe is built, the carry test with
    every column supported.

A window of one filtration is exactly the single-filtration search.

The search emits packed exponent keys, not Monomials.  The universe, in
canonical order, gives generator k the bit field [k*w, (k+1)*w), w the bit
length of s_hi + 1 (see _tables), and each pick of generator k adds
1 << (k*w) to the key carried down the search, so a leaf's key holds its
exponents.
No exponent of a monomial of filtration at most s_hi passes s_hi, and d1
raises one exponent by at most one, so no field ever carries into the next
(see differential.d1_matrix).  The bases keep that layout, the search's
own: a d1 summand of a generator of degree at most t is an a or an h, of
filtration 1 and of smaller degree, so the universe already holds every
generator an image can hold.

a(0) is the only generator of degree 1 (every other has degree at least
2p - 1), so it is the last candidate of every node, and the universe of
any node with degree left holds it.  It has filtration 1.  Once it is
picked nothing else can follow, so that branch has exactly one
completion, a(0)^t_rem, which uses filtration t_rem: a leaf exactly when
the filtration left after it lies in the window, that is when
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
tree walk makes 25,083 calls, while the memoized search computes the
leaves of only 4,332 states, and most repeated work lies below states that
have leaves, which a memo of empty results alone would not share.  Where
no state repeats, the memo costs a dictionary probe per child, and every
state without leaves shares one empty result.

The universe is held as its generator rows (_generator_rows): the last
index of the a's and of each row h(i, .), the row b(i, .) ending one
before.  Each position's degree, filtration, weight and bits are formulas
in its row and index, so the tables of the search order (positions,
degrees, filtrations, weights, first child candidates, suffix reaches and
greatest degrees per filtration) come from lists of ints and one stable
sort by degree (_order), with no Generator or Tridegree per position; the
layout maps positions to generators and back by arithmetic on the row
starts.  The rows and tables are shared by every search at one degree: a
verify scenario searches single filtrations at several neighbouring
degrees, all over one universe.  The universe of t holds every generator
of degree at most t, whatever the window, so the tables kept for p serve
every t from the largest generator degree at most t to the least one above
it, one interval per universe.  The row walk also finds both ends (b(i,j)
has the degree of h(i,j+1), so the a(i) and h(i,j) give every end).

Holding the b's in every universe is exact, and moves no bit of any key.
A search of top filtration at most 1 never picks one: every b has
filtration 2, so a node with at most one filtration left starts with
filtration 2 closed and skips it on its first comparison, before any
bound or carry test reads the tables.  Below such a node a pick leaves no
filtration, so the upper degree bound fails on any degree left and no
degree left is a leaf, whatever the suffix tables hold.  The b's also come
after every a and h, so they take the last fields and every basis keeps its
keys.

The rows are walked only after the root carry test has passed, since at a
huge t the walk takes one step per tower index.  One table set is kept per
p, replaced when a search needs another universe and dropped by clear_memo
with the bases.  The tables are tuples because every later search reads
them: a search that wrote to one would change the next one's results.  The
search's layout, whose field width follows its top filtration, is shared
too, one per width, so the exterior mask and the d1 plans kept on it are
built once per universe and width; two layouts of one degree differ in
width only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from math import log
from operator import add

from .algebra import Generator, Monomial, a, b, h
from .errors import ParameterError
from .grading import PrimeContext, Tridegree, check_degree

# The search recurses once per factor other than a(0), so up to s levels
# deep.  Filtrations above this bound are rejected with a ParameterError,
# well before Python's default recursion limit of 1000 frames.
MAX_FILTRATION = 512

_memo: dict[tuple, "BidegreeBasis"] = {}
# p -> (top, above, generator rows, search tables, layouts by width): shared
# by every t with top <= t < above; see _tables
_shared: dict[int, tuple[int, int, tuple, "_Order", dict[int, "Layout"]]] = {}


class Layout:
    """The universe of degree t, every generator of degree at most t, as the
    rows of _generator_rows: a(0) .. a(last_a), each h(i,0) .. h(i,last_h[i-1])
    and then each b(i,0) .. b(i,last_h[i-1]-1), in canonical order.
    generator(k) holds its exponent in bits [k*width, (k+1)*width);
    generator and index map positions by arithmetic on the row starts.  The
    universe holds every generator of the keys' d1 images (module
    docstring).  `plans` keeps, per canonical position, what d1_matrix
    derives from a generator, so that every block on this layout reuses it.
    Every search and cache read at t shares its layout per width (see
    _tables); repack moves keys between two widths.  Layouts compare by
    identity."""

    def __init__(self, last_a: int, last_h: list[int], width: int):
        self.last_a, self.last_h, self.width = last_a, last_h, width
        self.plans: dict = {}
        # the first position of each row and one past the last row
        self._h = list(accumulate((last + 1 for last in last_h), initial=last_a + 1))
        self._b = list(accumulate(last_h, initial=self._h[-1]))
        self.size = self._b[-1]

    def generator(self, k: int) -> Generator:
        """The generator at canonical position k."""
        if not 0 <= k < self.size:
            raise IndexError(k)
        if k <= self.last_a:
            return a(k)
        starts, make = (self._h, h) if k < self._h[-1] else (self._b, b)
        i = bisect_right(starts, k)     # past the start of an empty b row
        return make(i, k - starts[i - 1])

    def index(self, g: Generator) -> int:
        """The canonical position of g; a KeyError when g lies outside."""
        if g.kind == "a":
            if g.i <= self.last_a:
                return g.i
        elif g.i <= len(self.last_h):
            starts = self._h if g.kind == "h" else self._b
            k = starts[g.i - 1] + g.j
            if k < starts[g.i]:
                return k
        raise KeyError(g)

    @cached_property
    def exterior(self) -> int:
        """The lowest bit of every exterior generator's field, the h block."""
        w = self.width
        return ((1 << (self._h[-1] - self._h[0]) * w) - 1) // ((1 << w) - 1) << self._h[0] * w

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

    def pack(self, factors) -> int:
        """The key of a factor tuple whose generators lie in the layout and
        whose exponents fit the width."""
        index, w = self.index, self.width
        return sum(e << (index(g) * w) for g, e in factors)

    def repack(self, keys, source: "Layout"):
        """Keys of a source layout of the same universe at this one's width,
        each of whose exponents must fit it; the keys when the widths agree."""
        w = self.width
        if source.width == w:
            return keys
        return [sum(e << (k * w) for k, e in source.fields(key)) for key in keys]


# The layout of an empty basis that builds no tables (the root's tests
# reject it, or it is read from the cache); no reader packs onto it.
EMPTY_LAYOUT = Layout(-1, [], 1)


class BidegreeBasis:
    """Every canonical monomial of one (s, t) bidegree, optionally one weight.

    The basis is stored packed, in search order: keys[k] holds the
    exponents of the k-th monomial in the fields of `layout`, the universe
    of degree t at the width of the search that found it (read from a
    cache, of its own filtration), and weights[k] is its weight.  `monomials`, the same
    monomials as Monomial objects sorted by render, is built from the keys
    on its first read and kept; the second-page path never reads it.

    `ranks` maps a weight to the rank of d1 on that block, filled by
    pages.e2_dimension; it lives and is dropped with the basis.
    """

    def __init__(self, p: int, s: int, t: int, layout: Layout,
                 keys: tuple[int, ...], weights: tuple[int, ...]):
        self.p, self.s, self.t = p, s, t
        self.layout, self.keys, self.weights = layout, keys, weights
        self.ranks: dict[int, int] = {}

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
                    factor = factor_of[run] = (layout.generator(run[0]), run[1])
                factors.append(factor)
            out.append(Monomial(factors=tuple(factors), tridegree=degrees[u]))
        return tuple(sorted(out, key=Monomial.render))

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


def _generator_rows(p: int, t: int) -> tuple[int, list[int], int, int]:
    """The generators of degree at most t as rows: the last index of the
    a's (-1 when there is none) and, for i = 1, 2, .., the last j of
    h(i, .).  b(i,j) has the degree of h(i,j+1), so the row of b(i, .) ends
    one before.  Also the largest generator degree at most t (0 when there
    is none) and the least one above t: the next of some row, or the first
    h of the next i.

    Within one i the last h(i,j) has j >= 0 and its p^j only shrinks as i
    grows, so one pass down the powers of p serves every i."""
    last_a, top, pw = -1, 0, 1
    while 2 * pw - 1 <= t:              # a(i), of degree 2 p^i - 1
        last_a, top, pw = last_a + 1, 2 * pw - 1, pw * p
    above = 2 * pw - 1
    last_h = []
    base, j, pw = 2 * (p - 1), 0, 1     # h(i,j), of degree base * p^j with base = 2 (p^i - 1)
    while base * pw * p <= t:
        j, pw = j + 1, pw * p
    while base <= t:
        while base * pw > t:
            j, pw = j - 1, pw // p
        last_h.append(j)
        top, above = max(top, base * pw), min(above, base * pw * p)
        base = base * p + 2 * (p - 1)
    return last_a, last_h, top, min(above, base)


# --- the digit-column carry system ----------------------------------------


def _carry_failure(t_rem: int, cap: int, reach: int, ctx: PrimeContext) -> int | None:
    """The first failing bit of the carry system (module docstring) of
    t_rem under cap, or None when it holds: 0 when cm > cap, else the least
    J with X_J < 0 or, under a narrow cap, with more runs than cap through
    bit J.  reach = p^B supports columns 0 .. B-1, 0 every column.

    For cap >= p - 1 every X_J with J <= B holds, as cap (p^J - 1)/(p - 1)
    >= p^J - 1 >= body mod p^J, and past B X_J only falls: one comparison
    decides, and a failure lies past B.  For cap <= p - 2, h0 = 0 and no
    carry is positive, so the column sums are cm and then the digits of
    body.  Each factor covers one run of bits and there are at most cap of
    them, so the runs that start, cm plus every rise d - prev from one
    digit to the next, number at most cap: the test fails at the first bit
    where they pass it, a nonzero digit.  That subsumes each digit being at
    most cap, and past B every digit must be 0.
    """
    p, q = ctx.p, ctx.q
    body, cm = divmod(t_rem, q)
    if cm > cap:
        return 0
    h0 = (cap - cm) // q
    if cap >= p - 1:
        if not reach or body <= h0 + cap * (reach - 1) // (p - 1):
            return None
    elif reach >= 0:
        starts = prev = cm
        bit, rest = 1, body % reach if reach else body
        while rest:
            rest, d = divmod(rest, p)
            if d > prev:
                starts += d - prev
                if starts > cap:
                    return bit
            prev = d
            bit += 1
        if not reach or body < reach:
            return None
    # The system fails past B: find the least J > B with X_J < 0.
    bit, pw = round(log(reach, p)) + 1, reach * p   # ValueError if reach < 0
    while h0 + cap * (reach - 1) // (p - 1) >= body % pw:
        bit, pw = bit + 1, pw * p
    return bit


# --- the search ------------------------------------------------------------


class _Order(namedtuple("_Order", (
        "pos",        # canonical position
        "neg_degs",   # minus each degree: ascending, for bisect
        "filts",
        "weights",
        "nidx",       # a child's first candidate: past an exterior pick
        "lob",        # lowest column it contributes to, as a carry-test bit
        "reach",      # per suffix: p^B, B its number of supported columns
        "max_frac",   # per suffix: (deg, filt) with max deg/filt
))):
    """The tables every node of a search reads, per generator of the search
    order (decreasing degree, ties in canonical order) or per suffix of it,
    each a tuple.  They are shared by every search at the same degree (see
    _tables)."""

    __slots__ = ()


def _tables(ctx: PrimeContext, t: int, s_hi: int) -> tuple[Layout, _Order]:
    """The layout of the generators of degree t, in canonical order, and the
    tables of its search order.  s_hi sets only the layout's field width,
    the bit length of s_hi + 1, which holds every exponent of a monomial of
    filtration at most s_hi.  Searches build their keys on the layout, and
    the cache reads keys back onto it.  Both are shared (module docstring)."""
    kept = _shared.get(ctx.p)
    if kept is None or not kept[0] <= t < kept[1]:
        last_a, last_h, top, above = _generator_rows(ctx.p, t)
        kept = _shared[ctx.p] = (top, above, (last_a, last_h),
                                 _order(ctx, last_a, last_h), {})
    _, _, rows, tables, layouts = kept
    width = (s_hi + 1).bit_length()
    if width not in layouts:
        layouts[width] = Layout(*rows, width)
    return layouts[width], tables


def _order(ctx: PrimeContext, last_a: int, last_h: list[int]) -> _Order:
    """The search tables of the generator rows, from the degree formulas:
    a(i) has tridegree (1, 2p^i - 1, 2i + 1), h(i,j) (1, c_i p^j, 2i - 1)
    with c_i = 2(p^i - 1), and b(i,j) (2, c_i p^(j+1), (2i - 1) p), the
    degree of h(i,j+1).  A generator adds to the carry-test bits lob .. top:
    a(i) to 0 .. i, h(i,j) to j+1 .. i+j and b(i,j) to j+2 .. i+j+1."""
    p, q = ctx.p, ctx.q
    # Per canonical position: minus the degree, the filtration, the weight,
    # 1 for an exterior generator, and the lowest and top bits.
    na = last_a + 1
    neg = [1 - 2 * p**i for i in range(na)]
    filt, ext, lob = [1] * na, [0] * na, [0] * na
    weight, top = list(range(1, 2 * na, 2)), list(range(na))
    rows, c = [], q
    for last in last_h:                 # minus the degrees of h(i, 0 .. last)
        rows.append(list(accumulate([p] * last, int.__mul__, initial=-c)))
        c = c * p + q
    for b_row in (0, 1):    # b(i,j): the degree of h(i,j+1), the bits of h(i,j) plus 1
        for i, row in enumerate(rows, 1):
            n = len(row) - b_row
            neg += row[b_row:]
            filt += [1 + b_row] * n
            weight += [(2 * i - 1) * p**b_row] * n
            ext += [1 - b_row] * n
            lob += range(1 + b_row, 1 + b_row + n)
            top += range(i + b_row, i + b_row + n)
    # Decreasing degree, ties in canonical order: the sort is stable.
    pos = sorted(range(len(neg)), key=neg.__getitem__)
    neg_degs, filts = tuple(map(neg.__getitem__, pos)), tuple(map(filt.__getitem__, pos))
    powers = list(accumulate([p] * max(top, default=0), int.__mul__, initial=1))
    reach = list(map(powers.__getitem__, accumulate(map(top.__getitem__, reversed(pos)), max)))
    best = (0, 1)
    max_frac = [best]
    for nd, f in zip(reversed(neg_degs), reversed(filts)):
        if -nd * best[1] > best[0] * f:
            best = (-nd, f)
        max_frac.append(best)
    return _Order(tuple(pos), neg_degs, filts, tuple(map(weight.__getitem__, pos)),
                  tuple(map(add, range(len(pos)), map(ext.__getitem__, pos))),
                  tuple(map(lob.__getitem__, pos)), tuple(reversed(reach)),
                  tuple(reversed(max_frac)))


def _walk(ctx: PrimeContext, o: _Order, s_hi: int, span: int, t: int, width: int, found):
    """File every leaf of the search of [s_hi - span, s_hi] from the root
    (0, s_hi, t) under its filtration in found, in search order: its key
    and its weight.

    leaves(idx, s_rem, t_rem) is the list of a state's leaves, each packed
    into one int: its key, its weight from bit ushift and its filtration
    left from bit sshift.  It is memoized for the duration of this walk (see
    the module docstring).
    """
    pos, neg_degs, filts, weights, nidx, lob, reach, max_frac = o
    n = len(pos)
    uncut = max(lob, default=0)     # a cut that skips no candidate
    ushift = n * width
    # A leaf has at most s_hi factors, so its weight fits below sshift.
    sshift = ushift + (s_hi * max(weights, default=0)).bit_length()
    # a(0): the last generator of the order, in canonical position 0, so its
    # unit is 1 and its weight 1.
    last = n - 1
    memo: dict[tuple[int, int, int], list[int] | tuple] = {}
    dead = ()   # the one result of every state without leaves

    def leaves(idx: int, s_rem: int, t_rem: int):
        # s_rem is the largest filtration left, s_rem - span the smallest.
        if not t_rem:
            return [s_rem << sshift] if s_rem <= span else dead
        out = []
        # A candidate of filtration 1 (2) whose lowest support bit lies
        # above lim1 (lim2) is skipped: -1 once the upper degree bound has
        # closed its filtration, else the lowest failing bit of the cuts
        # (module docstring).  Filtration 2 starts closed below 2 left.
        lim1 = uncut
        lim2 = uncut if s_rem >= 2 else -1
        # Generators heavier than t_rem form a prefix of the order.
        for k in range(max(idx, bisect_left(neg_degs, -t_rem)), last):
            f = filts[k]
            if lob[k] > (lim1 if f == 1 else lim2):
                continue
            ns, nt = s_rem - f, t_rem + neg_degs[k]
            ni = nidx[k]
            ns_lo = ns - span         # below 0 it bounds nothing, as 0 would
            if nt or ns_lo > 0:
                md, mf = max_frac[ni]
                if nt * mf > ns * md:
                    # Lossless skip: within filtration f, ns is fixed, nt
                    # never decreases along the order (degrees never increase),
                    # and max_frac[ni] never increases (ni is k or k+1, so
                    # never decreases, and the suffix shrinks).  So the bound
                    # fails for every later generator of filtration f too,
                    # a(0) among them when f is 1.  Every b has lob >= 2, so
                    # lim2 < 2 closes filtration 2.
                    if f == 1:
                        lim1 = -1
                        if lim2 < 2:
                            return out or dead
                    else:
                        lim2 = -1
                        if lim1 < 0:
                            return out or dead
                    continue
                if nt < ns_lo:
                    continue
                c = _carry_failure(nt, ns, reach[ni], ctx)
                if c is not None:
                    if c < lob[k]:
                        if c < lim2:
                            lim2 = c
                        if f == 1:
                            lim1 = c
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
        if t_rem <= s_rem <= t_rem + span:
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
    # The root's lower degree bound and carry test need no universe, so a
    # huge t that no filtration of the window admits ends before one is
    # built (its rows take one step per tower index).  Testing every column
    # (reach 0) loses nothing: the universe holds a(0) and h(1,j) for every
    # digit column j of t/q.  The walk spans the filtrations that pass.
    live = [s for s in found if s <= t and _carry_failure(t, s, 0, ctx) is None]
    layout = EMPTY_LAYOUT
    if live:
        layout, tables = _tables(ctx, t, s_hi)
        _walk(ctx, tables, live[-1], live[-1] - live[0], t, layout.width, found)
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
            cache.store_basis(ctx, found[s])


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
