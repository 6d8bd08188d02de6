"""Second-page dimensions and survival verdicts.

The first differential restricts to May-weight blocks (it preserves t and
drops u by one), so every computation here splits the bidegree basis by
weight, eliminates the two maps around each block, and adds up

    e2 = (kernel of the outgoing map) - (rank of the incoming map).

Each matrix numbers its rows by image monomial (see d1_matrix), so a query
at filtration s reads only the bases of s - 1 and s, never s + 1.

The outgoing block is cleared before it is built (the twist of Chen and
Kerber, "Persistent homology computation with a twist", 2011).  The
incoming map, d1 on weight w + 1 of s - 1, is eliminated first, with its
rows numbered by the monomials of the block, weight w of s.  Its column
span B lies in the kernel of d1 and projects isomorphically onto the
coordinates I of its pivot rows (see linalg).  So every chain x of the
block has one b in B with b_I = x_I, and d1(x) = d1(x - b), where x - b is
supported off I: the monomials off I span the whole image of d1 on the
block, and d1 is built and eliminated on those alone.  The rank is the
block's own, so it is kept on the basis like any other.  When the incoming
rank is already kept, there are no pivots and the block is eliminated
whole.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .algebra import Element, element_tridegree
from .differential import d1, d1_matrix
from .enumeration import BidegreeBasis, _check, _enumerate_window, enumerate_basis
from .errors import MayssError, ParameterError
from .grading import PrimeContext
from .linalg import in_span, rank


class WeightBlock(namedtuple("WeightBlock", "u e1_dim cycle_dim boundary_dim")):
    __slots__ = ()

    @property
    def e2_dim(self) -> int:
        return self.cycle_dim - self.boundary_dim


def _summed(name: str) -> property:
    return property(lambda page: sum(getattr(bl, name) for bl in page.blocks))


class PageQueryResult(namedtuple("PageQueryResult", "blocks")):
    """The weight blocks of one query; each dimension is summed over them."""

    __slots__ = ()
    e1_dim = _summed("e1_dim")
    cycle_dim = _summed("cycle_dim")
    boundary_dim = _summed("boundary_dim")
    e2_dim = _summed("e2_dim")


def e2_dimension(ctx: PrimeContext, s: int, t: int, u: int | None = None,
                 cache=None) -> PageQueryResult:
    """Cycle, boundary, and second-page dimensions at (s, t, u), summed over
    all weights present when u is None."""
    _enumerate_window(ctx, s, t, cache)   # one search for the two bases below
    target = enumerate_basis(ctx, s, t, None, cache)
    above = enumerate_basis(ctx, s - 1, t, None, cache) if s >= 1 else None

    sizes = Counter(target.weights)
    weights = sorted(sizes) if u is None else ([u] if u in sizes else [])
    blocks = []
    for w in weights:
        cycle = target.block(w)
        boundaries, cleared = _boundary_rank(ctx, above, w + 1, cycle)
        r = target.ranks.get(w)
        if r is None:
            r = target.ranks[w] = _cleared_rank(ctx, cycle, cleared)
        blocks.append(WeightBlock(u=w, e1_dim=sizes[w], cycle_dim=sizes[w] - r,
                                  boundary_dim=boundaries))
    return PageQueryResult(tuple(blocks))


def _boundary_rank(ctx, above, w, cycle) -> tuple[int, set[int]]:
    """The rank of d1 on the weight-w block of `above` (None at s = 0),
    whose images land in the cycle block, and the positions in the cycle
    block of its pivot rows.  The rank is kept on the basis; a kept rank
    comes with no pivots."""
    cleared: set[int] = set()
    r = above.ranks.get(w) if above is not None else 0
    if r is not None:
        return r, cleared
    block = above.block(w)
    if not block.dimension:
        return 0, cleared
    # The cycle block's keys on this block's layout: one universe, that of
    # degree t, at a width of filtration s - 1 or more, which fits them.
    seeds = block.layout.repack(cycle.keys, cycle.layout)
    m = d1_matrix(block, ctx, seeds)
    if m.rows > len(seeds):
        raise MayssError("d1 of the basis of (%d, %d) at weight %d leaves the basis of "
                         "(%d, %d) at weight %d: a basis is incomplete"
                         % (block.s, block.t, w, cycle.s, cycle.t, w - 1))
    r = above.ranks[w] = rank(m, cleared)
    return r, cleared


def _cleared_rank(ctx, cycle, cleared) -> int:
    """The rank of d1 on a block, eliminated on the columns off the cleared
    positions only (module docstring)."""
    kept = tuple(key for k, key in enumerate(cycle.keys) if k not in cleared)
    if not kept:
        return 0
    return rank(d1_matrix(BidegreeBasis(cycle.p, cycle.s, cycle.t, cycle.layout, kept,
                                        cycle.weights[:len(kept)]), ctx))


class SurvivalVerdict(namedtuple("SurvivalVerdict", "position is_cycle is_boundary")):
    """position is the element's Tridegree."""

    __slots__ = ()

    @property
    def e2_nonzero(self) -> bool:
        return self.is_cycle and not self.is_boundary


def survives_to_e2(x: Element, ctx: PrimeContext, cache=None) -> SurvivalVerdict:
    """Whether a homogeneous element is a d1-cycle, a d1-boundary, and hence
    whether its class on the second page is nonzero."""
    pos = element_tridegree(x)
    if pos is None:
        raise ParameterError("survival needs a homogeneous nonzero element")
    _check(pos.s, pos.t)   # an absurd filtration ends before any work
    is_cycle = d1(x, ctx).is_zero
    is_boundary = False
    if pos.s >= 1:
        source = enumerate_basis(ctx, pos.s - 1, pos.t, pos.u + 1, cache)
        if source.dimension:
            # the element's terms take the first rows, and images add the
            # rest.  The source's layout, the universe of degree t at a width
            # of filtration s - 1, packs every term: each term's generators
            # have degree at most t, and its exponents at most s.
            terms = x.terms
            m = d1_matrix(source, ctx, [source.layout.pack(mon.factors) for mon in terms])
            is_boundary = in_span(m, dict(enumerate(terms.values())))
    return SurvivalVerdict(position=pos, is_cycle=is_cycle, is_boundary=is_boundary)
