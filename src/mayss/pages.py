"""Second-page dimensions and survival verdicts.

The first differential restricts to May-weight blocks (it preserves t and
drops u by one), so every computation here splits the bidegree basis by
weight, builds the two matrices around each block, and adds up

    e2 = (kernel of the outgoing map) - (rank of the incoming map).

Each matrix numbers its rows by image monomial (see d1_matrix), so a query
at filtration s reads only the bases of s - 1 and s, never s + 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import Element, element_tridegree
from .differential import d1, d1_matrix
from .enumeration import _check, _enumerate_window, enumerate_basis
from .errors import ParameterError
from .grading import PrimeContext, Tridegree
from .linalg import in_span, rank


@dataclass(frozen=True)
class WeightBlock:
    u: int
    e1_dim: int
    cycle_dim: int
    boundary_dim: int

    @property
    def e2_dim(self) -> int:
        return self.cycle_dim - self.boundary_dim


def _summed(name: str) -> property:
    return property(lambda page: sum(getattr(bl, name) for bl in page.blocks))


@dataclass(frozen=True)
class PageQueryResult:
    """The weight blocks of one query; each dimension is summed over them."""

    blocks: tuple[WeightBlock, ...]
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
    above_sizes = Counter(above.weights) if above is not None else Counter()

    weights = sorted(sizes) if u is None else ([u] if u in sizes else [])
    blocks = []
    for w in weights:
        cycles = sizes[w] - _block_rank(ctx, target, w, sizes[w], cache)
        if above_sizes[w + 1]:
            boundaries = _block_rank(ctx, above, w + 1, above_sizes[w + 1], cache)
        else:
            boundaries = 0
        blocks.append(WeightBlock(u=w, e1_dim=sizes[w], cycle_dim=cycles,
                                  boundary_dim=boundaries))
    return PageQueryResult(tuple(blocks))


def _block_rank(ctx, basis, w, cols, cache) -> int:
    """The rank of d1 on the weight-w block of a basis, which has cols
    monomials.  It is kept on the basis, so the blocks of a memoized basis
    are eliminated once per process.  Its matrix comes from the cache when
    that holds one, else is built (which packs a basis read from the cache,
    once)."""
    r = basis.ranks.get(w)
    if r is not None:
        return r
    m = cache.load_matrix(ctx, basis.s, basis.t, w, cols) if cache is not None else None
    if m is None:
        m = d1_matrix(basis.block(w), ctx)
        if cache is not None:
            cache.store_matrix(ctx, basis.s, basis.t, w, m)
    r = basis.ranks[w] = rank(m)
    return r


@dataclass(frozen=True)
class SurvivalVerdict:
    position: Tridegree
    is_cycle: bool
    is_boundary: bool

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
            # the element's terms take the first rows, a term that the
            # source's layout cannot pack an empty one; images add the rest
            terms = x.terms
            m = d1_matrix(source, ctx, list(terms))
            is_boundary = in_span(m, dict(enumerate(terms.values())))
    return SurvivalVerdict(position=pos, is_cycle=is_cycle, is_boundary=is_boundary)
