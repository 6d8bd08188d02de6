import itertools

import pytest

from helpers import (DENSE_E2, SCENARIOS, add, codomain_matrix, d1_generator, image_d1_matrix,
                     scale)
from mayss import (MayssError, ParameterError, ResultCache, Tridegree, a, d1, e2_dimension,
                   element_from_monomial, h, enumerate_basis, make_context, monomial_from_factors,
                   parse_element, survives_to_e2, verify_main, verify_survival)
from mayss import enumeration, pages
from mayss.algebra import Element, element_tridegree
from mayss.differential import d1_matrix
from mayss.enumeration import BidegreeBasis, Layout, clear_memo
from mayss.linalg import rank
from mayss.verify import family_degree, product_class


def test_second_page_of_small_bidegree(ctx5):
    res = e2_dimension(ctx5, 2, 49)
    assert (res.e1_dim, res.cycle_dim, res.boundary_dim, res.e2_dim) == (2, 1, 1, 0)
    assert len(res.blocks) == 1
    blk = res.blocks[0]
    assert blk.u == 4 and blk.e2_dim == 0
    # filtration below: a(2) alone
    assert enumerate_basis(ctx5, 1, 49).dimension == 1


def test_boundary_class_dies_on_page_two(ctx5):
    x = d1_generator(a(2), ctx5)
    v = survives_to_e2(x, ctx5)
    assert v.position == Tridegree(2, 49, 4)
    assert v.is_cycle
    assert v.is_boundary
    assert not v.e2_nonzero


def test_non_cycle_is_reported_as_such(ctx5):
    x = element_from_monomial(
        monomial_from_factors([(a(0), 1), (h(2, 0), 1)], ctx5), ctx5)
    v = survives_to_e2(x, ctx5)
    assert not v.is_cycle
    assert not v.e2_nonzero


def test_inhomogeneous_input_rejected(ctx5):
    x = add(element_from_monomial(monomial_from_factors([(a(0), 1)], ctx5), ctx5),
            element_from_monomial(monomial_from_factors([(a(1), 1)], ctx5), ctx5),
            ctx5)
    with pytest.raises(ParameterError):
        survives_to_e2(x, ctx5)


def test_product_class_survives(ctx5):
    omega = element_from_monomial(product_class(ctx5, 4, 6, 4), ctx5)
    v = survives_to_e2(omega, ctx5)
    assert v.position == Tridegree(7, 130194, 17)
    assert v.is_cycle and not v.is_boundary
    assert v.e2_nonzero


def _source_audit(ctx, m, n, s):
    """verify_survival's checks on the bidegree one filtration below the class."""
    rep = verify_survival(ctx, m, n, s)
    return {c.description: c for c in rep.checks}, rep.notes


def test_hit_analysis_of_the_product_class(ctx5):
    checks, notes = _source_audit(ctx5, 4, 6, 4)
    weights = checks["source bidegree weight multiset"]
    assert weights.observed == "(34, 50, 50, 50, 50, 50, 50)" and weights.passed
    first = checks["no source in the weight hit by a first-page differential"]
    assert first.observed == "0 source monomials" and first.passed
    later = checks["every later-page source weight dies on the second page"]
    assert later.observed == "r=17: e2_dim=0, r=33: e2_dim=0" and later.passed
    assert any("convergence" in note for note in notes)


def test_hit_analysis_with_an_empty_source(ctx5):
    # at s = 2 the source bidegree (4, t) holds no monomial, so no page can hit
    checks, _ = _source_audit(ctx5, 4, 6, 2)
    empty = checks["source bidegree (4, %d) is empty" % family_degree(ctx5, 4, 6, 2)]
    assert empty.observed == "dim=0" and empty.passed
    assert checks["no source in the weight hit by a first-page differential"].observed == (
        "0 source monomials")
    later = checks["every later-page source weight dies on the second page"]
    assert later.observed == "none" and later.passed


def test_weight_filtered_page_queries(ctx5):
    assert enumerate_basis(ctx5, 6, 130194).dimension == 7
    assert enumerate_basis(ctx5, 5, 130194).dimension == 0
    assert enumerate_basis(ctx5, 7, 130194).dimension == 85
    assert enumerate_basis(ctx5, 7, 130194, u=17).dimension == 1
    full = e2_dimension(ctx5, 6, 130194)
    assert full.e1_dim == 7 and full.cycle_dim == 0 and full.e2_dim == 0
    assert sorted(b.u for b in full.blocks) == [34, 50]


def test_block_dimensions_sum_to_totals(ctx5):
    for (s, t) in [(2, 49), (3, 57), (4, 130), (3, 96)]:
        res = e2_dimension(ctx5, s, t)
        assert sum(b.e1_dim for b in res.blocks) == res.e1_dim
        assert sum(b.cycle_dim for b in res.blocks) == res.cycle_dim
        assert sum(b.boundary_dim for b in res.blocks) == res.boundary_dim
        assert sum(b.e2_dim for b in res.blocks) == res.e2_dim
        assert 0 <= res.boundary_dim <= res.cycle_dim <= res.e1_dim


def test_weight_restricted_query_matches_block(ctx5):
    full = e2_dimension(ctx5, 2, 49)
    one = e2_dimension(ctx5, 2, 49, u=4)
    assert (one.e1_dim, one.cycle_dim, one.boundary_dim, one.e2_dim) == \
        (full.e1_dim, full.cycle_dim, full.boundary_dim, full.e2_dim)
    missing = e2_dimension(ctx5, 2, 49, u=99)
    assert missing.e1_dim == 0 and missing.e2_dim == 0 and missing.blocks == ()


def _check_block(ctx, s, t, w):
    """d1 on the weight-w block of (s, t): every image monomial lies in the
    enumerated basis of (s + 1, t) at weight w - 1 (codomain_matrix fails
    otherwise), and the rank equals that of the matrix numbered by that
    basis.  Returns the rank."""
    domain = enumerate_basis(ctx, s, t, w)
    codomain = enumerate_basis(ctx, s + 1, t, w - 1).monomials
    r = rank(d1_matrix(domain, ctx))
    assert r == rank(codomain_matrix(domain, codomain, ctx)), (ctx.p, s, t, w)
    return r


def _check_second_page(ctx, s, t):
    """Both blocks around every weight an e2 query at (s, t) reads, and the
    query's own ranks."""
    res = e2_dimension(ctx, s, t)
    for bl in res.blocks:
        assert bl.cycle_dim == bl.e1_dim - _check_block(ctx, s, t, bl.u)
        assert bl.boundary_dim == (_check_block(ctx, s - 1, t, bl.u + 1) if s >= 1 else 0)
    return res


@pytest.mark.parametrize("s,t", DENSE_E2)
def test_images_lie_in_the_next_basis_at_dense_points(ctx5, s, t):
    res = _check_second_page(ctx5, s, t)
    assert res.blocks


@pytest.mark.parametrize("p,m,n,s", SCENARIOS)
def test_images_lie_in_the_next_basis_at_scenario_points(p, m, n, s):
    # The scenario reads e2 at (s + 2, t) and the survival of the product
    # class at (s + 3, t, u), whose boundaries come from (s + 2, t, u + 1).
    ctx = make_context(p)
    t = family_degree(ctx, m, n, s) + s - 2
    assert _check_second_page(ctx, s + 2, t).blocks
    # Survival reads only the weight-(u + 1) block of (s + 2, t), inside
    # the e2 bidegree checked above; it is empty there, so no matrix is built.
    pos = product_class(ctx, m, n, s).tridegree
    assert (pos.s, pos.t) == (s + 3, t)
    assert enumerate_basis(ctx, s + 2, t, pos.u + 1).dimension == 0


def test_images_lie_in_the_next_basis_on_a_small_grid(ctx5, ctx7):
    checked = 0
    for ctx in (ctx5, ctx7):
        for s in range(1, 6):
            for t in range(300):
                checked += len(_check_second_page(ctx, s, t).blocks)
    assert checked > 500


def _combination(coeffs, monomials, ctx):
    """The element sum of coeffs[k] * monomials[k]."""
    out = Element.zero()
    for c, mon in zip(coeffs, monomials):
        if c % ctx.p:
            out = add(out, element_from_monomial(mon, ctx, c), ctx)
    return out


def test_every_constructed_boundary_is_found(rng, ctx5, ctx7):
    # d1(y) for a random combination y of one weight block, including blocks
    # where d1 has a kernel, so that many y share one image.
    found = ambiguous = 0
    for ctx, t_max in ((ctx5, 300), (ctx7, 400)):
        for s in range(0, 5):
            for t in range(t_max):
                for w in sorted(set(enumerate_basis(ctx, s, t).weights)):
                    block = enumerate_basis(ctx, s, t, w)
                    monomials = block.monomials
                    y = _combination([rng.randrange(ctx.p) for _ in monomials], monomials, ctx)
                    x = d1(y, ctx)
                    if x.is_zero:
                        continue
                    found += 1
                    v = survives_to_e2(x, ctx)
                    assert v.is_cycle and v.is_boundary and not v.e2_nonzero
                    assert v.position == Tridegree(s + 1, t, w - 1)
                    ambiguous += rank(d1_matrix(block, ctx)) < len(monomials)
    assert found > 150 and ambiguous > 20, (found, ambiguous)


@pytest.mark.parametrize("p,m,n,s", [(5, 4, 6, 4), (7, 6, 10, 6)])
def test_product_class_stays_a_non_boundary(p, m, n, s):
    ctx = make_context(p)
    omega = element_from_monomial(product_class(ctx, m, n, s), ctx)
    for x in (omega, scale(2, omega, ctx)):
        v = survives_to_e2(x, ctx)
        assert v.is_cycle and not v.is_boundary


def test_cycle_outside_a_nonzero_image_is_no_boundary(ctx5):
    # b(1,0) h(1,0) h(1,2) is a cycle at (4, 248, 7); its source block at
    # (3, 248, 8) is not empty, but no combination of it maps onto the cycle.
    x = parse_element("h(1,0) h(1,2) b(1,0)", ctx5)
    assert element_tridegree(x) == Tridegree(4, 248, 7)
    source = enumerate_basis(ctx5, 3, 248, 8).monomials
    assert source
    for coeffs in itertools.product(range(5), repeat=len(source)):
        assert d1(_combination(coeffs, source, ctx5), ctx5) != x
    v = survives_to_e2(x, ctx5)
    assert v.is_cycle and not v.is_boundary and v.e2_nonzero


def test_each_weight_block_is_eliminated_once_per_memoized_basis(monkeypatch):
    # The critical differential and the survival check read the same blocks
    # of (s + 2, t); the second reads their ranks off the memoized bases.
    built = []

    def recording_d1_matrix(block, ctx, seeds=()):
        built.append((block.s, block.t, block.weights[0]))
        return d1_matrix(block, ctx, seeds)

    monkeypatch.setattr(pages, "d1_matrix", recording_d1_matrix)
    ctx = make_context(5)
    clear_memo()
    try:
        assert verify_main(ctx, 4, 6, 4).passed
        assert len(built) == len(set(built)) == 2
        assert verify_main(ctx, 4, 6, 4).passed
        assert len(built) == 2
        # the ranks go with the bases
        clear_memo()
        assert verify_main(ctx, 4, 6, 4).passed
        assert built[2:] == built[:2]
    finally:
        clear_memo()


def _cleared_and_whole_ranks(ctx, s, t):
    """Per weight block of (s, t): the rank of d1 on the columns clearing
    keeps, the rank on the whole block, and how many columns it cleared,
    one per boundary pivot."""
    target = enumerate_basis(ctx, s, t)
    above = enumerate_basis(ctx, s - 1, t)
    above.ranks.clear()   # a kept boundary rank would come with no pivots
    out = []
    for w in sorted(set(target.weights)):
        cycle = target.block(w)
        boundaries, cleared = pages._boundary_rank(ctx, above, w + 1, cycle)
        assert len(cleared) == boundaries
        out.append((pages._cleared_rank(ctx, cycle, cleared), rank(d1_matrix(cycle, ctx)),
                    len(cleared)))
    return out


def _assert_clearing_keeps_the_rank(ctx, points):
    cleared = 0
    for s, t in points:
        for got, want, n in _cleared_and_whole_ranks(ctx, s, t):
            assert got == want, (ctx.p, s, t)
            cleared += n
    return cleared


def test_clearing_keeps_the_rank_of_every_dense_block(ctx5):
    assert _assert_clearing_keeps_the_rank(ctx5, DENSE_E2) == 1051


def test_clearing_keeps_the_rank_on_the_criterion_07_grid(ctx5):
    points = [(s, t) for s in range(1, 5) for t in range(501)]
    assert _assert_clearing_keeps_the_rank(ctx5, points) == 146


def test_clearing_keeps_the_rank_on_a_p7_grid(ctx7):
    points = [(s, t) for s in range(1, 8) for t in range(1400, 1500, 2)]
    assert _assert_clearing_keeps_the_rank(ctx7, points) == 191


def test_an_image_outside_the_cycle_block_raises(ctx5):
    # a cycle block without a monomial that d1 hits: a basis is incomplete
    s, t = 8, 130194
    above, target = enumerate_basis(ctx5, s - 1, t), enumerate_basis(ctx5, s, t)
    w = max(set(target.weights), key=target.weights.count)
    cycle = target.block(w)
    hit = min(r for col in d1_matrix(above.block(w + 1), ctx5, cycle.keys).columns for r in col)
    short = BidegreeBasis(ctx5.p, s, t, cycle.layout, cycle.keys[:hit] + cycle.keys[hit + 1:],
                          cycle.weights[1:])
    with pytest.raises(MayssError, match="a basis is incomplete"):
        pages._boundary_rank(ctx5, above, w + 1, short)


def _recording_columns(monkeypatch):
    """(filtration, column count) of every d1 matrix pages builds, as a list
    that fills as it runs."""
    built = []

    def recording_d1_matrix(block, ctx, seeds=()):
        built.append((block.s, block.dimension))
        return d1_matrix(block, ctx, seeds)

    monkeypatch.setattr(pages, "d1_matrix", recording_d1_matrix)
    return built


def _columns_at(built, s):
    return sum(cols for f, cols in built if f == s)


def test_clearing_builds_fewer_cycle_columns_than_e1(ctx5, monkeypatch):
    s, t = DENSE_E2[0]
    built = _recording_columns(monkeypatch)
    res = e2_dimension(ctx5, s, t)
    assert res.boundary_dim > 0
    assert _columns_at(built, s) <= res.e1_dim - res.boundary_dim


def test_mixed_layouts_give_the_blocks_of_fresh_bases(ctx5, monkeypatch):
    t = 130194
    fresh = {s: e2_dimension(ctx5, s, t).blocks for s in (7, 8)}
    clear_memo()
    built = _recording_columns(monkeypatch)
    # s = 6 from a search of width 3, s = 7 from one of width 4: the cycle
    # keys are mapped onto the boundary's layout field by field
    enumerate_basis(ctx5, 6, t)
    res = e2_dimension(ctx5, 7, t)
    assert res.blocks == fresh[7]
    assert enumerate_basis(ctx5, 6, t).layout.width != enumerate_basis(ctx5, 7, t).layout.width
    assert res.boundary_dim > 0
    assert _columns_at(built, 7) <= res.e1_dim - res.boundary_dim
    # the boundary ranks of s = 7 are kept now, so s = 8 is eliminated whole
    res = e2_dimension(ctx5, 8, t)
    assert res.blocks == fresh[8]
    assert _columns_at(built, 8) == res.e1_dim


def test_the_order_of_queries_never_changes_an_answer(ctx5, rng, tmp_path, monkeypatch):
    # The two bases a query reads come from the searches of other windows,
    # hence of other field widths, or from a cache at the width of their
    # own filtration.  Descending, the basis of s was searched with s + 1,
    # that of s - 1 is searched alone, so the cycle keys change width.
    grid = [(s, t) for t in (2988, 3000) for s in range(17)]
    fresh = {}
    for s, t in grid:
        clear_memo()
        fresh[s, t] = e2_dimension(ctx5, s, t).blocks
    moved = []
    repack = Layout.repack

    def spy(self, keys, source):
        if source.width != self.width:
            moved.append((source.width, self.width))
        return repack(self, keys, source)

    monkeypatch.setattr(Layout, "repack", spy)
    shuffled = grid[:]
    rng.shuffle(shuffled)
    cache = ResultCache(tmp_path)
    for name, order, through in (("ascending", grid, None), ("descending", grid[::-1], None),
                                 ("shuffled", shuffled, None), ("cold", grid, cache),
                                 ("warm", grid, cache)):
        clear_memo()
        moved.clear()
        if name == "warm":   # every basis from the cache
            monkeypatch.setattr(enumeration, "_search", None)
        for s, t in order:
            assert e2_dimension(ctx5, s, t, cache=through).blocks == fresh[s, t], (name, s, t)
        if name == "descending":
            assert moved


def test_every_survival_term_packs_onto_its_source_layout():
    # survives_to_e2 packs the terms of a class of (s, t, u) onto the layout
    # of its source block of (s - 1, t): the universe of degree t, which
    # holds every generator of a term, at a width of filtration s - 1, which
    # holds every exponent of filtration s.  The survival scenario's class
    # and the CI examples each come back unchanged from their keys.
    cases = []
    for p, m, n, s in SCENARIOS:
        ctx = make_context(p)
        cases.append((ctx, element_from_monomial(product_class(ctx, m, n, s), ctx)))
    ctx = make_context(5)
    for text in ("h(1,0) h(1,1)", "h(1,0) h(1,2) b(1,0)",
                 "a(2)^2 h(2,0) h(1,1) h(1,0) h(1,6) h(1,4)"):
        cases.append((ctx, parse_element(text, ctx)))
    seeded = 0
    for ctx, x in cases:
        pos = element_tridegree(x)
        source = enumerate_basis(ctx, pos.s - 1, pos.t, pos.u + 1)
        layout = source.layout
        terms = list(x.terms)
        seeds = [layout.pack(mon.factors) for mon in terms]
        for mon, key in zip(terms, seeds):
            assert tuple((layout.generator(k), e) for k, e in layout.fields(key)) == mon.factors
        if source.dimension:
            assert d1_matrix(source, ctx, seeds) == image_d1_matrix(source, ctx, terms)
            seeded += 1
    assert seeded >= 2
