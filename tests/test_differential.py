import pytest

from helpers import (DENSE_E2, SCENARIOS, add, block_of, canonicalize_word, codomain_matrix,
                     d1_generator, element_parity, image_d1_matrix, key_monomials,
                     layout_universe, packed_seeds, random_element, random_generator,
                     random_monomial, scale, unit_d1_monomial, unit_summand_pairs, units)
from mayss import (a, b, d1, element_from_monomial, enumerate_basis, h,
                   make_context, monomial_from_factors, multiply, parse_element,
                   render_element)
from mayss.algebra import Element, _from_accumulator, element_tridegree
from mayss.differential import d1_matrix
from mayss.pages import e2_dimension
from mayss.verify import _window, family_degree

D1_SHIFT = (1, 0, -1)


def gens_up_to(total, *, with_b=True):
    out = [a(i) for i in range(total + 1)]
    for i in range(1, total + 1):
        for j in range(total - i + 1):
            out.append(h(i, j))
            if with_b:
                out.append(b(i, j))
    return out


def test_exterior_and_polynomial_generator_images(ctx5):
    for j in range(4):
        assert d1_generator(h(1, j), ctx5).is_zero
        assert d1_generator(b(1, j), ctx5).is_zero
        assert d1_generator(b(3, j), ctx5).is_zero
    assert d1_generator(a(0), ctx5).is_zero
    assert render_element(d1_generator(a(1), ctx5), ctx5) == "a(0) h(1,0)"
    assert render_element(d1_generator(h(2, 0), ctx5), ctx5) == "-1*h(1,0) h(1,1)"
    assert render_element(d1_generator(h(2, 1), ctx5), ctx5) == "-1*h(1,1) h(1,2)"
    # two-summand images, exact coefficients
    assert d1_generator(a(2), ctx5) == parse_element("a(0) h(2,0) + a(1) h(1,1)", ctx5)
    assert d1_generator(h(3, 0), ctx5) == parse_element(
        "-1*h(1,0) h(2,1) + h(1,2) h(2,0)", ctx5)


def test_generator_image_same_at_other_primes(ctx7):
    # the summand structure is prime-independent; only the coefficients live mod p
    assert render_element(d1_generator(h(3, 0), ctx7), ctx7) == "-1*h(1,0) h(2,1) + h(1,2) h(2,0)"
    assert d1_generator(a(2), ctx7) == parse_element("a(0) h(2,0) + a(1) h(1,1)", ctx7)


def test_d1_squares_to_zero_on_generators(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for g in gens_up_to(5):
            assert d1(d1_generator(g, ctx), ctx).is_zero, g.render()


def test_d1_squares_to_zero_on_random_monomials(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(60):
            mon = random_monomial(rng, ctx, max_factors=4)
            x = element_from_monomial(mon, ctx)
            assert d1(d1(x, ctx), ctx).is_zero, mon.render()


def test_leibniz_on_random_pairs(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(80):
            xm = random_monomial(rng, ctx, max_factors=3)
            ym = random_monomial(rng, ctx, max_factors=3)
            x = element_from_monomial(xm, ctx)
            y = element_from_monomial(ym, ctx)
            par = element_parity(x)
            sign = -1 if par else 1
            lhs = d1(multiply(x, y, ctx), ctx)
            rhs = add(multiply(d1(x, ctx), y, ctx),
                      scale(sign, multiply(x, d1(y, ctx), ctx), ctx), ctx)
            assert lhs == rhs, (xm.render(), ym.render())


def test_leibniz_with_exterior_collision(ctx5):
    # x*y = 0 because h(1,0) appears in both; the signed sum of images
    # must then cancel on its own
    x = element_from_monomial(monomial_from_factors([(a(1), 1), (h(1, 0), 1)], ctx5), ctx5)
    y = element_from_monomial(monomial_from_factors([(h(1, 0), 1), (h(2, 0), 1)], ctx5), ctx5)
    assert multiply(x, y, ctx5).is_zero
    sign = -1 if element_parity(x) else 1
    rhs = add(multiply(d1(x, ctx5), y, ctx5),
              scale(sign, multiply(x, d1(y, ctx5), ctx5), ctx5), ctx5)
    assert rhs.is_zero


def test_parity_is_s_plus_t_mod_2(ctx5):
    x = element_from_monomial(monomial_from_factors([(h(1, 0), 1)], ctx5), ctx5)
    assert element_parity(x) == (1 + 8) % 2
    y = element_from_monomial(monomial_from_factors([(a(0), 1)], ctx5), ctx5)
    assert element_parity(y) == 0
    assert element_parity(Element.zero()) is None


def test_grading_shift_on_every_nonzero_image(rng, ctx5):
    seen = 0
    for _ in range(80):
        mon = random_monomial(rng, ctx5, max_factors=4)
        image = d1(element_from_monomial(mon, ctx5), ctx5)
        if image.is_zero:
            continue
        seen += 1
        src = mon.tridegree
        for out in image.terms:
            assert (out.tridegree.s - src.s, out.tridegree.t - src.t,
                    out.tridegree.u - src.u) == D1_SHIFT
    assert seen > 10


def test_power_rule(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for g in (a(1), a(2), a(3), b(2, 0)):
            for e in (2, 3, 4):
                power = element_from_monomial(
                    monomial_from_factors([(g, e)], ctx), ctx)
                lower = element_from_monomial(
                    monomial_from_factors([(g, e - 1)], ctx), ctx)
                expect = scale(e, multiply(lower, d1_generator(g, ctx), ctx), ctx)
                assert d1(power, ctx) == expect


def test_linearity(rng, ctx5):
    for _ in range(30):
        x = random_element(rng, ctx5)
        y = random_element(rng, ctx5)
        lhs = d1(add(scale(2, x, ctx5), scale(3, y, ctx5), ctx5), ctx5)
        rhs = add(scale(2, d1(x, ctx5), ctx5), scale(3, d1(y, ctx5), ctx5), ctx5)
        assert lhs == rhs


def test_matrix_of_known_bidegree(ctx5):
    dom = [monomial_from_factors([(a(0), 1), (h(2, 0), 1)], ctx5),
           monomial_from_factors([(a(1), 1), (h(1, 1), 1)], ctx5)]
    cod = [monomial_from_factors([(a(0), 1), (h(1, 0), 1), (h(1, 1), 1)], ctx5)]
    m = codomain_matrix(block_of(dom, ctx5), cod, ctx5)
    assert m.to_rows() == [[4, 1]]


def test_matrix_missing_codomain_entry_raises(ctx5):
    dom = block_of([monomial_from_factors([(a(2), 1)], ctx5)], ctx5)
    m = d1_matrix(dom, ctx5, [])
    assert m == image_d1_matrix(dom, ctx5, []) and m.rows == 2
    with pytest.raises(AssertionError, match=r"missing from the codomain basis: "
                       r"\['a\(0\) h\(2,0\)', 'a\(1\) h\(1,1\)'\]"):
        codomain_matrix(dom, [], ctx5)


def test_matrix_rows_are_image_monomials_in_first_seen_order(ctx5):
    dom = enumerate_basis(ctx5, 6, 130194)
    seen = {}
    for mon in key_monomials(dom, ctx5):
        for out in d1(element_from_monomial(mon, ctx5), ctx5).terms:
            seen.setdefault(out.factors, len(seen))
    m = d1_matrix(dom, ctx5)
    assert (m.rows, m.cols) == (len(seen), dom.dimension)
    for col, mon in enumerate(key_monomials(dom, ctx5)):
        image = d1(element_from_monomial(mon, ctx5), ctx5)
        assert m.columns[col] == {seen[out.factors]: c for out, c in image.terms.items()}
    # the seeds take the first rows, an image seed keeps its row, and the
    # other images follow in first-seen order
    first = monomial_from_factors(next(iter(seen)), ctx5)
    unrelated = monomial_from_factors([(b(1, 0), 1)], ctx5)   # no image hits it
    assert b(1, 0) in layout_universe(dom.layout) and unrelated.factors not in seen
    seeds = [unrelated, first]
    m2 = d1_matrix(dom, ctx5, packed_seeds(dom, seeds))
    assert m2 == image_d1_matrix(dom, ctx5, seeds)
    assert m2.rows == len(seen) + 1
    assert any(1 in col for col in m2.columns) and not any(0 in col for col in m2.columns)


def test_image_of_cycle_columns_is_zero_column(ctx5):
    # d1(b)=0 and d1(h h)=0, so no codomain is needed at all
    for factors in ([(b(1, 0), 1)], [(h(1, 0), 1), (h(1, 1), 1)], [(b(1, 0), 1), (h(1, 2), 1)]):
        dom = block_of([monomial_from_factors(factors, ctx5)], ctx5)
        m = codomain_matrix(dom, [], ctx5)
        assert m.rows == 0 and m.cols == 1


def test_images_stay_homogeneous(rng, ctx5):
    for _ in range(40):
        mon = random_monomial(rng, ctx5, max_factors=4)
        image = d1(element_from_monomial(mon, ctx5), ctx5)
        if not image.is_zero:
            assert element_tridegree(image) is not None


def _oracle_image(mon, ctx):
    return _from_accumulator(unit_d1_monomial(mon, ctx), ctx)


@pytest.mark.parametrize("p,s,t", [(5, 12, 3000), (5, 8, 130194), (5, 6, 1000),
                                   (5, 9, 5000), (7, 6, 1466)])
def test_factor_level_d1_matches_unit_oracle_on_bases(p, s, t):
    ctx = make_context(p)
    domain = enumerate_basis(ctx, s, t).monomials
    images = {}
    for mon in domain:
        images[mon] = _oracle_image(mon, ctx)
        assert d1(element_from_monomial(mon, ctx), ctx) == images[mon], mon.render()
    # the matrix of one weight block, column by column
    weights = sorted({mon.tridegree.u for mon in domain})
    if weights:
        w = weights[len(weights) // 2]
        dom = enumerate_basis(ctx, s, t, w)
        cod = enumerate_basis(ctx, s + 1, t, w - 1).monomials
        rows = codomain_matrix(dom, cod, ctx).to_rows()
        for col, mon in enumerate(key_monomials(dom, ctx)):
            assert [row[col] for row in rows] == [
                images[mon].coefficient(out) for out in cod]


def test_factor_level_d1_matches_unit_oracle_on_powers(rng, ctx5, ctx7):
    # exponents around multiples of p, where whole factors drop out
    for ctx in (ctx5, ctx7):
        for _ in range(60):
            word = [(random_generator(rng), rng.randint(1, 2 * ctx.p + 1))
                    for _ in range(rng.randint(1, 4))]
            word = [(g, 1 if g.is_exterior else e) for g, e in word]
            res = canonicalize_word([g for g, e in word for _ in range(e)], ctx)
            if res is None:
                continue
            mon = res[1]
            assert d1(element_from_monomial(mon, ctx), ctx) == _oracle_image(mon, ctx), mon.render()


def test_d1_squares_to_zero_on_random_elements(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(40):
            x = random_element(rng, ctx, max_terms=4, max_factors=5, max_i=5)
            big = element_from_monomial(monomial_from_factors(
                [(a(rng.randint(1, 4)), rng.randint(1, 40)), (h(rng.randint(2, 4), 0), 1)],
                ctx), ctx)
            for y in (x, add(x, big, ctx)):
                assert d1(d1(y, ctx), ctx).is_zero, render_element(y, ctx)


def _weight_blocks(ctx, s, t):
    basis = enumerate_basis(ctx, s, t)
    return [basis.block(u) for u in sorted(set(basis.weights))]


def _assert_matches_tuple_path(dom, ctx):
    m = d1_matrix(dom, ctx)
    assert m == image_d1_matrix(dom, ctx)
    return m


@pytest.mark.parametrize("s,t", DENSE_E2)
def test_packed_matrix_matches_tuple_path_on_dense_blocks(ctx5, s, t):
    # every block e2_dimension builds at the point: weight blocks of s and of s - 1
    nnz = 0
    for f in (s, s - 1):
        for dom in _weight_blocks(ctx5, f, t):
            m = _assert_matches_tuple_path(dom, ctx5)
            nnz += sum(len(col) for col in m.columns)
    assert nnz > 3000


def test_packed_matrix_matches_tuple_path_on_a_p7_grid(ctx7):
    nnz = 0
    for s in range(1, 8):
        for t in range(1400, 1500, 2):
            for dom in _weight_blocks(ctx7, s, t):
                nnz += sum(len(col) for col in _assert_matches_tuple_path(dom, ctx7).columns)
    assert nnz > 1000


@pytest.mark.parametrize("p,m,n,s", [(5, 4, 6, 4), (5, 12, 20, 4), (7, 6, 10, 6)])
def test_packed_matrix_matches_tuple_path_on_scenario_blocks(p, m, n, s):
    # the paper's window position, whose monomials hold few of the
    # universe's generators: the blocks of both bases an e2 query reads
    ctx = make_context(p)
    t = family_degree(ctx, m, n, s) + s - 2
    e2_dimension(ctx, s + 2, t)
    for f in (s + 1, s + 2):
        for dom in _weight_blocks(ctx, f, t):
            _assert_matches_tuple_path(dom, ctx)


def _summand_pairs(mon, ctx):
    """(image monomial, e) for each pair of a factor g^e of mon with p not
    dividing e and a summand pair of d1(g) whose new h's mon does not hold."""
    word = units(mon)
    held = set(word)
    out = []
    for g, e in mon.factors:
        if e % ctx.p == 0:
            continue
        pos = word.index(g)
        for pair in unit_summand_pairs(g):
            if any(x.is_exterior and x in held for x in pair):
                continue
            out.append((canonicalize_word(word[:pos] + list(pair) + word[pos + 1:], ctx)[1], e))
    return out


def _assert_one_term_per_pair(mon, ctx):
    # the fact d1_matrix and _d1_factors rest on: the pairs give distinct
    # monomials, so each nonzero term of the image is one pair's, at +-e
    p = ctx.p
    pairs = _summand_pairs(mon, ctx)
    want = dict(pairs)
    terms = {out: c % p for out, c in unit_d1_monomial(mon, ctx).items() if c % p}
    assert len(want) == len(pairs) and terms.keys() == want.keys(), mon.render()
    assert all(c in (want[out] % p, -want[out] % p) for out, c in terms.items()), mon.render()


def test_one_monomial_d1_never_repeats_a_term(rng, ctx5):
    # every monomial of the bases the dense second-page queries search and
    # of the scenarios' windows, and random monomials at four primes
    dense = [mon for s, t in DENSE_E2 for f in (s, s - 1)
             for mon in enumerate_basis(ctx5, f, t).monomials]
    assert len(dense) == 4682
    for mon in dense:
        _assert_one_term_per_pair(mon, ctx5)
    for p, m, n, s in SCENARIOS:
        ctx = make_context(p)
        for _, fs, ft in _window(ctx, m, n, s, 1):
            for mon in enumerate_basis(ctx, fs, ft).monomials:
                _assert_one_term_per_pair(mon, ctx)
    for p in (5, 7, 11, 13):
        ctx = make_context(p)
        for _ in range(500):
            _assert_one_term_per_pair(random_monomial(rng, ctx, max_factors=8), ctx)
