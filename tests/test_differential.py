import pytest

from helpers import (add, canonicalize_word, codomain_matrix, d1_generator, element_parity,
                     random_element, random_generator, random_monomial, scale,
                     unit_d1_monomial)
from mayss import (a, b, d1, element_from_monomial, enumerate_basis, h,
                   make_context, monomial_from_factors, multiply, parse_element,
                   render_element)
from mayss.algebra import Element, _from_accumulator, element_tridegree
from mayss.differential import d1_matrix

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
    m = codomain_matrix(dom, cod, ctx5)
    assert m.to_rows() == [[4, 1]]


def test_matrix_missing_codomain_entry_raises(ctx5):
    dom = [monomial_from_factors([(a(2), 1)], ctx5)]
    with pytest.raises(AssertionError, match="missing from the codomain basis"):
        codomain_matrix(dom, [], ctx5)


def test_matrix_rows_are_image_monomials_in_first_seen_order(ctx5):
    dom = enumerate_basis(ctx5, 6, 130194).monomials
    seen = {}
    for mon in dom:
        for out in d1(element_from_monomial(mon, ctx5), ctx5).terms:
            seen.setdefault(out.factors, len(seen))
    row_of = {}
    m = d1_matrix(dom, ctx5, row_of)
    assert row_of == seen and list(row_of) == list(seen)
    assert (m.rows, m.cols) == (len(seen), len(dom))
    for col, mon in enumerate(dom):
        image = d1(element_from_monomial(mon, ctx5), ctx5)
        assert m.columns[col] == {row_of[out.factors]: c for out, c in image.terms.items()}
    # a pre-seeded key keeps its row, and the map grows in place
    first = next(iter(seen))
    seeded = {"unrelated": 0, first: 1}
    m2 = d1_matrix(dom, ctx5, seeded)
    assert seeded["unrelated"] == 0 and seeded[first] == 1
    assert m2.rows == len(seeded) == len(seen) + 1


def test_image_of_cycle_columns_is_zero_column(ctx5):
    dom = [monomial_from_factors([(b(1, 0), 1)], ctx5),
           monomial_from_factors([(h(1, 0), 1), (h(1, 1), 1)], ctx5)]
    # d1(b)=0 and d1(h h)=0, so no codomain is needed at all
    m = codomain_matrix(dom, [], ctx5)
    assert m.rows == 0 and m.cols == 2


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
    codomain = enumerate_basis(ctx, s + 1, t).monomials
    images = {}
    for mon in domain:
        images[mon] = _oracle_image(mon, ctx)
        assert d1(element_from_monomial(mon, ctx), ctx) == images[mon], mon.render()
    # the matrix of one weight block, column by column
    weights = sorted({mon.tridegree.u for mon in domain})
    if weights:
        w = weights[len(weights) // 2]
        dom = [mon for mon in domain if mon.tridegree.u == w]
        cod = [mon for mon in codomain if mon.tridegree.u == w - 1]
        rows = codomain_matrix(dom, cod, ctx).to_rows()
        for col, mon in enumerate(dom):
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
