import copy
import pickle

import pytest

from helpers import (UNIT, add, brute_sign, canonicalize_word, generator_universe,
                     random_element, random_element_text, random_monomial, random_word, scale,
                     units)
from mayss import (ParameterError, ParseError, Tridegree, a, b, element_from_monomial,
                   enumerate_basis, h, monomial_from_factors, multiply, parse_element,
                   render_element)
from mayss.algebra import Element, Generator, element_tridegree


def test_reprs_show_the_rendered_value(ctx5):
    assert [repr(g) for g in (a(1), h(2, 0), b(1, 0))] == ["a(1)", "h(2,0)", "b(1,0)"]
    assert repr(monomial_from_factors([(a(1), 2), (h(1, 0), 1)], ctx5)) == "a(1)^2 h(1,0)"
    assert repr(UNIT) == "1"
    assert repr(Element.zero()) == "Element(0)"
    assert repr(parse_element("h(1,1) + 2*h(1,0) + 3", ctx5)) == \
        "Element(3*1 + 2*h(1,0) + 1*h(1,1))"


def test_generator_factories_validate():
    for call in (lambda: a(-1), lambda: h(0, 0), lambda: h(1, -1),
                 lambda: b(0, 0), lambda: b(-2, 1)):
        with pytest.raises(ParameterError):
            call()


def test_generator_render():
    assert a(2).render() == "a(2)"
    assert h(1, 0).render() == "h(1,0)"
    assert b(3, 2).render() == "b(3,2)"


def test_generators_are_interned():
    assert h(2, 1) is Generator("h", 2, 1)
    assert a(3) is Generator("a", 3, None)
    assert b(1, 4) is b(1, 4)
    assert h(2, 1) is not b(2, 1)
    assert Generator.__hash__ is object.__hash__
    assert Generator.__eq__ is object.__eq__
    g = h(2, 1)
    with pytest.raises(AttributeError):
        g.i = 3
    with pytest.raises(AttributeError):
        del g.i
    assert (g.i, g.key) == (2, (1, 2, 1))
    for g in (a(2), h(3, 1), b(2, 5)):
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g


def test_generator_attributes_match_their_formulas(ctx5, ctx7):
    gens = generator_universe(ctx5, 130194) + generator_universe(ctx7, 200000)
    assert {g.kind for g in gens} == {"a", "h", "b"}
    rank = {"a": 0, "h": 1, "b": 2}
    for g in gens:
        text = "a(%d)" % g.i if g.kind == "a" else "%s(%d,%d)" % (g.kind, g.i, g.j)
        key = (rank[g.kind], g.i, -1 if g.j is None else g.j)
        assert (g.text, g.key, g.is_exterior) == (text, key, g.kind == "h")
        assert (g.render(), g.key) == (text, key)
        for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert (clone.text, clone.key, clone.is_exterior) == (text, key, g.kind == "h")


def test_basis_and_parser_share_generator_objects(ctx5):
    basis = enumerate_basis(ctx5, 12, 3000)
    assert basis.dimension
    for mon in basis.monomials:
        (parsed, coeff), = parse_element(mon.render(), ctx5).terms.items()
        assert coeff == 1 and parsed == mon
        assert all(g is pg and e == pe for (g, e), (pg, pe) in zip(mon.factors, parsed.factors))


def test_canonicalize_empty_word_is_unit(ctx5):
    assert canonicalize_word([], ctx5) == (1, UNIT)


def test_canonicalize_repeated_exterior_is_none(ctx5):
    assert canonicalize_word([h(1, 0), h(1, 0)], ctx5) is None
    assert canonicalize_word([h(1, 0), a(1), h(2, 1), h(1, 0)], ctx5) is None
    # polynomial repeats are fine
    assert canonicalize_word([a(1), a(1)], ctx5) is not None
    assert canonicalize_word([b(1, 0), b(1, 0)], ctx5) is not None


def test_canonicalize_sign_matches_selection_sort_oracle(rng, ctx5):
    checked = 0
    for _ in range(400):
        word = random_word(rng, max_factors=6)
        res = canonicalize_word(word, ctx5)
        want = brute_sign(word, ctx5)
        if want is None:
            assert res is None
            continue
        sign, mon = res
        assert sign == want
        # same multiset of units either way
        got = sorted(g.key for g in units(mon))
        assert got == sorted(g.key for g in word)
        checked += 1
    assert checked > 100


def test_canonicalize_swapping_two_exterior_factors_flips_sign(ctx5):
    plus = canonicalize_word([h(1, 0), h(1, 1)], ctx5)
    minus = canonicalize_word([h(1, 1), h(1, 0)], ctx5)
    assert plus[1] == minus[1]
    assert plus[0] == -minus[0]
    # moving past a polynomial factor costs nothing
    free = canonicalize_word([a(3), h(1, 0)], ctx5)
    assert free[0] == 1


def test_monomial_from_factors_validates(ctx5):
    with pytest.raises(ParameterError):
        monomial_from_factors([(h(1, 0), 2)], ctx5)
    with pytest.raises(ParameterError):
        monomial_from_factors([(a(1), 0)], ctx5)
    mon = monomial_from_factors([(a(1), 2), (h(1, 0), 1), (a(1), 1)], ctx5)
    assert mon.factors == ((a(1), 3), (h(1, 0), 1))
    assert mon.render() == "a(1)^3 h(1,0)"
    with pytest.raises(ParameterError):
        monomial_from_factors([(h(1, 0), 1), (a(1), 1), (h(1, 0), 1)], ctx5)


def test_monomial_tridegree_adds_up(rng, ctx5):
    for _ in range(100):
        mon = random_monomial(rng, ctx5)
        total = Tridegree(0, 0, 0)
        for g in units(mon):
            total = total + g.tridegree(ctx5)
        assert mon.tridegree == total


def test_monomial_mul_koszul_commutation(rng, ctx5):
    def exterior_count(mon):
        return sum(e for g, e in mon.factors if g.is_exterior)

    for _ in range(300):
        x = random_monomial(rng, ctx5, max_factors=3)
        y = random_monomial(rng, ctx5, max_factors=3)
        xy = multiply(element_from_monomial(x, ctx5), element_from_monomial(y, ctx5), ctx5)
        yx = multiply(element_from_monomial(y, ctx5), element_from_monomial(x, ctx5), ctx5)
        sign = (-1) ** (exterior_count(x) * exterior_count(y))
        assert xy == scale(sign, yx, ctx5)
        # x and y are canonical, so the sign is the selection-sort sign of x y
        word = units(x) + units(y)
        want = brute_sign(word, ctx5)
        if want is None:
            assert xy.is_zero
            continue
        (prod,) = xy.terms
        assert xy.coefficient(prod) == want % ctx5.p
        assert sorted(g.key for g in units(prod)) == sorted(g.key for g in word)
        assert prod.tridegree == x.tridegree + y.tridegree


def test_multiply_ring_axioms(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(60):
            x = random_element(rng, ctx, max_terms=2)
            y = random_element(rng, ctx, max_terms=2)
            z = random_element(rng, ctx, max_terms=2)
            left = multiply(x, add(y, z, ctx), ctx)
            right = add(multiply(x, y, ctx), multiply(x, z, ctx), ctx)
            assert left == right
            assert multiply(multiply(x, y, ctx), z, ctx) == multiply(x, multiply(y, z, ctx), ctx)


def test_element_basics(ctx5):
    zero = Element.zero()
    assert zero.is_zero
    x = Element({UNIT: 3})
    assert x.coefficient(UNIT) == 3
    assert scale(5, x, ctx5).is_zero  # p * anything = 0
    assert add(x, scale(-1, x, ctx5), ctx5).is_zero
    with pytest.raises(TypeError):
        hash(x)
    assert element_tridegree(zero) is None
    mixed = add(element_from_monomial(UNIT, ctx5),
                element_from_monomial(monomial_from_factors([(a(0), 1)], ctx5), ctx5), ctx5)
    assert element_tridegree(mixed) is None


def test_render_known_forms(ctx5):
    mon = canonicalize_word([h(1, 0), h(1, 1)], ctx5)[1]
    assert render_element(Element({mon: 4}), ctx5) == "-1*h(1,0) h(1,1)"
    assert render_element(Element({mon: 1}), ctx5) == "h(1,0) h(1,1)"
    assert render_element(Element({mon: 2}), ctx5) == "2*h(1,0) h(1,1)"
    assert render_element(Element({mon: 3}), ctx5) == "-2*h(1,0) h(1,1)"
    assert render_element(Element.zero(), ctx5) == "0"
    assert render_element(Element({UNIT: 2}), ctx5) == "2"
    assert render_element(Element({UNIT: 4}), ctx5) == "-1"
    two_terms = Element({monomial_from_factors([(a(0), 1)], ctx5): 1,
                         monomial_from_factors([(a(1), 1)], ctx5): 4})
    assert render_element(two_terms, ctx5) == "a(0) - 1*a(1)"


def test_parse_known_forms(ctx5):
    assert parse_element("0", ctx5).is_zero
    assert parse_element("  0  ", ctx5).is_zero
    x = parse_element("3", ctx5)
    assert x.coefficient(UNIT) == 3
    y = parse_element("a(2)^2 h(1,0)", ctx5)
    mon = monomial_from_factors([(a(2), 2), (h(1, 0), 1)], ctx5)
    assert y.coefficient(mon) == 1
    # written order is respected: h(1,1) h(1,0) = -h(1,0) h(1,1)
    flip = parse_element("h(1,1) h(1,0)", ctx5)
    target = canonicalize_word([h(1, 0), h(1, 1)], ctx5)[1]
    assert flip.coefficient(target) == ctx5.p - 1
    # cancelling terms collapse to zero
    assert parse_element("h(1,0) h(1,1) + h(1,1) h(1,0)", ctx5).is_zero
    # exterior square inside one term is zero
    assert parse_element("h(1,0) h(1,0)", ctx5).is_zero
    assert parse_element("h(1,0)^1", ctx5).coefficient(
        monomial_from_factors([(h(1, 0), 1)], ctx5)) == 1


def test_parse_render_roundtrip(rng, ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for _ in range(150):
            x = random_element(rng, ctx)
            assert parse_element(render_element(x, ctx), ctx) == x


def test_parse_errors_carry_positions(ctx5):
    # (message, position) of every rejection branch, at p = 5
    gen_rule = "; the generators are a(i), h(i,j) and b(i,j)"
    cases = {
        "h(2,0": ("expected ')'", 5),           # missing close paren
        "b(1,0": ("expected ')'", 5),
        "h(1 ,2)": ("expected ')'", 3),         # no blank inside a generator
        "h(1, 2)": ("expected an integer", 4),
        "a (1)": ("expected '('", 1),
        "a()": ("expected an integer", 2),
        "a(1)^": ("expected an integer", 5),
        "a(1)^0": ("exponent must be >= 1", 5),  # flagged at its first digit
        "a(1)^00": ("exponent must be >= 1", 5),
        "a(1) ^2": ("expected '+', '-', or end of input", 5),  # no blank around ^
        "0*a(1)": ("coefficient 0 out of range [1, 4]", 0),
        "5*a(1)": ("coefficient 5 out of range [1, 4]", 0),
        "6*a(0)": ("coefficient 6 out of range [1, 4]", 0),
        "2 a(1)": ("expected '+', '-', or end of input", 2),  # no blank around *
        "2 *a(1)": ("expected '+', '-', or end of input", 2),
        "2* a(1)": ("expected a generator (a, h, or b)", 2),
        "a(1)a(2)": ("expected '+', '-', or end of input", 4),  # factors need a blank
        "a(0) + ": ("expected a generator (a, h, or b)", 7),  # dangling separator
        "- -a(1)": ("expected a generator (a, h, or b)", 2),
        "a(0) % a(1)": ("expected '+', '-', or end of input", 5),  # junk separator
        "a(1)^3 %": ("expected '+', '-', or end of input", 7),
        "h(1,10001)": ("generator index 10001 exceeds 10000", 4),
        "a(10001)": ("generator index 10001 exceeds 10000", 2),
        # invalid indices, flagged at the factor start
        "a(1,2)": ("no generator a with indices (1, 2)" + gen_rule, 0),
        "h(1)": ("no generator h with indices (1, None)" + gen_rule, 0),
        "b(0,0)": ("b requires i >= 1 and j >= 0, got (0, 0)", 0),
        "h(0,1)": ("h requires i >= 1 and j >= 0, got (0, 1)", 0),
        "": ("expected a generator (a, h, or b)", 0),
        "   ": ("expected a generator (a, h, or b)", 3),
        "1" * 4400 + "*a(1)": ("integer too long", 0),  # past int()'s digit limit
        "a(1)^" + "1" * 4400: ("integer too long", 5),
        "q": ("expected a generator (a, h, or b)", 0),
        "x(1)": ("expected a generator (a, h, or b)", 0),  # unknown generator letter
        # only space and tab are blanks, around the lone zero too
        "\na(1)": ("expected a generator (a, h, or b)", 0),
        "a(1)\n": ("expected '+', '-', or end of input", 4),
        "\n0": ("expected a generator (a, h, or b)", 0),
    }
    for text, (message, pos) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_element(text, ctx5)
        assert (str(err.value), err.value.position) == (
            "%s (at position %d)" % (message, pos), pos), text[:20]
    assert parse_element(" \t0\t ", ctx5).is_zero


def test_parse_ends_in_an_element_or_a_located_error(rng, ctx5, ctx7):
    # every text parses, raises a ParseError at a position inside it, or names
    # a degree past 10^4000; no other exception escapes
    for k in range(10_000):
        ctx = (ctx5, ctx7)[k % 2]
        text = random_element_text(rng)
        try:
            assert isinstance(parse_element(text, ctx), Element), text
        except ParseError as exc:
            assert 0 <= exc.position <= len(text), text
        except ParameterError as exc:
            assert str(exc) == "internal degree exceeds 10^4000", text


def test_parse_rejects_exterior_exponent_via_zero(ctx5):
    # h^2 squares to zero rather than erroring: the grammar allows it,
    # the algebra kills it
    assert parse_element("h(1,0)^2", ctx5).is_zero


def test_unit_monomial_properties(ctx5):
    assert UNIT.render() == ""
    assert UNIT.tridegree == Tridegree(0, 0, 0)
    assert UNIT.factors == ()


def test_parse_huge_power_roundtrips(ctx5):
    x = parse_element("a(1)^1000000", ctx5)
    (mon,) = x.terms
    assert mon.factors == ((a(1), 1000000),)
    assert render_element(x, ctx5) == "a(1)^1000000"
    assert parse_element("2*b(1,0)^999999 h(1,1) h(1,0)", ctx5) == scale(
        -2, parse_element("h(1,0) h(1,1) b(1,0)^999999", ctx5), ctx5)


def test_parse_powers_match_expanded_word(rng, ctx5, ctx7):
    # a power parses like the word with its units written out
    for ctx in (ctx5, ctx7):
        for _ in range(100):
            word = [(g, rng.randint(1, 3)) for g in random_word(rng, max_factors=5)]
            text = " ".join("%s^%d" % (g.render(), e) for g, e in word)
            res = canonicalize_word([g for g, e in word for _ in range(e)], ctx)
            expect = Element.zero() if res is None else scale(res[0], element_from_monomial(res[1], ctx), ctx)
            assert parse_element(text, ctx) == expect, text
