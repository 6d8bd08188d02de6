import pytest

from helpers import (DENSE_E2, UNIT, carry_solutions, column_sums, column_sums_impossible,
                     factor_count, forced_spanning_factors, reference_basis,
                     set_carry_feasible, single_search, vanishes_by_digit_bound,
                     vanishes_by_remainder_bound)
from mayss import (ParameterError, a, b, enumerate_basis, h, make_context,
                   monomial_from_factors, padic_profile)
from mayss import enumeration
from mayss.algebra import Monomial
from mayss.enumeration import (ALL_PRUNING, MAX_FILTRATION, PRUNE_CARRY, PRUNE_DEGREE,
                               _carry_feasible, _search, clear_memo, digit_span,
                               generator_universe)
from mayss.grading import PAdicProfile
from mayss.pages import e2_dimension
from mayss.verify import family_degree


def search_renders(ctx, s, t, flags):
    """The basis searched under the given pruning rules, as sorted renders."""
    return sorted(m.render() for m in single_search(ctx, s, t, flags))


def test_universe_hand_check(ctx5):
    got = sorted(g.render() for g in generator_universe(ctx5, t_max=50, s_max=2))
    assert got == ["a(0)", "a(1)", "a(2)", "b(1,0)", "h(1,0)", "h(1,1)", "h(2,0)"]
    # s_max=1 drops the b
    got1 = sorted(g.render() for g in generator_universe(ctx5, t_max=50, s_max=1))
    assert "b(1,0)" not in got1
    # nothing exceeds the degree bound
    for g in generator_universe(ctx5, t_max=3000, s_max=6):
        assert g.tridegree(ctx5).t <= 3000


def test_engine_matches_reference_on_grid(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for s in range(4):
            for t in range(0, 121):
                want = reference_basis(ctx, s, t)
                clear_memo()
                got = [m.render() for m in enumerate_basis(ctx, s, t).monomials]
                assert got == want, (ctx.p, s, t)
                assert search_renders(ctx, s, t, ()) == want, (ctx.p, s, t)
    clear_memo()


def test_each_single_flag_is_lossless(ctx5):
    singles = [frozenset({f}) for f in (PRUNE_DEGREE, PRUNE_CARRY)]
    for s in range(4):
        for t in range(0, 121, 7):
            want = reference_basis(ctx5, s, t)
            for flags in singles:
                assert search_renders(ctx5, s, t, flags) == want, (s, t, sorted(flags))


def test_degree_skip_is_lossless_at_large_degrees(ctx5, ctx7):
    # Large universes, where the degree-ordered skip fires often; every leaf
    # must also equal the monomial built through the validating constructor.
    cases = [(ctx5, 12, 3000), (ctx5, 11, 2988), (ctx5, 8, 130194)]
    for ctx, (m, n, s), rs in ((ctx5, (4, 6, 4), (1, 2, 3)), (ctx7, (6, 10, 6), (1, 2))):
        base = family_degree(ctx, m, n, s)
        cases += [(ctx, s + 3 - r, base + s - r - 1) for r in rs]
    clear_memo()
    for ctx, s, t in cases:
        pruned = enumerate_basis(ctx, s, t).monomials
        unpruned = sorted(single_search(ctx, s, t, ALL_PRUNING - {PRUNE_DEGREE}),
                          key=Monomial.render)
        assert list(pruned) == unpruned, (ctx.p, s, t)
        for mon in pruned:
            assert mon == monomial_from_factors(mon.factors, ctx), mon.render()
    clear_memo()


def window_equals_single_searches(ctx, s_lo, s_hi, t, singles):
    """Whether the window search gives, per filtration, the monomials of the
    one-filtration searches (singles caches them by (s, t))."""
    window = _search(ctx, s_lo, s_hi, t, ALL_PRUNING)
    if sorted(window) != list(range(s_lo, s_hi + 1)):
        return False
    for s in range(s_lo, s_hi + 1):
        if (s, t) not in singles:
            singles[s, t] = sorted(single_search(ctx, s, t, ALL_PRUNING), key=Monomial.render)
        if sorted((mon for _, mon in window[s]), key=Monomial.render) != singles[s, t]:
            return False
    return True


def test_window_search_matches_single_searches(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        singles = {}
        for t in range(500):
            for s in range(1, 7):
                assert window_equals_single_searches(ctx, s - 1, s + 1, t, singles), (ctx.p, s, t)


@pytest.fixture(scope="module")
def dense_windows(ctx5):
    """The window searches [s - 1, s + 1] at the dense benchmark points."""
    return {(s, t): _search(ctx5, s - 1, s + 1, t, ALL_PRUNING) for s, t in DENSE_E2}


def test_window_search_matches_single_searches_on_dense_blocks(ctx5, dense_windows):
    for (s, t), window in dense_windows.items():
        for f in (s - 1, s, s + 1):
            single = sorted(single_search(ctx5, f, t, ALL_PRUNING), key=Monomial.render)
            assert single, (f, t)
            assert sorted((mon for _, mon in window[f]), key=Monomial.render) == single, (f, t)


def test_leaf_text_is_the_rendered_monomial(dense_windows):
    bases = [leaves for window in dense_windows.values() for leaves in window.values()]
    assert len(bases) == 12 and all(bases)
    for leaves in bases:
        for text, mon in leaves:
            assert text == mon.render()


def test_second_page_query_keeps_a_memoized_basis(ctx5, monkeypatch):
    clear_memo()
    target = enumerate_basis(ctx5, 2, 49)
    windows = []
    search = enumeration._search

    def recording_search(ctx, s_lo, s_hi, t, flags):
        windows.append((s_lo, s_hi, t))
        return search(ctx, s_lo, s_hi, t, flags)

    monkeypatch.setattr(enumeration, "_search", recording_search)
    e2_dimension(ctx5, 2, 49)
    # only the missing basis of s - 1 is searched; s + 1 never is
    assert windows == [(1, 1, 49)]
    assert enumerate_basis(ctx5, 2, 49) is target
    # both bases are memoized now: a second query searches nothing
    e2_dimension(ctx5, 2, 49)
    assert windows == [(1, 1, 49)]
    # with neither basis memoized, one window search serves both
    clear_memo()
    e2_dimension(ctx5, 2, 49)
    assert windows == [(1, 1, 49), (1, 2, 49)]
    clear_memo()


def test_trivial_bidegrees(ctx5):
    empty = enumerate_basis(ctx5, 0, 5)
    assert empty.dimension == 0
    unit = enumerate_basis(ctx5, 0, 0)
    assert unit.monomials == (UNIT,)
    assert enumerate_basis(ctx5, 3, 1).dimension == 0
    with pytest.raises(ParameterError):
        enumerate_basis(ctx5, -1, 10)
    with pytest.raises(ParameterError):
        enumerate_basis(ctx5, 2, -8)


def test_filtration_limit(ctx5, monkeypatch):
    # The deepest allowed search recurses MAX_FILTRATION levels without
    # reaching the interpreter's recursion limit ...
    clear_memo()
    top = enumerate_basis(ctx5, MAX_FILTRATION, MAX_FILTRATION)
    assert [m.render() for m in top.monomials] == ["a(0)^%d" % MAX_FILTRATION]
    clear_memo()

    # ... and one more is rejected before any search starts.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(enumeration, "_search", no_search)
    with pytest.raises(ParameterError, match="filtration %d exceeds %d"
                       % (MAX_FILTRATION + 1, MAX_FILTRATION)):
        enumerate_basis(ctx5, MAX_FILTRATION + 1, MAX_FILTRATION + 1)


def test_weight_filter_is_posthoc(ctx5):
    full = enumerate_basis(ctx5, 2, 49)
    assert full.dimension == 2
    assert sorted(full.weights()) == [4, 4]
    assert enumerate_basis(ctx5, 2, 49, u=4).dimension == 2
    assert enumerate_basis(ctx5, 2, 49, u=5).dimension == 0


def test_memo_returns_same_object(ctx5):
    clear_memo()
    first = enumerate_basis(ctx5, 2, 49)
    assert enumerate_basis(ctx5, 2, 49) is first
    clear_memo()
    assert enumerate_basis(ctx5, 2, 49) is not first


def test_digit_span_table():
    assert digit_span(a(0)) == (-1, -1)
    assert digit_span(a(3)) == (-1, 2)
    assert digit_span(h(1, 0)) == (0, 0)
    assert digit_span(h(2, 1)) == (1, 2)
    assert digit_span(b(1, 0)) == (1, 1)
    assert digit_span(b(2, 1)) == (2, 3)


def test_column_sums_of_product_class_representative(ctx5):
    mon = monomial_from_factors(
        [(a(2), 2), (h(2, 0), 1), (h(1, 1), 1), (h(1, 0), 1), (h(1, 6), 1), (h(1, 4), 1)],
        ctx5)
    assert column_sums(mon) == (2, 4, 4, 0, 0, 1, 0, 1)
    assert column_sums(UNIT) == (0,)
    # degree reconstruction: sum over columns matches the monomial degree
    prof = padic_profile(mon.tridegree.t, ctx5)
    cs = column_sums(mon)
    # column sums needn't equal the digits (carries), but here they do not carry
    assert prof == PAdicProfile(2, (4, 4, 0, 0, 1, 0, 1))
    assert cs[0] == prof.c_minus1 and cs[1:] == prof.digits


def test_digit_bound_predicate(ctx5):
    assert vanishes_by_digit_bound(3, 32, ctx5)       # digit 4 > 3
    assert not vanishes_by_digit_bound(4, 32, ctx5)
    assert vanishes_by_digit_bound(3, 130194, ctx5)
    assert not vanishes_by_digit_bound(4, 130194, ctx5)
    assert not vanishes_by_digit_bound(1, 3, ctx5)    # no digits at all
    for bad in (0, 5, -2):
        with pytest.raises(ParameterError):
            vanishes_by_digit_bound(bad, 40, ctx5)


def test_remainder_bound_predicate(ctx5):
    assert vanishes_by_remainder_bound(2, 3, ctx5)    # remainder 3 > 2
    assert not vanishes_by_remainder_bound(3, 3, ctx5)
    assert not vanishes_by_remainder_bound(1, 40, ctx5)
    for bad in (0, 8, 12):
        with pytest.raises(ParameterError):
            vanishes_by_remainder_bound(bad, 3, ctx5)


def test_predicates_imply_empty_bases(ctx5):
    # spot-check the implication the predicates promise
    for s1, t in [(3, 32), (3, 130194), (2, 3), (1, 100)]:
        digit = 0 < s1 < ctx5.p and vanishes_by_digit_bound(s1, t, ctx5)
        rem = 0 < s1 < ctx5.q and vanishes_by_remainder_bound(s1, t, ctx5)
        if digit or rem:
            assert search_renders(ctx5, s1, t, ()) == []


def test_root_carry_test_subsumes_the_vanishing_bounds(ctx5, ctx7):
    # Whatever the bounds reject, the carry test at the root rejects too, even
    # with every column supported: for s < q the remainder column caps the
    # carry interval at [0, 0], and for s < p no digit above s gets through.
    fired = 0
    for ctx in (ctx5, ctx7):
        for s in range(1, ctx.q):
            for t in range(0, 6000, 7):
                digit = s < ctx.p and vanishes_by_digit_bound(s, t, ctx)
                if digit or vanishes_by_remainder_bound(s, t, ctx):
                    fired += 1
                    assert not _carry_feasible(t, s, (1 << 64) - 1, ctx), (ctx.p, s, t)
    assert fired > 1000


def test_column_sums_impossible():
    # needs a strict middle column with a deficit
    assert column_sums_impossible((0, 2, 1, 2), 2)
    assert not column_sums_impossible((0, 2, 1, 2), 3)
    assert not column_sums_impossible((0, 0, 0), 0)
    # remainder column participates as an outer column
    assert column_sums_impossible((2, 0, 2), 3)
    with pytest.raises(ParameterError):
        column_sums_impossible((1, 1), -1)


def test_every_enumerated_monomial_passes_triple_inequality(ctx5):
    for s in range(1, 4):
        for t in range(1, 121):
            for mon in enumerate_basis(ctx5, s, t).monomials:
                assert not column_sums_impossible(column_sums(mon), factor_count(mon))


def test_forced_spanning_factors_cases(ctx5):
    none = forced_spanning_factors((1, 1, 1), 2, -1, 0, 1)
    assert none.count == 0 and none.generator is None and not none.vanishes
    assert none.describe() == "no forced factors"

    one_h = forced_spanning_factors((0, 2, 1, 2), 3, 0, 1, 2)
    assert one_h.generator == h(3, 0) and one_h.count == 1 and not one_h.vanishes
    assert one_h.describe() == "1 copy of h(3,0)"

    dead = forced_spanning_factors((0, 2, 2, 2), 2, 0, 1, 2)
    assert dead.generator == h(3, 0) and dead.count == 2 and dead.vanishes
    assert dead.describe() == "2 copies of h(3,0), hence the monomial is zero"

    forced_a = forced_spanning_factors((1, 1, 1), 1, -1, 0, 1)
    assert forced_a.generator == a(2) and forced_a.count == 1 and not forced_a.vanishes
    # a(2) itself realizes this column vector with a single factor
    assert column_sums(monomial_from_factors([(a(2), 1)], ctx5)) == (1, 1, 1)


def test_forced_spanning_factor_preconditions():
    with pytest.raises(ParameterError):
        forced_spanning_factors((0, 2, 1, 2), 2, 0, 1, 2)  # already impossible
    with pytest.raises(ParameterError):
        forced_spanning_factors((1, 1, 1), 2, -1, 1, 1)    # not strictly increasing
    with pytest.raises(ParameterError):
        forced_spanning_factors((1, 1, 1), 2, 0, 1, 2)     # i3 beyond top column
    with pytest.raises(ParameterError):
        forced_spanning_factors((1, 1, 1, 1), 3, 0, 1, 2)  # remainder nonzero outside


def test_carry_solutions_hand_cases(ctx5):
    # 49 = 1 + 8*(1 + 5): no room for any carry under a 2-factor cap
    sols = carry_solutions(padic_profile(49, ctx5), 2, ctx5)
    assert len(sols) == 1
    assert sols[0].cbar == (1, 1, 1) and sols[0].lambdas == (0, 0)
    # 40 = 8*5: either hit column 1 directly or carry five column-0 units
    sols = carry_solutions(padic_profile(40, ctx5), 5, ctx5)
    assert [(s.cbar, s.lambdas) for s in sols] == [
        ((0, 0, 1), (0, 0)), ((0, 5, 0), (0, 1))]
    # pure remainder target
    sols = carry_solutions(padic_profile(3, ctx5), 5, ctx5)
    assert [(s.cbar, s.lambdas) for s in sols] == [((3,), ())]
    assert carry_solutions(padic_profile(3, ctx5), 2, ctx5) == []
    with pytest.raises(ParameterError):
        carry_solutions(padic_profile(3, ctx5), -1, ctx5)


def test_carry_solutions_satisfy_the_column_equations(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for t in (40, 49, 137, 360, 1000):
            target = padic_profile(t, ctx)
            for sol in carry_solutions(target, 6, ctx):
                assert all(0 <= c <= 6 for c in sol.cbar)
                assert all(0 <= l <= 6 for l in sol.lambdas)
                # replay the carries column by column
                digits = target.digits
                assert len(sol.cbar) == len(digits) + 1
                assert len(sol.lambdas) == len(digits)
                assert sol.cbar[0] == target.c_minus1 + sol.lambdas[0] * ctx.q
                for j in range(len(digits)):
                    carry_in = sol.lambdas[j]
                    carry_out = sol.lambdas[j + 1] if j + 1 < len(digits) else 0
                    assert sol.cbar[1 + j] == digits[j] + carry_out * ctx.p - carry_in


def test_carry_recurrence_matches_the_set_oracle(ctx5, ctx7, rng):
    for ctx in (ctx5, ctx7):
        for t in range(1200):
            for cap in range(7):
                for support in range(32):
                    assert (_carry_feasible(t, cap, support, ctx)
                            == set_carry_feasible(t, cap, support, ctx)), (ctx.p, t, cap, support)
    for _ in range(3000):
        ctx = rng.choice((ctx5, ctx7))
        t = rng.randint(0, 10**12)
        cap = rng.randint(0, 40)
        support = rng.getrandbits(rng.randint(1, 20))
        assert (_carry_feasible(t, cap, support, ctx)
                == set_carry_feasible(t, cap, support, ctx)), (ctx.p, t, cap, support)


def test_carry_recurrence_is_constant_memory_in_cap(ctx5):
    # The set oracle would hold about 10**10 carries here.
    assert _carry_feasible(9 * 10**11, 10**11, (1 << 40) - 1, ctx5)


def test_carry_forms_agree(ctx5, ctx7):
    # The lemma form (every solution, carries bounded too) and the search
    # form (feasibility over all columns of t) decide the same systems.
    for ctx in (ctx5, ctx7, make_context(11)):
        for t in range(4000):
            target = padic_profile(t, ctx)
            support = (1 << (len(target.digits) + 1)) - 1
            for cap in range(9):
                assert (bool(carry_solutions(target, cap, ctx))
                        == _carry_feasible(t, cap, support, ctx)), (ctx.p, t, cap)
