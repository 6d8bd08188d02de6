import inspect
import random
import sys

import pytest

from helpers import (DENSE_E2, SCENARIOS, UNIT, basis_mismatch, carry_solutions, column_sums,
                     column_sums_impossible, e1_dims, factor_count, forced_spanning_factors,
                     reference_basis, set_carry_feasible, single_search, tree_search,
                     unit_summand_pairs, vanishes_by_digit_bound, vanishes_by_remainder_bound)
from mayss import (ParameterError, a, b, enumerate_basis, h, make_context,
                   monomial_from_factors, padic_profile, verify_main)
from mayss import enumeration
from mayss.algebra import Monomial
from mayss.enumeration import (MAX_FILTRATION, BidegreeBasis, Layout, _carry_feasible, _search,
                               clear_memo, digit_span, generator_universe)
from mayss.grading import PAdicProfile
from mayss.pages import e2_dimension
from mayss.verify import family_degree


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
    clear_memo()


def test_degree_skip_is_lossless_at_large_degrees(ctx5, ctx7):
    # Large universes, where the degree-ordered skip fires often: the dense
    # benchmark points and the window positions of two paper scenarios, held
    # to the E1 count per weight.
    cases = [(ctx5, s, t) for s, t in DENSE_E2]
    for ctx, (m, n, s), rs in ((ctx5, (4, 6, 4), (1, 2, 3)), (ctx7, (6, 10, 6), (1, 2))):
        base = family_degree(ctx, m, n, s)
        cases += [(ctx, s + 3 - r, base + s - r - 1) for r in rs]
    clear_memo()
    for ctx, s, t in cases:
        assert basis_mismatch(ctx, s, t, enumerate_basis(ctx, s, t).monomials) is None, \
            (ctx.p, s, t)
    clear_memo()


def test_e1_count_hand_cases():
    assert e1_dims(5, 0, 0) == {0: 1}
    assert e1_dims(5, 2, 2) == {2: 1}                  # a(0)^2
    assert e1_dims(5, 2, 16) == {}                     # h(1,0)^2 = 0
    assert e1_dims(5, 2, 40) == {5: 1}                 # b(1,0)
    assert e1_dims(5, 2, 49) == {4: 2}                 # a(0) h(2,0), a(1) h(1,1)
    assert e1_dims(5, 1, 5) == e1_dims(5, -1, 0) == {}


def test_e1_count_catches_a_generator_missing_from_the_universe(ctx5, monkeypatch):
    # Every other oracle of the basis reads generator_universe too, so none
    # of them sees a generator missing from it.
    universe = enumeration.generator_universe
    monkeypatch.setattr(enumeration, "generator_universe", lambda ctx, t_max, s_max: [
        g for g in universe(ctx, t_max, s_max) if g is not h(1, 1)])
    clear_memo()
    try:
        basis = enumerate_basis(ctx5, 12, 3000).monomials
    finally:
        clear_memo()
    assert basis
    assert "E1 count" in basis_mismatch(ctx5, 12, 3000, basis)


def window_equals_single_searches(ctx, s_lo, s_hi, t, singles):
    """Whether the window search gives, per filtration, the monomials of the
    one-filtration searches (singles caches them by (s, t))."""
    window = _search(ctx, s_lo, s_hi, t)
    if sorted(window) != list(range(s_lo, s_hi + 1)):
        return False
    for s in range(s_lo, s_hi + 1):
        if (s, t) not in singles:
            singles[s, t] = single_search(ctx, s, t).monomials
        if window[s].monomials != singles[s, t]:
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
    return {(s, t): _search(ctx5, s - 1, s + 1, t) for s, t in DENSE_E2}


def test_window_search_matches_single_searches_on_dense_blocks(ctx5, dense_windows):
    for (s, t), window in dense_windows.items():
        for f in (s - 1, s, s + 1):
            single = single_search(ctx5, f, t).monomials
            assert single, (f, t)
            assert window[f].monomials == single, (f, t)


def test_second_page_query_keeps_a_memoized_basis(ctx5, monkeypatch):
    clear_memo()
    target = enumerate_basis(ctx5, 2, 49)
    windows = []
    search = enumeration._search

    def recording_search(ctx, s_lo, s_hi, t):
        windows.append((s_lo, s_hi, t))
        return search(ctx, s_lo, s_hi, t)

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


def same_as_tree_search(ctx, s_lo, s_hi, t, found=None):
    """Whether the memoized search gives what the tree walk gives: per
    filtration the same keys and weights in the same order, on the same
    layout.  found, when given, is the memoized search's result."""
    found = _search(ctx, s_lo, s_hi, t) if found is None else found
    tree = tree_search(ctx, s_lo, s_hi, t)
    if sorted(found) != sorted(tree):
        return False
    return all((x.keys, x.weights, x.layout.universe, x.layout.width)
               == (y.keys, y.weights, y.layout.universe, y.layout.width)
               for x, y in ((found[s], tree[s]) for s in found))


def test_search_equals_the_tree_walk(ctx5, ctx7):
    # the dense benchmark windows and the grid of criterion 07 at p = 5 ...
    for s, t in DENSE_E2:
        assert same_as_tree_search(ctx5, s - 1, s, t), (s, t)
    rng = random.Random(0x707)
    grid = [(s, t) for s in range(5) for t in range(501)]
    grid += [(rng.randrange(0, 5), rng.randrange(0, 5001)) for _ in range(100)]
    for s, t in grid:
        assert same_as_tree_search(ctx5, s, s, t), (s, t)
    # ... and a grid of windows at p = 7
    for s in range(1, 7):
        for t in range(0, 1500, 7):
            assert same_as_tree_search(ctx7, s - 1, s, t), (s, t)


def test_search_equals_the_tree_walk_on_the_scenario_searches(monkeypatch):
    # every window the paper's main scenario searches at the benchmark points
    search = enumeration._search
    windows = []

    def checked_search(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        assert same_as_tree_search(ctx, s_lo, s_hi, t, found), (ctx.p, s_lo, s_hi, t)
        windows.append((ctx.p, s_lo, s_hi, t))
        return found

    monkeypatch.setattr(enumeration, "_search", checked_search)
    clear_memo()
    try:
        for p, m, n, s in SCENARIOS:
            assert verify_main(make_context(p), m, n, s).passed
    finally:
        clear_memo()
    assert len(windows) > 50


def test_search_equals_the_tree_walk_on_a_large_window(ctx5):
    found = _search(ctx5, 17, 18, 6000)
    assert sum(basis.dimension for basis in found.values()) == 31790
    assert same_as_tree_search(ctx5, 17, 18, 6000, found)


def test_search_shares_the_subtrees_of_equal_states(ctx5, monkeypatch):
    # A dropped memo would leave every basis as it is; only the work shows it.
    calls = []
    carry = enumeration._carry_feasible

    def counting_carry(t_rem, cap, support, ctx):
        calls.append(t_rem)
        return carry(t_rem, cap, support, ctx)

    monkeypatch.setattr(enumeration, "_carry_feasible", counting_carry)
    for s, t in DENSE_E2:
        _search(ctx5, s - 1, s, t)
    memoized = len(calls)
    for s, t in DENSE_E2:
        tree_search(ctx5, s - 1, s, t)
    assert 2 * memoized < len(calls) - memoized


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
    # The deepest allowed filtration ends: its only monomial at t = s is the
    # a(0) tail, one leaf.  The deepest allowed search recurses
    # MAX_FILTRATION levels without reaching the interpreter's recursion
    # limit: over a universe of a(0) and a(1) alone, a(1)^s takes one level
    # per factor ...
    clear_memo()
    top = enumerate_basis(ctx5, MAX_FILTRATION, MAX_FILTRATION)
    assert [m.render() for m in top.monomials] == ["a(0)^%d" % MAX_FILTRATION]
    clear_memo()
    universe = enumeration.generator_universe
    monkeypatch.setattr(enumeration, "generator_universe", lambda ctx, t_max, s_max: [
        g for g in universe(ctx, t_max, s_max) if g in (a(0), a(1))])
    deep = _search(ctx5, MAX_FILTRATION, MAX_FILTRATION, 9 * MAX_FILTRATION)[MAX_FILTRATION]
    assert [m.render() for m in deep.monomials] == ["a(1)^%d" % MAX_FILTRATION]

    # ... and one more is rejected before any search starts.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(enumeration, "_search", no_search)
    with pytest.raises(ParameterError, match="filtration %d exceeds %d"
                       % (MAX_FILTRATION + 1, MAX_FILTRATION)):
        enumerate_basis(ctx5, MAX_FILTRATION + 1, MAX_FILTRATION + 1)


def test_a0_tail_is_one_leaf_not_one_level_per_unit(ctx5):
    # Recursing once per unit of a(0) would need 200 more frames than this.
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        found = _search(ctx5, 200, 200, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert found[200].monomials == (monomial_from_factors([(a(0), 200)], ctx5),)
    clear_memo()
    assert [m.render() for m in enumerate_basis(ctx5, 200, 200).monomials] == ["a(0)^200"]
    clear_memo()


def test_monomials_view_is_canonical_sorted_and_built_once(ctx5, ctx7):
    clear_memo()
    for ctx, s, t in [(ctx5, s, t) for s, t in DENSE_E2] + [(ctx5, 2, 49), (ctx7, 6, 1466)]:
        basis = enumerate_basis(ctx, s, t)
        mons = basis.monomials
        assert mons is basis.monomials
        assert len(mons) == basis.dimension == len(set(mons)) > 0, (ctx.p, s, t)
        renders = [mon.render() for mon in mons]
        assert renders == sorted(renders)
        for mon in mons:
            assert mon == monomial_from_factors(mon.factors, ctx), mon.render()
            assert (mon.tridegree.s, mon.tridegree.t) == (s, t)
        assert sorted(basis.weights) == sorted(mon.tridegree.u for mon in mons)
    clear_memo()


def test_bases_keep_the_search_universe_which_holds_every_summand(ctx5, ctx7):
    # the windows an e2 query searches: at the dense points and at the
    # paper's window positions, where the monomials hold few of the
    # universe's generators
    cases = [(ctx5, s - 1, s, t) for s, t in DENSE_E2]
    for ctx, (m, n, s) in ((ctx5, (4, 6, 4)), (ctx5, (12, 20, 4)), (ctx7, (6, 10, 6))):
        cases.append((ctx, s + 1, s + 2, family_degree(ctx, m, n, s) + s - 2))
    for ctx, s_lo, s_hi, t in cases:
        found = _search(ctx, s_lo, s_hi, t)
        assert found[s_hi].dimension > 0, (ctx.p, s_hi, t)
        universe = tuple(generator_universe(ctx, t, s_hi))
        for basis in found.values():
            assert basis.layout.universe == universe, (ctx.p, basis.s, t)
            held = {g for mon in basis.monomials for g, _ in mon.factors}
            summands = {x for g in held for pair in unit_summand_pairs(g) for x in pair}
            assert summands <= set(universe), (ctx.p, basis.s, t)


def test_an_empty_basis_from_monomials_builds_no_universe(ctx5):
    # a universe at t = 10^3999 would take one step per tower index
    basis = BidegreeBasis.from_monomials(ctx5, 4, 10**3999, [])
    assert basis.dimension == 0 and basis.keys == ()
    assert basis.layout.universe == () and basis.layout.width == 3


def test_second_page_query_builds_no_monomial(ctx5, monkeypatch):
    built = []
    init = Monomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    clear_memo()
    try:
        res = e2_dimension(ctx5, 12, 3000)
        assert res.e1_dim > 0 and built == []
        # the count sees the monomials a reader asks for
        basis = enumerate_basis(ctx5, 12, 3000)
        assert len(basis.monomials) == len(built) == res.e1_dim
    finally:
        clear_memo()


def test_weight_filter_is_posthoc(ctx5):
    full = enumerate_basis(ctx5, 2, 49)
    assert full.dimension == 2
    assert sorted(full.weights) == [4, 4]
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
    # spot-check the implication the predicates promise against the E1 count,
    # which shares nothing with the search's carry test
    for s1, t in [(3, 32), (3, 130194), (2, 3), (1, 100)]:
        digit = 0 < s1 < ctx5.p and vanishes_by_digit_bound(s1, t, ctx5)
        rem = 0 < s1 < ctx5.q and vanishes_by_remainder_bound(s1, t, ctx5)
        if digit or rem:
            assert e1_dims(ctx5.p, s1, t) == {}, (s1, t)


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


def test_one_root_carry_test_per_filtration_before_the_universe(ctx5, monkeypatch):
    calls = []
    carry, universe = enumeration._carry_feasible, enumeration.generator_universe

    def recording_carry(t_rem, cap, support, ctx):
        calls.append((t_rem, cap, support))
        return carry(t_rem, cap, support, ctx)

    def recording_universe(ctx, t_max, s_max):
        calls.append("universe")
        return universe(ctx, t_max, s_max)

    monkeypatch.setattr(enumeration, "_carry_feasible", recording_carry)
    monkeypatch.setattr(enumeration, "generator_universe", recording_universe)
    found = _search(ctx5, 1, 3, 49)
    assert calls[:4] == [(49, 1, -1), (49, 2, -1), (49, 3, -1), "universe"]
    # every later carry test is a child's, on a smaller residual degree
    assert all(call[0] < 49 for call in calls[4:])
    assert found[2].dimension == 2


def test_shared_tables_hold_the_universe_of_every_degree(ctx5, ctx7):
    # The tables are shared by (p, min(s_hi, 2), top degree).  Walking t upward
    # through every generator degree up to 10^7 and its neighbours, with and
    # without b's at each t, a key that merged two universes would hand the
    # later one the earlier one's.
    for ctx in (ctx5, ctx7):
        degrees = {g.tridegree(ctx).t for g in generator_universe(ctx, 10**7, 2)}
        ts = sorted({t for d in degrees for t in (d - 1, d, d + 1)})
        for t in ts:
            for s_hi in (1, 2):
                universe = enumeration._tables(ctx, t, s_hi)[0]
                assert universe == tuple(generator_universe(ctx, t, s_hi)), (ctx.p, s_hi, t)


def test_shared_tables_keep_the_empty_universe_of_filtration_0_apart(ctx5):
    # the universe of filtration 0 is empty, that of filtration 1 at t = 49
    # is not, and both have the same top degree
    assert enumeration._tables(ctx5, 49, 0)[0] == ()
    assert enumerate_basis(ctx5, 1, 49).dimension == 1
    assert enumeration._tables(ctx5, 49, 1)[0] == tuple(generator_universe(ctx5, 49, 1))


def test_a_scenario_builds_its_universe_once(ctx5, monkeypatch):
    # verify main searches one filtration at each of several neighbouring
    # degrees, all over one universe.
    calls = []
    universe = enumeration.generator_universe

    def recording_universe(ctx, t_max, s_max):
        calls.append((t_max, s_max))
        return universe(ctx, t_max, s_max)

    monkeypatch.setattr(enumeration, "generator_universe", recording_universe)
    assert verify_main(ctx5, 4, 6, 4).passed
    assert 1 <= len(calls) <= 2, calls


def test_a_scenario_shares_one_layout(ctx5, monkeypatch):
    # the searches of verify main that build a universe share its layout,
    # so its positions, exterior mask and d1 plans are built once
    layouts = []
    search = enumeration._search

    def recording_search(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        layouts.extend(basis.layout for basis in found.values() if basis.layout.universe)
        return found

    monkeypatch.setattr(enumeration, "_search", recording_search)
    assert verify_main(ctx5, 4, 6, 4).passed
    assert len(layouts) >= 4 and all(layout is layouts[0] for layout in layouts)
    # clear_memo drops it with the tables
    clear_memo()
    assert verify_main(ctx5, 4, 6, 4).passed
    assert layouts[-1] is not layouts[0]


def test_exterior_mask_is_the_sum_of_the_exterior_units(ctx5, ctx7):
    for ctx, t in ((ctx5, 3000), (ctx5, 10**6), (ctx7, 1466)):
        universe = tuple(generator_universe(ctx, t, 2))
        for width in (1, 2, 3, 4, 7):
            layout = Layout(universe, width)
            assert layout.exterior == sum(1 << (k * width) for k, g in enumerate(universe)
                                          if g.is_exterior), (ctx.p, t, width)
    assert Layout((), 3).exterior == 0


def test_clear_memo_drops_the_shared_tables(ctx5, monkeypatch):
    full = _search(ctx5, 12, 12, 3000)[12]
    universe = enumeration.generator_universe
    monkeypatch.setattr(enumeration, "generator_universe", lambda ctx, t_max, s_max: [
        g for g in universe(ctx, t_max, s_max) if g is not h(1, 1)])
    # the shared tables still hold h(1,1) ...
    assert _search(ctx5, 12, 12, 3000)[12].keys == full.keys
    # ... until clear_memo drops them
    clear_memo()
    assert _search(ctx5, 12, 12, 3000)[12].dimension < full.dimension


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
