import inspect
import random
import sys
from collections import Counter

import pytest

from helpers import (DENSE_E2, SCENARIOS, UNIT, basis_mismatch, carry_oracle, carry_solutions,
                     column_sums, column_sums_impossible, digit_span, e1_dims, e1_generators,
                     factor_count, forced_spanning_factors, generator_universe, interval_starts,
                     layout_universe, object_exterior, object_tables, random_monomial,
                     reference_basis, run_profile, set_carry_feasible, single_search,
                     tree_search, unit_summand_pairs, universe_up_to, vanishes_by_digit_bound,
                     vanishes_by_remainder_bound)
from mayss import (ParameterError, a, b, enumerate_basis, h, make_context,
                   monomial_from_factors, padic_profile, verify_main)
from mayss import enumeration
from mayss.algebra import Generator, Monomial
from mayss.enumeration import MAX_FILTRATION, Layout, _carry_failure, _search, clear_memo
from mayss.grading import PAdicProfile, Tridegree
from mayss.pages import e2_dimension
from mayss.verify import family_degree


def test_universe_hand_check(ctx5):
    got = sorted(g.render() for g in generator_universe(ctx5, t_max=50))
    assert got == ["a(0)", "a(1)", "a(2)", "b(1,0)", "h(1,0)", "h(1,1)", "h(2,0)"]
    # the tests' filtration filter drops the b at filtration 1
    got1 = sorted(g.render() for g in universe_up_to(ctx5, 50, 1))
    assert got1 == ["a(0)", "a(1)", "a(2)", "h(1,0)", "h(1,1)", "h(2,0)"]
    # nothing exceeds the degree bound
    for g in generator_universe(ctx5, t_max=3000):
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


def shorten_the_first_h_row(monkeypatch):
    """Patch the generator rows to end the row of h(1, .) one generator
    early: at t = 3000, p = 5, the universe loses h(1,3) and b(1,2)."""
    rows = enumeration._generator_rows

    def shortened(p, t):
        last_a, last_h, top, above = rows(p, t)
        return last_a, [last_h[0] - 1] + last_h[1:], top, above

    monkeypatch.setattr(enumeration, "_generator_rows", shortened)


def test_e1_count_catches_a_generator_missing_from_the_universe(ctx5, monkeypatch):
    # Every other oracle of the basis reads the generator rows too (through
    # generator_universe), so none of them sees a generator missing from
    # them.
    shorten_the_first_h_row(monkeypatch)
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
    return all((x.keys, x.weights, x.layout.last_a, x.layout.last_h, x.layout.width)
               == (y.keys, y.weights, y.layout.last_a, y.layout.last_h, y.layout.width)
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
    carry = enumeration._carry_failure

    def counting_carry(t_rem, cap, reach, ctx):
        calls.append(t_rem)
        return carry(t_rem, cap, reach, ctx)

    monkeypatch.setattr(enumeration, "_carry_failure", counting_carry)
    for s, t in DENSE_E2:
        _search(ctx5, s - 1, s, t)
    memoized = len(calls)
    for s, t in DENSE_E2:
        tree_search(ctx5, s - 1, s, t)
    assert 2 * memoized < len(calls) - memoized


def test_search_equals_the_tree_walk_past_n_20(ctx5, monkeypatch):
    # every window verify main searches at n = 40, 80 and 120, where a
    # failed carry test decides the most later candidates and the residuals
    # run to 120 digits
    search = enumeration._search
    windows = []

    def checked_search(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        assert same_as_tree_search(ctx, s_lo, s_hi, t, found), (ctx.p, s_lo, s_hi, t)
        windows.append(t)
        return found

    monkeypatch.setattr(enumeration, "_search", checked_search)
    for n in (40, 80, 120):
        clear_memo()
        assert verify_main(ctx5, 4, n, 4).passed
    assert len(windows) > 10


def test_a_failed_carry_test_skips_the_candidates_it_decides(monkeypatch):
    # No state repeats in the scenario searches, so the memo saves no carry
    # test there: only the skip of the candidates that an earlier failure in
    # the node decides makes the search run fewer than the tree walk.
    search = enumeration._search
    windows = []

    def recording_search(ctx, s_lo, s_hi, t):
        windows.append((ctx, s_lo, s_hi, t))
        return search(ctx, s_lo, s_hi, t)

    monkeypatch.setattr(enumeration, "_search", recording_search)
    for p, m, n, s in SCENARIOS:
        assert verify_main(make_context(p), m, n, s).passed
    monkeypatch.setattr(enumeration, "_search", search)
    calls = []
    carry = enumeration._carry_failure

    def counting_carry(t_rem, cap, reach, ctx):
        calls.append(t_rem)
        return carry(t_rem, cap, reach, ctx)

    monkeypatch.setattr(enumeration, "_carry_failure", counting_carry)
    for window in windows:
        _search(*window)
    memoized = len(calls)
    for window in windows:
        tree_search(*window)
    assert 2 * memoized < len(calls) - memoized


def test_a_decided_candidate_reads_no_degree_bound(ctx5, monkeypatch):
    # A candidate that a cut or a closed filtration decides is skipped on
    # its lowest support bit before the upper degree bound reads max_frac;
    # the tree walk reads that bound for every candidate of an open
    # filtration.  Equal bases and equal carry tests cannot show the order.
    search = enumeration._search
    windows = []

    def recording_search(ctx, s_lo, s_hi, t):
        windows.append((ctx, s_lo, s_hi, t))
        return search(ctx, s_lo, s_hi, t)

    monkeypatch.setattr(enumeration, "_search", recording_search)
    assert verify_main(ctx5, 4, 40, 4).passed
    monkeypatch.setattr(enumeration, "_search", search)
    assert windows
    reads = [0]

    class CountingTuple(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    tables = enumeration._tables

    def counting_tables(ctx, t, s_hi):
        layout, order = tables(ctx, t, s_hi)
        return layout, order._replace(max_frac=CountingTuple(order.max_frac))

    monkeypatch.setattr(enumeration, "_tables", counting_tables)
    for window in windows:
        _search(*window)
    searched, reads[0] = reads[0], 0
    for window in windows:
        tree_search(*window)
    assert 0 < 4 * searched < reads[0]


def test_the_benchmark_searches_run_the_same_carry_tests(ctx5, monkeypatch):
    # The order of the tests in a node's loop sets what a candidate costs,
    # never which carry tests run: these are the counts, root tests
    # included, of a loop that tests the degree bounds before the cut.
    calls = []
    carry = enumeration._carry_failure

    def counting_carry(t_rem, cap, reach, ctx):
        calls.append(t_rem)
        return carry(t_rem, cap, reach, ctx)

    monkeypatch.setattr(enumeration, "_carry_failure", counting_carry)
    for p, m, n, s in SCENARIOS:
        assert verify_main(make_context(p), m, n, s).passed
    scenarios = len(calls)
    for s, t in DENSE_E2:
        _search(ctx5, s - 1, s, t)
    assert (scenarios, len(calls) - scenarios) == (4423, 9675)


def test_a_failed_b_decides_no_later_h(ctx5, monkeypatch):
    # At (3, 298), p = 5, the root tests b(2,0) before h(1,2): its residual
    # 58 = 7*8 + 2 fails the remainder column under the cap 1 it leaves.
    # h(1,2) has a larger cap, 2, and its completion a(2)^2 fills the
    # remainder column with 2 units, so a failure of filtration 2 may cut
    # only the later candidates of filtration 2.
    failures = []
    carry = enumeration._carry_failure

    def recording_carry(t_rem, cap, reach, ctx):
        c = carry(t_rem, cap, reach, ctx)
        failures.append((t_rem, cap, c))
        return c

    monkeypatch.setattr(enumeration, "_carry_failure", recording_carry)
    basis = enumerate_basis(ctx5, 3, 298)
    assert (298 - 240, 1, 0) in failures
    layout, order = enumeration._tables(ctx5, 298, 3)
    rank = {layout.generator(c): k for k, c in enumerate(order.pos)}
    assert rank[b(2, 0)] < rank[h(1, 2)]
    assert (order.lob[rank[b(2, 0)]], order.lob[rank[h(1, 2)]]) == (2, 3)
    assert "a(2)^2 h(1,2)" in [m.render() for m in basis.monomials]
    assert basis_mismatch(ctx5, 3, 298, basis.monomials) is None


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
    # limit: over a universe of a(0) and a(1) alone, the rows (1, []),
    # a(1)^s takes one level per factor ...
    clear_memo()
    top = enumerate_basis(ctx5, MAX_FILTRATION, MAX_FILTRATION)
    assert [m.render() for m in top.monomials] == ["a(0)^%d" % MAX_FILTRATION]
    clear_memo()
    rows = enumeration._generator_rows
    monkeypatch.setattr(enumeration, "_generator_rows", lambda p, t: (1, []) + rows(p, t)[2:])
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
        universe = tuple(generator_universe(ctx, t))
        for basis in found.values():
            assert layout_universe(basis.layout) == universe, (ctx.p, basis.s, t)
            held = {g for mon in basis.monomials for g, _ in mon.factors}
            summands = {x for g in held for pair in unit_summand_pairs(g) for x in pair}
            assert summands <= set(universe), (ctx.p, basis.s, t)


def test_second_page_query_builds_no_monomial(ctx5, monkeypatch):
    # Monomial is a namedtuple, built by __new__ alone
    built = []
    new = Monomial.__new__

    def counting_new(cls, *args, **kwargs):
        mon = new(cls, *args, **kwargs)
        built.append(mon)
        return mon

    monkeypatch.setattr(Monomial, "__new__", counting_new)
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
                    assert _carry_failure(t, s, 0, ctx) is not None, (ctx.p, s, t)
    assert fired > 1000


def test_one_root_carry_test_per_filtration_before_the_universe(ctx5, monkeypatch):
    calls = []
    carry, rows = enumeration._carry_failure, enumeration._generator_rows

    def recording_carry(t_rem, cap, reach, ctx):
        calls.append((t_rem, cap, reach))
        return carry(t_rem, cap, reach, ctx)

    def recording_rows(p, t):
        calls.append("universe")
        return rows(p, t)

    monkeypatch.setattr(enumeration, "_carry_failure", recording_carry)
    monkeypatch.setattr(enumeration, "_generator_rows", recording_rows)
    found = _search(ctx5, 1, 3, 49)
    assert calls[:4] == [(49, 1, 0), (49, 2, 0), (49, 3, 0), "universe"]
    # every later carry test is a child's, on a smaller residual degree
    assert all(call[0] < 49 for call in calls[4:])
    assert found[2].dimension == 2


def test_a_filtration_deeper_than_its_degree_builds_no_universe(ctx5, monkeypatch):
    # No monomial has a degree below its filtration, so the root drops
    # (5, 4) before any universe is built, though its carry test passes.
    def no_universe(*args):
        raise AssertionError("built a universe")

    monkeypatch.setattr(enumeration, "_generator_rows", no_universe)
    assert _carry_failure(4, 5, 0, ctx5) is None
    assert enumerate_basis(ctx5, 5, 4).dimension == 0


def recorded_orders(monkeypatch):
    """(ctx, layout, search tables) of every universe the eight scenarios,
    the four dense-e2 windows and verify main at p=5, m=4, s=4 at n = 40, 80
    and 120 build."""
    ctx5 = make_context(5)
    orders = {}
    tables = enumeration._tables

    def recording_tables(ctx, t, s_hi):
        layout, order = tables(ctx, t, s_hi)
        orders[id(order)] = ctx, layout, order
        return layout, order

    monkeypatch.setattr(enumeration, "_tables", recording_tables)
    for p, m, n, s in SCENARIOS:
        verify_main(make_context(p), m, n, s)
    for s, t in DENSE_E2:
        _search(ctx5, s - 1, s, t)
    ns = (40, 80, 120)
    for n in ns:
        verify_main(ctx5, 4, n, 4)
    assert len(orders) >= len(SCENARIOS) + len(ns) + 1
    return orders.values()


def test_a0_ends_every_suffix_the_search_reads(monkeypatch):
    # The lower degree bound (nt < ns_lo) and the a(0) branch rest on these
    # facts of every universe the benchmark and verify main at n = 40, 80
    # and 120 search: a(0) is the last generator of the search order, no
    # child's first candidate lies past it, and every other generator has
    # degree above its filtration.  The carry test reads a suffix's support
    # as reach = p^B alone: the remainder column and columns 0 .. B-1, the
    # oracle's mask (2 << B) - 1, which is the union of the digit_span of
    # its generators.
    for ctx, layout, order in recorded_orders(monkeypatch):
        last = len(order.pos) - 1
        assert layout.generator(order.pos[last]) == a(0)
        assert max(order.nidx) == last
        assert [k for k, (d, f) in enumerate(zip(order.neg_degs, order.filts))
                if -d <= f] == [last]
        mask = 0
        for k in range(last, -1, -1):
            lo, hi = digit_span(layout.generator(order.pos[k]))
            mask |= ((2 << (hi - lo)) - 1) << (lo + 1)
            cols = mask.bit_length() - 1
            assert mask == (2 << cols) - 1 and ctx.p**cols == order.reach[k], (ctx.p, k)


def test_shared_tables_hold_the_universe_of_every_degree():
    # The tables kept for p serve every t in [top, above).  At every
    # generator degree d up to 10^7 and at d - 1 and d + 1, walked upward,
    # downward and in a shuffled order, at two widths at each t, the kept
    # universe holds the tridegrees the degree formulas list at t, and its
    # interval is bounded by their largest degree at most t and their least
    # one above it.  A key that merged two universes, or kept one past
    # either end of its interval, would hand a later t the wrong one.
    rng = random.Random(0x534)
    for p in (5, 7, 11, 13):
        ctx = make_context(p)
        degrees = sorted({g[1] for g in e1_generators(p, p * 10**7)})
        ts = sorted({t for d in degrees if d <= 10**7 for t in (d - 1, d, d + 1)})
        shuffled = rng.sample(ts, len(ts))
        for t in ts + ts[::-1] + shuffled:
            want = Counter(g[:3] for g in e1_generators(p, t))
            for s_hi in (1, 2):
                universe = layout_universe(enumeration._tables(ctx, t, s_hi)[0])
                got = Counter(tuple(g.tridegree(ctx)) for g in universe)
                assert got == want, (p, s_hi, t)
            top, above = enumeration._shared[p][:2]
            assert top == max((d for d in degrees if d <= t), default=0), (p, t)
            assert above == min(d for d in degrees if d > t), (p, t)
    clear_memo()


def check_tables_against_the_objects(ctx, t):
    """The tables and the layout of t against object_tables, the object-built
    oracle: equal tables, the same generator at every position both ways,
    the exterior mask and a KeyError for a generator just past a row."""
    enumeration.clear_memo()
    layout, order = enumeration._tables(ctx, t, 3)
    universe, want = object_tables(ctx, t)
    assert order == want, (ctx.p, t)
    assert layout_universe(layout) == universe, (ctx.p, t)
    assert all(layout.index(layout.generator(k)) == k for k in range(layout.size)), (ctx.p, t)
    assert layout.exterior == object_exterior(universe, layout.width), (ctx.p, t)
    with pytest.raises(IndexError):
        layout.generator(layout.size)
    outside = [a(layout.last_a + 1), h(len(layout.last_h) + 1, 0)]
    outside += [g for i, last in enumerate(layout.last_h, 1) for g in (h(i, last + 1), b(i, last))]
    for g in outside:
        with pytest.raises(KeyError):
            layout.index(g)


def test_tables_and_layout_equal_the_object_built_ones():
    # Every t below 4000 and, as in the test above, every generator degree
    # d up to 10^7 and d - 1 and d + 1.
    for p in (5, 7, 11, 13):
        ctx = make_context(p)
        degrees = {g[1] for g in e1_generators(p, 10**7)}
        ts = set(range(4000)) | {t for d in degrees for t in (d - 1, d, d + 1)}
        for t in sorted(ts):
            check_tables_against_the_objects(ctx, t)


def test_the_tables_build_no_generator_and_no_tridegree(ctx5, monkeypatch):
    # At the critical degree of verify main at n = 120, 14,523 positions.
    t = family_degree(ctx5, 4, 120, 4) + 2
    built = []

    def counting(cls):
        new = cls.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)
        return counting_new

    for cls in (Generator, Tridegree):
        monkeypatch.setattr(cls, "__new__", counting(cls))
    layout, order = enumeration._tables(ctx5, t, 6)
    monkeypatch.undo()
    assert len(order.pos) == layout.size == 14523 and built == []


def test_a_table_hit_walks_no_generator_rows(ctx5, monkeypatch):
    # The generator rows are walked once per universe built, which gives
    # both its tables and the ends of its interval; every other table read
    # of verify main is one comparison.
    rows, builds, reads = [], [], []
    walk, tables = enumeration._generator_rows, enumeration._tables

    def recording_rows(p, t):
        rows.append(t)
        return walk(p, t)

    def recording_tables(ctx, t, s_hi):
        reads.append(t)
        kept = enumeration._shared.get(ctx.p)
        out = tables(ctx, t, s_hi)
        if enumeration._shared[ctx.p] is not kept:
            builds.append(t)
        return out

    monkeypatch.setattr(enumeration, "_generator_rows", recording_rows)
    monkeypatch.setattr(enumeration, "_tables", recording_tables)
    clear_memo()
    assert verify_main(ctx5, 4, 40, 4).passed
    clear_memo()
    assert builds and rows == builds
    assert len(reads) > len(builds)


def test_filtrations_0_to_2_share_the_universe_of_their_degree(ctx5, monkeypatch):
    # t = 40 is the degree of b(1,0), the first b: the searches of
    # filtrations 0, 1 and 2 there build one universe, which holds it, and
    # their layouts differ in field width only.
    builds = []
    rows = enumeration._generator_rows

    def recording_rows(p, t):
        builds.append(t)
        return rows(p, t)

    monkeypatch.setattr(enumeration, "_generator_rows", recording_rows)
    bases = [enumerate_basis(ctx5, s, 40) for s in (0, 1, 2)]
    assert [[m.render() for m in basis.monomials] for basis in bases] == [
        [], ["h(1,1)"], ["b(1,0)"]]
    layouts = [enumeration._tables(ctx5, 40, s)[0] for s in (0, 1, 2)]
    assert builds == [40]
    universes = [layout_universe(layout) for layout in layouts]
    assert all(universe == universes[0] for universe in universes)
    assert universes[0][-1] == b(1, 0)
    assert [layout.width for layout in layouts] == [1, 2, 2]
    assert layouts[1] is layouts[2] is bases[1].layout is bases[2].layout


def test_a_scenario_builds_its_universe_once(ctx5, monkeypatch):
    # verify main searches one filtration at each of several neighbouring
    # degrees, all over one universe.
    calls = []
    rows = enumeration._generator_rows

    def recording_rows(p, t):
        calls.append(t)
        return rows(p, t)

    monkeypatch.setattr(enumeration, "_generator_rows", recording_rows)
    assert verify_main(ctx5, 4, 6, 4).passed
    assert calls == [130194]


def test_a_scenario_shares_one_layout(ctx5, monkeypatch):
    # the searches of verify main that build a universe share its layout,
    # so its positions, exterior mask and d1 plans are built once
    layouts = []
    search = enumeration._search

    def recording_search(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        layouts.extend(basis.layout for basis in found.values() if basis.layout.size)
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
        universe = tuple(generator_universe(ctx, t))
        for width in (1, 2, 3, 4, 7):
            layout = Layout(*enumeration._generator_rows(ctx.p, t)[:2], width)
            assert layout.exterior == sum(1 << (k * width) for k, g in enumerate(universe)
                                          if g.is_exterior), (ctx.p, t, width)
    assert Layout(-1, [], 3).exterior == 0


def test_clear_memo_drops_the_shared_tables(ctx5, monkeypatch):
    full = _search(ctx5, 12, 12, 3000)[12]
    shorten_the_first_h_row(monkeypatch)
    # the shared tables still hold h(1,3) ...
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


def test_no_monomial_needs_more_runs_than_factors(ctx5, ctx7, rng, monkeypatch):
    # The carry test's bound under narrow caps: the column sums of a
    # monomial, each factor's run taken from its (kind, i, j) formula, rise
    # by at most its factor count in all.  Every basis the benchmark
    # scenarios and dense windows search, and random monomials ...
    search, bases = enumeration._search, []

    def recording_search(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        bases.extend(found.values())
        return found

    monkeypatch.setattr(enumeration, "_search", recording_search)
    for p, m, n, s in SCENARIOS:
        assert verify_main(make_context(p), m, n, s).passed
    for s, t in DENSE_E2:
        recording_search(ctx5, s - 1, s, t)
    monomials = [mon for basis in bases for mon in basis.monomials]
    assert len(monomials) > 4000
    for _ in range(2000):
        mon = random_monomial(rng, rng.choice((ctx5, ctx7)))
        assert run_profile(mon.factors) == column_sums(mon), mon.render()
        monomials.append(mon)
    for mon in monomials:
        assert interval_starts(run_profile(mon.factors)) <= factor_count(mon), mon.render()
    # ... and the valley rule of the spanning-factor argument is a case of it.
    flagged = 0
    for _ in range(3000):
        cbar = [rng.randrange(5) for _ in range(rng.randint(1, 7))]
        mprime = rng.randrange(8)
        if column_sums_impossible(cbar, mprime):
            assert interval_starts(cbar) > mprime, (cbar, mprime)
            flagged += 1
    assert flagged > 300, flagged


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


def oracle_mask(ctx, t, reach):
    """The set oracle's support mask of the columns the carry test supports
    under reach: the remainder column and columns 0 .. B-1 for reach = p^B,
    and for reach = 0 every column of t, with one to spare."""
    cols = _columns(reach, ctx.p) - 1 if reach else _columns(t // ctx.q, ctx.p) + 1
    return (2 << cols) - 1


def _columns(x, p):
    """The number of base-p digits of x: B for x = p^B - 1, B + 1 for p^B."""
    n = 0
    while x:
        x //= p
        n += 1
    return n


def test_carry_closed_form_matches_the_set_oracle(ctx5, ctx7, rng):
    # The searches only pass a reach p^B (the remainder column and columns
    # 0 .. B-1) or 0 (every column); these are the oracle's masks
    # (2 << B) - 1.  Caps up to 6 are narrow at p = 7 up to 5, and at p = 5
    # up to 3.
    for ctx in (ctx5, ctx7):
        for t in range(1200):
            for cap in range(7):
                for reach in [0] + [ctx.p**B for B in range(6)]:
                    assert ((_carry_failure(t, cap, reach, ctx) is None)
                            == carry_oracle(t, cap, oracle_mask(ctx, t, reach), ctx)), (
                        ctx.p, t, cap, reach)
    for _ in range(3000):
        ctx = rng.choice((ctx5, ctx7))
        t = rng.randint(0, 10**12)
        cap = rng.randint(0, 40)
        reach = rng.choice((0, ctx.p ** rng.randint(0, 19)))
        assert ((_carry_failure(t, cap, reach, ctx) is None)
                == carry_oracle(t, cap, oracle_mask(ctx, t, reach), ctx)), (
            ctx.p, t, cap, reach)


def test_carry_failure_is_the_first_failing_column(ctx5, ctx7, rng):
    # The failing bit is the least k at which the oracle rejects the
    # residual cut to its remainder and first k columns, t_rem mod q*p^k:
    # the system of the columns below the failure is feasible and the one
    # through it is not.  Under a narrow cap the run count of the cut
    # residual only grows with k, as the set oracle's verdict only falls.
    at = {"pass": 0, "remainder": 0, "column": 0}
    for _ in range(3000):
        ctx = rng.choice((ctx5, ctx7))
        t = rng.randint(0, rng.choice((100, 10**4, 10**9)))
        cap = rng.randint(0, 12)
        reach = rng.choice((0, ctx.p ** rng.randint(0, 15)))
        mask = oracle_mask(ctx, t, reach)
        k, first = 0, None
        while first is None and (k == 0 or ctx.q * ctx.p ** (k - 1) <= t):
            if not carry_oracle(t % (ctx.q * ctx.p**k), cap, mask, ctx):
                first = k
            k += 1
        got = _carry_failure(t, cap, reach, ctx)
        assert got == first, (ctx.p, t, cap, reach)
        at["pass" if got is None else "remainder" if got == 0 else "column"] += 1
    assert min(at.values()) > 200, at


def long_residuals(rng, ctx, n, cap):
    """Five residual degrees of n base-p digits: one of digits and
    remainder at most 2, which narrow caps pass; one of long runs of one
    digit, like the search's residuals, with remainder 0 or 1; one of
    uniform digits and remainder; and, with remainder 0, the wide bound of
    cap under reach p^(n-1), cap (p^(n-1) - 1)/(p - 1) + h0 with
    h0 = cap // q, as the body of the fourth, and that plus one as the
    body of the fifth."""
    p, q = ctx.p, ctx.q
    small = [rng.randrange(3) for _ in range(n)]
    runs = []
    while len(runs) < n:
        runs += [rng.randrange(p)] * rng.randint(1, n // 3)
    uniform = [rng.randrange(p) for _ in range(n)]
    out = []
    for digits, cm in ((small, rng.randrange(3)), (runs[:n], rng.choice((0, 1))),
                       (uniform, rng.randrange(q))):
        digits[-1] = digits[-1] or 1
        out.append(sum(d * p**j for j, d in enumerate(digits)) * q + cm)
    bound = cap * (p ** (n - 1) - 1) // (p - 1) + cap // q
    return out + [bound * q, (bound + 1) * q]


def test_carry_test_matches_the_set_oracle_on_long_residuals(rng):
    # Every reach p^B from B = 0 (a suffix of a(0) alone) to past the digit
    # count, and 0.  At 50 digits every cap from 0 to 2q runs, so h0 =
    # (cap - cm) // q reaches 2.  At 400 digits, where the oracle's time
    # grows with B, the largest narrow cap p - 2 runs on the small digits
    # and the cap q on its two bound residuals.  A feasible prefix through
    # bit got - 1 and an infeasible one through bit got make got the first
    # failing bit, since a prefix's feasibility only falls as it grows: a
    # solution carries an interval [0, hi] out of each column, and such an
    # interval holds 0, and a prefix's run count only grows.
    seen = {"pass": 0, "remainder": 0, "column": 0}
    for p in (5, 7, 11):
        ctx = make_context(p)
        q = ctx.q
        cases = [(t, range(2 * q + 1)) for t in long_residuals(rng, ctx, 50, 2 * q)]
        small, _, _, edge, past = long_residuals(rng, ctx, 400, q)
        cases += [(small, (p - 2,)), (edge, (q,)), (past, (q,))]
        for t, caps in cases:
            digits = _columns(t // q, p)
            for reach in [0] + [p**B for B in range(digits + 3)]:
                mask = oracle_mask(ctx, t, reach)
                for cap in caps:
                    got = _carry_failure(t, cap, reach, ctx)
                    where = (p, t, cap, reach, got)
                    if got is None:
                        assert carry_oracle(t, cap, mask, ctx), where
                        seen["pass"] += 1
                        continue
                    if got:
                        assert carry_oracle(t % (q * p ** (got - 1)), cap, mask, ctx), where
                    assert not carry_oracle(t % (q * p**got), cap, mask, ctx), where
                    seen["remainder" if got == 0 else "column"] += 1
    assert min(seen.values()) > 500, seen


def test_carry_closed_form_is_constant_memory_in_cap(ctx5):
    # The set oracle would hold about 10**10 carries here.
    assert _carry_failure(9 * 10**11, 10**11, 5**39, ctx5) is None


def test_a_negative_reach_is_refused(ctx5):
    # The support is reach = p^B or 0.  A negative one, such as a stale
    # all-columns bitmask -1, would otherwise fail every system with
    # cm <= cap, under a narrow cap (1) and a wide one (4) alike.
    for cap in (1, 4):
        with pytest.raises(ValueError):
            _carry_failure(8 * 5**40, cap, -1, ctx5)


def test_carry_forms_agree(ctx5, ctx7):
    # The lemma form (every solution, carries bounded too) and the search
    # form (feasibility over all columns of t) decide the same systems.
    # Under a narrow cap the lemma form also counts runs: some solution's
    # column sums need at most cap of them.  A wide cap's lemma form is
    # implied by that stricter one, and is the search form.
    for ctx in (ctx5, ctx7, make_context(11)):
        for t in range(4000):
            target = padic_profile(t, ctx)
            for cap in range(9):
                sols = carry_solutions(target, cap, ctx)
                if cap <= ctx.p - 2:
                    lemma = any(interval_starts(sol.cbar) <= cap for sol in sols)
                else:
                    lemma = bool(sols)
                for reach in (0, ctx.p ** len(target.digits)):
                    assert lemma == (_carry_failure(t, cap, reach, ctx) is None), (
                        ctx.p, t, cap, reach)
