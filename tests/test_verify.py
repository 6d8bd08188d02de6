import re

import pytest

from helpers import basis_mismatch
from mayss import (ParameterError, Tridegree, d1, element_from_monomial, make_context,
                   multiply, verify_critical_differential, verify_main,
                   verify_representatives, verify_survival, verify_upper_window_vanishing,
                   verify_window)
from mayss import enumeration
from mayss.verify import (critical_leading_terms, critical_monomials, family_degree,
                          h_triple, product_class, s_rep, validate_family_params)

M, N = 4, 6
T_CRIT = 130194   # family degree at s = 4 plus (s - 2)


def test_family_degree_values(ctx5):
    assert family_degree(ctx5, M, N, 4) + 2 == T_CRIT
    assert family_degree(ctx5, M, N, 3) == 130144
    assert family_degree(ctx5, 4, 7, 3) + 1 == 630145


def test_the_seven_critical_monomials(ctx5):
    gs = critical_monomials(ctx5, M, N)
    assert [g.render() for g in gs] == [
        "a(6)^2 h(1,4) h(3,0) h(4,2) h(6,0)",
        "a(6)^2 h(1,2) h(2,4) h(5,0) h(6,0)",
        "a(5) a(6) h(2,4) h(3,0) h(4,2) h(6,0)",
        "a(6)^2 h(2,4) h(3,0) h(3,2) h(6,0)",
        "a(6)^2 h(2,4) h(3,0) h(4,2) h(5,0)",
        "a(3) a(6) h(2,4) h(4,2) h(5,0) h(6,0)",
        "a(4)^2 h(1,6) h(2,2) h(3,0) h(4,0)",
    ]
    for g in gs:
        assert (g.tridegree.s, g.tridegree.t) == (6, T_CRIT)
    assert sorted(g.tridegree.u for g in gs) == [34, 50, 50, 50, 50, 50, 50]


def test_leading_terms_appear_in_the_images(ctx5):
    gs = critical_monomials(ctx5, M, N)
    leads = critical_leading_terms(ctx5, M, N)
    for g, lead in zip(gs, leads):
        image = d1(element_from_monomial(g, ctx5), ctx5)
        assert not image.is_zero
        assert image.coefficient(lead) % ctx5.p != 0, (g.render(), lead.render())
        assert lead.tridegree == g.tridegree + Tridegree(1, 0, -1)


def test_constructibility_floors(ctx5):
    with pytest.raises(ParameterError):
        critical_monomials(ctx5, 2, 5)
    with pytest.raises(ParameterError):
        critical_monomials(ctx5, 3, 5)  # the seventh word would hold h(3,0) twice
    with pytest.raises(ParameterError):
        critical_leading_terms(ctx5, 3, 5)
    with pytest.raises(ParameterError):
        critical_monomials(ctx5, 4, 5)  # n >= m+2 fails


def test_representative_degrees(ctx5):
    for s, t in [(2, 88), (3, 137), (4, 186)]:
        mon = s_rep(ctx5, s)
        assert mon.tridegree == Tridegree(s, t, 5 * s - 6)
        assert d1(element_from_monomial(mon, ctx5), ctx5).is_zero
    trip = h_triple(ctx5, M, N)
    assert trip.tridegree == Tridegree(3, 130008, 3)
    assert d1(element_from_monomial(trip, ctx5), ctx5).is_zero


def test_product_class_factors(ctx5):
    omega = product_class(ctx5, M, N, 4)
    assert omega.tridegree == Tridegree(7, T_CRIT, 17)
    # it is the product of the two representatives, up to a unit
    left = element_from_monomial(s_rep(ctx5, 4), ctx5)
    right = element_from_monomial(h_triple(ctx5, M, N), ctx5)
    prod = multiply(left, right, ctx5)
    assert not prod.is_zero
    assert prod.coefficient(omega) % ctx5.p != 0
    # at s=2 no a-factor is present
    assert s_rep(ctx5, 2).render() == "h(1,1) h(2,0)"
    assert product_class(ctx5, M, N, 2).tridegree.u == 7


def test_parameter_gates(ctx5):
    with pytest.raises(ParameterError):
        validate_family_params(ctx5, 3, 5, 2)            # strict floor
    with pytest.raises(ParameterError):
        validate_family_params(ctx5, 4, 5, 2)            # n < m+2
    with pytest.raises(ParameterError):
        validate_family_params(ctx5, 4, 6, 5)            # s = p
    with pytest.raises(ParameterError):
        validate_family_params(ctx5, 4, 6, 1)            # s too small
    with pytest.raises(ParameterError, match="exceeds 10"):
        validate_family_params(ctx5, 4, 100000, 2)       # t(s) past MAX_DEGREE
    with pytest.warns(UserWarning):
        validate_family_params(ctx5, 3, 5, 2, strict_range=False)
    with pytest.raises(ParameterError):
        validate_family_params(ctx5, 1, 3, 2, strict_range=False)  # below any floor
    # the command line passes ints only; a library caller may pass anything
    for m, n in ((4.0, 6), (4, "6")):
        with pytest.raises(ParameterError, match="m, n must be integers"):
            validate_family_params(ctx5, m, n, 2)
        with pytest.raises(ParameterError, match="need integers 1 <= m < n"):
            h_triple(ctx5, m, n)


def test_window_scenario_passes(ctx5):
    for s in (2, 3, 4):
        rep = verify_window(ctx5, M, N, s)
        assert rep.passed, rep.to_dict()
        assert len(rep.checks) == s + 3
        assert rep.scenario == "window"


def test_window_permissive_mode_runs_outside_proved_range(ctx5):
    # outside the claimed range, the engine probes; the outcome is whatever
    # the algebra says, so only the mechanics are asserted here
    with pytest.warns(UserWarning):
        rep = verify_window(ctx5, 3, 5, 2, strict_range=False)
    assert len(rep.checks) == 5
    assert all(isinstance(c.passed, bool) for c in rep.checks)


def test_critical_differential_scenario(ctx5):
    rep = verify_critical_differential(ctx5, M, N)
    assert rep.passed, rep.to_dict()
    descs = " ".join(c.description for c in rep.checks)
    assert "linearly independent" in descs
    assert "second page vanishes" in descs


def test_survival_scenario(ctx5):
    for s in (2, 4):
        rep = verify_survival(ctx5, M, N, s)
        assert rep.passed, rep.to_dict()
        assert rep.notes  # the convergence caveat travels with the verdict


def test_upper_vanishing_scenario(ctx5):
    rep = verify_upper_window_vanishing(ctx5, M, N, 4)
    assert rep.passed
    assert len(rep.checks) == 6  # r = 2..s+3


def test_representatives_scenario(ctx5):
    for s in (2, 3):
        rep = verify_representatives(ctx5, M, N, s)
        assert rep.passed, rep.to_dict()


def test_main_scenario_counts(ctx5):
    rep = verify_main(ctx5, M, N, 4)
    assert rep.passed
    assert len(rep.checks) == 44
    assert len(rep.notes) == 2
    prefixes = {c.description.split(":")[0] for c in rep.checks}
    assert prefixes == {"window", "critical-differential", "survival",
                        "upper-vanishing", "representatives"}


def test_main_at_smaller_s_skips_critical_block(ctx5):
    rep = verify_main(ctx5, M, N, 3)
    assert rep.passed
    assert len(rep.checks) == 24
    assert not any(c.description.startswith("critical-differential")
                   for c in rep.checks)


def test_main_at_second_window(ctx5):
    rep = verify_main(ctx5, 4, 7, 3)
    assert rep.passed
    assert len(rep.checks) == 24


def test_report_serialization_shape(ctx5):
    rep = verify_window(ctx5, M, N, 2)
    d = rep.to_dict()
    assert set(d) == {"scenario", "params", "checks", "notes", "pass"}
    assert all(set(c) == {"description", "expected", "observed", "pass"}
               for c in d["checks"])
    # identical inputs serialize identically
    again = verify_window(ctx5, M, N, 2).to_dict()
    assert again == d


def test_other_prime_smoke():
    ctx7 = make_context(7)
    rep = verify_representatives(ctx7, 4, 6, 5)
    assert rep.passed, rep.to_dict()


# A generator and its indices, or a bare number.
_TOKEN = re.compile(r"([abh])\((\d+)(?:,(\d+))?\)|(\d+)")


def normal_form(report, ctx, m, n, s):
    """The report with every number that moves with n written relative to
    it: a generator index from n - m up as n - c, a degree at least p^(n-1)
    as t(s) + c, a number within 20 of the top weight (2n+1)p - 2n - 3 as
    w + c, and else one within 20 of the top page index r = w - u,
    (2n+1)p - 2n - 3 - (5s - 3), as r_top + c.  The fixed indices stay at
    most m + 1, below n - m for n >= 10 at m = 4.  Lists joined by "; "
    compare as sets."""
    t_s = family_degree(ctx, m, n, s)
    w_top = (2 * n + 1) * ctx.p - 2 * n - 3
    r_top = w_top - (5 * s - 3)

    def index(i):
        return "n-%d" % (n - int(i)) if int(i) >= n - m else i

    def token(match):
        kind, i, j, number = match.groups()
        if number is None:
            return "%s(%s)" % (kind, ",".join(index(x) for x in (i, j) if x is not None))
        x = int(number)
        if x >= ctx.p ** (n - 1):
            return "t(s)%+d" % (x - t_s)
        if abs(x - w_top) <= 20:
            return "w%+d" % (x - w_top)
        if abs(x - r_top) <= 20:
            return "r_top%+d" % (x - r_top)
        return number

    def text(field):
        return tuple(sorted(_TOKEN.sub(token, field).split("; ")))

    return (report.scenario, dict(report.params, n="n"), report.passed, report.notes,
            [(text(c.description), text(c.expected), text(c.observed), c.passed)
             for c in report.checks])


def test_main_report_at_large_n_equals_the_report_at_n_10(monkeypatch):
    # The paper's argument is uniform in n, and so is the report: at large n
    # it equals, in normal form, the one at n = 10, whose every basis the E1
    # count checks here.  So a defect that shows only at large n (at p = 5,
    # t has 29, 57 and 85 digits at n = 40, 80 and 120) fails tier-1, not
    # only the CI digests.  It runs at every prime of the benchmark
    # scenarios, with s = p - 1.
    fill, bidegrees = enumeration._fill, set()

    def recording_fill(ctx, s_lo, s_hi, t, cache):
        bidegrees.update((s, t) for s in range(s_lo, s_hi + 1))
        return fill(ctx, s_lo, s_hi, t, cache)

    monkeypatch.setattr(enumeration, "_fill", recording_fill)
    for p, ns in ((5, (40, 80, 120)), (7, (40, 80)), (11, (40, 80)), (13, (40, 80))):
        ctx, s = make_context(p), p - 1
        bidegrees.clear()
        small = normal_form(verify_main(ctx, 4, 10, s), ctx, 4, 10, s)
        assert small[2] and len(bidegrees) > 5, p
        for b_s, t in bidegrees:
            assert basis_mismatch(ctx, b_s, t, enumeration.enumerate_basis(ctx, b_s, t).monomials) \
                is None, (p, b_s, t)
        for n in ns:
            assert normal_form(verify_main(ctx, 4, n, s), ctx, 4, n, s) == small, (p, n)
