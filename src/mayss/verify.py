"""Scenario-level verification runs.

Each scenario bundles the checks behind one headline computation at
user-chosen parameters (p, m, n, s): the vanishing window of bidegrees
around the family degree, the rank of the first differential out of the
single non-empty window position, survival of the product class to the
second page, and the degree bookkeeping tying that class to its two
factors.  Every check records its expected and observed values; a report
passes only when every check does.

The family degree is t(s) = q(p^n + p^m + sp + s).  The scenarios assume
n >= m+2 > 5 and 2 <= s < p; a permissive mode widens the first gate to
n >= m+2 >= 4 with a warning, for probing where the window claims break.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from .algebra import (Monomial, a, element_from_monomial, h, monomial_from_factors,
                      multiply, render_element)
from .differential import d1
from .enumeration import enumerate_basis
from .errors import ParameterError
from .grading import PrimeContext, Tridegree
from .pages import e2_dimension, higher_page_hit_analysis, survives_to_e2


@dataclass(frozen=True)
class Check:
    description: str
    expected: str
    observed: str
    passed: bool

    def to_dict(self) -> dict:
        return {"description": self.description, "expected": self.expected,
                "observed": self.observed, "pass": self.passed}


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    params: dict
    checks: tuple[Check, ...]
    passed: bool
    seconds: float
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        # timing is deliberately left out: identical inputs must serialize
        # identically (see the cache-transparency requirement)
        return {"scenario": self.scenario, "params": dict(self.params),
                "checks": [c.to_dict() for c in self.checks],
                "notes": list(self.notes), "pass": self.passed}


def _report(scenario: str, params: dict, checks: list, t0: float,
            notes: tuple[str, ...] = ()) -> VerificationReport:
    return VerificationReport(
        scenario=scenario, params=dict(params), checks=tuple(checks),
        passed=all(c.passed for c in checks),
        seconds=time.perf_counter() - t0, notes=notes)


def family_degree(ctx: PrimeContext, m: int, n: int, s: int) -> int:
    """t(s) = q(p^n + p^m + sp + s)."""
    return ctx.q * (ctx.p ** n + ctx.p ** m + s * ctx.p + s)


def _require_family_index(ctx: PrimeContext, s: int) -> None:
    if not (isinstance(s, int) and 2 <= s < ctx.p):
        raise ParameterError("family index s must satisfy 2 <= s < p, got s=%r" % (s,))


def validate_family_params(ctx: PrimeContext, m: int, n: int, s: int | None = None,
                           strict_range: bool = True) -> None:
    """Gate for the window scenarios: n >= m+2 > 5 and, when given, 2 <= s < p.

    With strict_range=False the first condition is relaxed to n >= m+2 >= 4,
    with a warning that the window conclusions are only claimed above m=3.
    """
    if not isinstance(m, int) or not isinstance(n, int):
        raise ParameterError("window parameters m, n must be integers, got m=%r n=%r" % (m, n))
    floor = 4 if strict_range else 2
    if m < floor or n < m + 2:
        if strict_range:
            raise ParameterError(
                "window scenarios require n >= m+2 > 5, got m=%d n=%d "
                "(permissive mode accepts n >= m+2 >= 4)" % (m, n))
        raise ParameterError(
            "permissive range still requires n >= m+2 >= 4, got m=%d n=%d" % (m, n))
    if not strict_range and m < 4:
        warnings.warn(
            "m=%d is outside the range n >= m+2 > 5 in which the window "
            "results are claimed; checks may legitimately fail" % m,
            stacklevel=2)
    if s is not None:
        _require_family_index(ctx, s)


def critical_monomials(ctx: PrimeContext, m: int, n: int) -> tuple[Monomial, ...]:
    """The seven monomials spanning the one non-empty window position.

    All seven share filtration p+1, internal degree family_degree(m,n,p-1)+p-3,
    and (for the first six) May weight (2n+1)p-2n-3; the last has weight
    (2m+1)p-2m-3.
    """
    p = ctx.p
    if not (isinstance(m, int) and isinstance(n, int) and m >= 3 and n >= m + 2):
        raise ParameterError(
            "critical monomials need n >= m+2 and m >= 3, got m=%r n=%r" % (m, n))
    words = (
        ((a(n), p - 3), (h(3, 0), 1), (h(1, m), 1), (h(n - 2, 2), 1), (h(n, 0), 1)),
        ((a(n), p - 3), (h(1, 2), 1), (h(m + 1, 0), 1), (h(n - m, m), 1), (h(n, 0), 1)),
        ((a(m + 1), 1), (a(n), p - 4), (h(3, 0), 1), (h(n - m, m), 1),
         (h(n - 2, 2), 1), (h(n, 0), 1)),
        ((a(n), p - 3), (h(3, 0), 1), (h(m - 1, 2), 1), (h(n - m, m), 1), (h(n, 0), 1)),
        ((a(n), p - 3), (h(3, 0), 1), (h(m + 1, 0), 1), (h(n - m, m), 1), (h(n - 2, 2), 1)),
        ((a(3), 1), (a(n), p - 4), (h(m + 1, 0), 1), (h(n - m, m), 1),
         (h(n - 2, 2), 1), (h(n, 0), 1)),
        ((a(m), p - 3), (h(3, 0), 1), (h(m, 0), 1), (h(m - 2, 2), 1), (h(1, n), 1)),
    )
    return tuple(monomial_from_factors(w, ctx) for w in words)


def critical_leading_terms(ctx: PrimeContext, m: int, n: int) -> tuple[Monomial, ...]:
    """One monomial from the first differential of each critical monomial,
    certified (by the differential checks) to appear with nonzero coefficient.
    """
    p = ctx.p
    if not (isinstance(m, int) and isinstance(n, int) and m >= 4 and n >= m + 2):
        raise ParameterError(
            "leading terms need n >= m+2 and m >= 4, got m=%r n=%r" % (m, n))
    words = (
        ((a(n), p - 3), (h(1, 0), 1), (h(3, 0), 1), (h(1, m), 1),
         (h(n - 2, 2), 1), (h(n - 1, 1), 1)),
        ((a(n), p - 3), (h(1, 0), 1), (h(1, 2), 1), (h(m + 1, 0), 1),
         (h(n - m, m), 1), (h(n - 1, 1), 1)),
        ((a(m + 1), 1), (a(n), p - 4), (h(1, 0), 1), (h(3, 0), 1),
         (h(n - m, m), 1), (h(n - 2, 2), 1), (h(n - 1, 1), 1)),
        ((a(n), p - 3), (h(1, 0), 1), (h(3, 0), 1), (h(m - 1, 2), 1),
         (h(n - m, m), 1), (h(n - 1, 1), 1)),
        ((a(n), p - 3), (h(1, 0), 1), (h(3, 0), 1), (h(m, 1), 1),
         (h(n - m, m), 1), (h(n - 2, 2), 1)),
        ((a(3), 1), (a(n), p - 4), (h(1, 0), 1), (h(m + 1, 0), 1),
         (h(n - m, m), 1), (h(n - 2, 2), 1), (h(n - 1, 1), 1)),
        ((a(m), p - 3), (h(1, 2), 1), (h(3, 0), 1), (h(m - 3, 3), 1),
         (h(1, n), 1), (h(m, 0), 1)),
    )
    return tuple(monomial_from_factors(w, ctx) for w in words)


def s_rep(ctx: PrimeContext, s: int) -> Monomial:
    """The filtration-s family representative a(2)^(s-2) h(2,0) h(1,1)."""
    _require_family_index(ctx, s)
    word = [(h(2, 0), 1), (h(1, 1), 1)]
    if s > 2:
        word.insert(0, (a(2), s - 2))
    return monomial_from_factors(word, ctx)


def h_triple(ctx: PrimeContext, m: int, n: int) -> Monomial:
    """The weight-3 exterior product h(1,0) h(1,n) h(1,m)."""
    if not (isinstance(m, int) and isinstance(n, int) and 1 <= m < n):
        raise ParameterError("need integers 1 <= m < n, got m=%r n=%r" % (m, n))
    return monomial_from_factors(((h(1, 0), 1), (h(1, n), 1), (h(1, m), 1)), ctx)


def product_class(ctx: PrimeContext, m: int, n: int, s: int) -> Monomial:
    """The candidate surviving class a(2)^(s-2) h(2,0) h(1,1) h(1,0) h(1,n) h(1,m)."""
    _require_family_index(ctx, s)
    if not (isinstance(m, int) and isinstance(n, int) and 2 <= m < n):
        raise ParameterError("need integers 2 <= m < n, got m=%r n=%r" % (m, n))
    word = [(h(2, 0), 1), (h(1, 1), 1), (h(1, 0), 1), (h(1, n), 1), (h(1, m), 1)]
    if s > 2:
        word.insert(0, (a(2), s - 2))
    return monomial_from_factors(word, ctx)


def verify_window(ctx: PrimeContext, m: int, n: int, s: int, cache=None,
                  strict_range: bool = True) -> VerificationReport:
    """Enumerate the window bidegrees (s+3-r, t(s)+s-r-1) for r = 1..s+3.

    Every position must be empty except (r=1, s=p-1), which must equal the
    seven critical monomials exactly.
    """
    validate_family_params(ctx, m, n, s, strict_range)
    t0 = time.perf_counter()
    base = family_degree(ctx, m, n, s)
    checks = []
    for r in range(1, s + 4):
        fs = s + 3 - r
        ft = base + s - r - 1
        basis = enumerate_basis(ctx, fs, ft, None, cache)
        where = "window r=%d, bidegree (%d, %d)" % (r, fs, ft)
        if r == 1 and s == ctx.p - 1:
            try:
                expected = sorted(g.render() for g in critical_monomials(ctx, m, n))
            except ParameterError as exc:
                checks.append(Check(
                    description="%s equals the seven critical monomials" % where,
                    expected="the seven critical monomials",
                    observed="not constructible: %s" % exc, passed=False))
                continue
            observed = [mon.render() for mon in basis.monomials]
            checks.append(Check(
                description="%s equals the seven critical monomials" % where,
                expected="; ".join(expected), observed="; ".join(observed),
                passed=observed == expected))
        else:
            checks.append(Check(description="%s is empty" % where, expected="dim=0",
                                observed="dim=%d" % basis.dimension,
                                passed=basis.dimension == 0))
    return _report("window", {"p": ctx.p, "m": m, "n": n, "s": s}, checks, t0)


def verify_critical_differential(ctx: PrimeContext, m: int, n: int, cache=None,
                                 strict_range: bool = True) -> VerificationReport:
    """At s = p-1, the first differential kills the whole window position:
    each critical monomial has nonzero image containing its leading term, the
    seven images are independent, and the second page vanishes there.
    """
    validate_family_params(ctx, m, n, None, strict_range)
    s = ctx.p - 1
    t0 = time.perf_counter()
    t = family_degree(ctx, m, n, s) + s - 2
    gs = critical_monomials(ctx, m, n)
    try:
        leads = critical_leading_terms(ctx, m, n)
    except ParameterError as exc:
        leads = None
        lead_failure = str(exc)
    checks = []
    for idx, g in enumerate(gs, start=1):
        image = d1(element_from_monomial(g, ctx), ctx)
        checks.append(Check(
            description="d1 of critical monomial #%d (%s) is nonzero" % (idx, g.render()),
            expected="nonzero", observed="zero" if image.is_zero else "nonzero",
            passed=not image.is_zero))
        if leads is None:
            checks.append(Check(
                description="d1 of critical monomial #%d contains its leading term" % idx,
                expected="nonzero coefficient",
                observed="leading term not constructible: %s" % lead_failure,
                passed=False))
            continue
        lead = leads[idx - 1]
        coeff = image.coefficient(lead)
        checks.append(Check(
            description="d1 of critical monomial #%d contains %s" % (idx, lead.render()),
            expected="nonzero coefficient", observed="coefficient %d" % coeff,
            passed=coeff != 0))
    basis = enumerate_basis(ctx, s + 2, t, None, cache)
    same = sorted(g.render() for g in gs) == [mon.render() for mon in basis.monomials]
    checks.append(Check(
        description="bidegree (%d, %d) is spanned by the seven critical monomials" % (s + 2, t),
        expected="basis = the seven critical monomials",
        observed="dim=%d, %s" % (basis.dimension, "same set" if same else "different set"),
        passed=same))
    page = e2_dimension(ctx, s + 2, t, None, cache)
    rank_total = page.e1_dim - page.cycle_dim
    checks.append(Check(
        description="the seven first-differential images are linearly independent",
        expected="rank=7", observed="rank=%d" % rank_total, passed=rank_total == 7))
    checks.append(Check(
        description="second page vanishes at bidegree (%d, %d)" % (s + 2, t),
        expected="e2_dim=0", observed="e2_dim=%d" % page.e2_dim,
        passed=page.e2_dim == 0))
    return _report("critical-differential", {"p": ctx.p, "m": m, "n": n, "s": s},
                   checks, t0)


def verify_survival(ctx: PrimeContext, m: int, n: int, s: int, cache=None,
                    strict_range: bool = True) -> VerificationReport:
    """The product class is a cycle, never a boundary, and no source bidegree
    can hit it on any page."""
    validate_family_params(ctx, m, n, s, strict_range)
    t0 = time.perf_counter()
    omega = product_class(ctx, m, n, s)
    x = element_from_monomial(omega, ctx)
    want = Tridegree(s + 3, family_degree(ctx, m, n, s) + s - 2, 5 * s - 3)
    got = omega.tridegree
    checks = [Check(
        description="product class tridegree",
        expected="(%d, %d, %d)" % (want.s, want.t, want.u),
        observed="(%d, %d, %d)" % (got.s, got.t, got.u), passed=got == want)]
    image = d1(x, ctx)
    checks.append(Check(
        description="product class is a d1-cycle", expected="d1 = 0",
        observed="d1 = 0" if image.is_zero else "d1 = %s" % render_element(image, ctx),
        passed=image.is_zero))
    verdict = survives_to_e2(x, ctx, cache)
    checks.append(Check(
        description="product class is not a d1-boundary", expected="not a boundary",
        observed="a boundary" if verdict.is_boundary else "not a boundary",
        passed=not verdict.is_boundary))
    checks.append(Check(
        description="product class is nonzero on the second page",
        expected="nonzero", observed="nonzero" if verdict.e2_nonzero else "zero",
        passed=verdict.e2_nonzero))
    audit = higher_page_hit_analysis(x, ctx, cache)
    src_dim = len(audit.source_weights)
    if s == ctx.p - 1:
        w_top = (2 * n + 1) * ctx.p - 2 * n - 3
        w_low = (2 * m + 1) * ctx.p - 2 * m - 3
        expected_weights = tuple(sorted([w_top] * 6 + [w_low]))
        checks.append(Check(
            description="source bidegree weight multiset",
            expected="%s" % (expected_weights,), observed="%s" % (audit.source_weights,),
            passed=audit.source_weights == expected_weights))
        checks.append(Check(
            description="product class weight is 5p-8",
            expected="u=%d" % (5 * ctx.p - 8), observed="u=%d" % got.u,
            passed=got.u == 5 * ctx.p - 8))
    else:
        checks.append(Check(
            description="source bidegree (%d, %d) is empty" % (s + 2, want.t),
            expected="dim=0", observed="dim=%d" % src_dim, passed=src_dim == 0))
    checks.append(Check(
        description="no source in the weight hit by a first-page differential",
        expected="0 source monomials at weight %d" % (got.u + 1),
        observed="%d source monomials" % audit.first_page_source_dim,
        passed=audit.first_page_source_dim == 0))
    higher = ", ".join("r=%d: e2_dim=%d" % (r, v)
                       for r, v in sorted(audit.higher_source_e2.items())) or "none"
    checks.append(Check(
        description="every later-page source weight dies on the second page",
        expected="all source e2 dimensions zero", observed=higher,
        passed=audit.not_hit_beyond_first_page))
    return _report("survival", {"p": ctx.p, "m": m, "n": n, "s": s}, checks, t0,
                   notes=(audit.caveat,))


def verify_upper_window_vanishing(ctx: PrimeContext, m: int, n: int, s: int,
                                  cache=None, strict_range: bool = True) -> VerificationReport:
    """First-page vanishing at (s+3-r, t(s)+s-r-1) for every r in 2..s+3."""
    validate_family_params(ctx, m, n, s, strict_range)
    t0 = time.perf_counter()
    base = family_degree(ctx, m, n, s)
    checks = []
    for r in range(2, s + 4):
        fs = s + 3 - r
        ft = base + s - r - 1
        dim = enumerate_basis(ctx, fs, ft, None, cache).dimension
        checks.append(Check(
            description="upper window r=%d, bidegree (%d, %d) is empty" % (r, fs, ft),
            expected="dim=0", observed="dim=%d" % dim, passed=dim == 0))
    return _report("upper-vanishing", {"p": ctx.p, "m": m, "n": n, "s": s}, checks, t0)


def verify_representatives(ctx: PrimeContext, m: int, n: int, s: int) -> VerificationReport:
    """Degree bookkeeping for the two factor classes and their product."""
    _require_family_index(ctx, s)
    if not (isinstance(m, int) and isinstance(n, int) and 1 <= m < n):
        raise ParameterError("need integers 1 <= m < n, got m=%r n=%r" % (m, n))
    t0 = time.perf_counter()
    p, q = ctx.p, ctx.q
    rep = s_rep(ctx, s)
    trip = h_triple(ctx, m, n)
    want_rep = Tridegree(s, q * (s * p + s - 1) + s - 2, 5 * s - 6)
    want_trip = Tridegree(3, q * (p ** n + p ** m + 1), 3)
    checks = []
    for label, mon, want in (("family representative %s" % rep.render(), rep, want_rep),
                             ("exterior product %s" % trip.render(), trip, want_trip)):
        got = mon.tridegree
        checks.append(Check(
            description="%s has tridegree" % label,
            expected="(%d, %d, %d)" % (want.s, want.t, want.u),
            observed="(%d, %d, %d)" % (got.s, got.t, got.u), passed=got == want))
        image = d1(element_from_monomial(mon, ctx), ctx)
        checks.append(Check(
            description="%s is a d1-cycle" % label, expected="d1 = 0",
            observed="d1 = 0" if image.is_zero else "d1 = %s" % render_element(image, ctx),
            passed=image.is_zero))
    total = want_rep.t + want_trip.t
    target_t = family_degree(ctx, m, n, s) + s - 2
    checks.append(Check(
        description="degrees of the two factors add to the product degree",
        expected="t=%d" % target_t, observed="t=%d" % total, passed=total == target_t))
    prod = multiply(element_from_monomial(rep, ctx), element_from_monomial(trip, ctx), ctx)
    try:
        target = product_class(ctx, m, n, s)
        prod_ok = (not prod.is_zero) and prod.support() == {target}
    except ParameterError:
        prod_ok = False
    checks.append(Check(
        description="the two representatives multiply to the product class",
        expected="a single monomial, up to sign",
        observed=render_element(prod, ctx), passed=prod_ok))
    return _report("representatives", {"p": ctx.p, "m": m, "n": n, "s": s}, checks, t0)


_CONVERGENCE_NOTE = ("convergence of the ambient spectral sequences is an input "
                     "assumption; only the first- and second-page algebra is "
                     "checked here")


def verify_main(ctx: PrimeContext, m: int, n: int, s: int, cache=None,
                strict_range: bool = True) -> VerificationReport:
    """Composite scenario: window, critical differential (when s = p-1),
    survival, upper-window vanishing, and representative bookkeeping."""
    validate_family_params(ctx, m, n, s, strict_range)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # the gate above has warned once; each part would repeat the warning
        warnings.simplefilter("ignore", UserWarning)
        parts = [verify_window(ctx, m, n, s, cache, strict_range)]
        if s == ctx.p - 1:
            parts.append(verify_critical_differential(ctx, m, n, cache, strict_range))
        parts.append(verify_survival(ctx, m, n, s, cache, strict_range))
        parts.append(verify_upper_window_vanishing(ctx, m, n, s, cache, strict_range))
    parts.append(verify_representatives(ctx, m, n, s))
    checks = []
    notes: list[str] = []
    for part in parts:
        checks.extend(Check(description="%s: %s" % (part.scenario, c.description),
                            expected=c.expected, observed=c.observed, passed=c.passed)
                      for c in part.checks)
        for note in part.notes:
            if note not in notes:
                notes.append(note)
    notes.append(_CONVERGENCE_NOTE)
    return _report("main", {"p": ctx.p, "m": m, "n": n, "s": s}, checks, t0,
                   notes=tuple(notes))
