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

import warnings
from collections import namedtuple

from .algebra import (Monomial, a, element_from_monomial, h, monomial_from_factors,
                      multiply, render_element)
from .differential import d1
from .enumeration import enumerate_basis
from .errors import ParameterError
from .grading import PrimeContext, Tridegree, check_degree, check_power
from .pages import e2_dimension, survives_to_e2


class Check(namedtuple("Check", "description expected observed passed")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"description": self.description, "expected": self.expected,
                "observed": self.observed, "pass": self.passed}


class VerificationReport(namedtuple("VerificationReport",
                                     "scenario params checks passed notes", defaults=((),))):
    """params maps "p", "m", "n" and "s" to ints; checks is a tuple of
    Check, notes a tuple of str."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "params": dict(self.params),
                "checks": [c.to_dict() for c in self.checks],
                "notes": list(self.notes), "pass": self.passed}


def _report(scenario: str, ctx: PrimeContext, m: int, n: int, s: int, checks: list,
            notes: tuple[str, ...] = ()) -> VerificationReport:
    return VerificationReport(scenario, {"p": ctx.p, "m": m, "n": n, "s": s}, tuple(checks),
                              all(c.passed for c in checks), notes)


def _build(description: str, expected: str, make, *args):
    """(make(*args), None), or (None, a FAIL check) when make raises a
    ParameterError: the object does not exist at these parameters."""
    try:
        return make(*args), None
    except ParameterError as exc:
        return None, Check(description, expected, "not constructible: %s" % exc, False)


def _empty(where: str, dim: int) -> Check:
    return Check("%s is empty" % where, "dim=0", "dim=%d" % dim, dim == 0)


def _cycle(ctx: PrimeContext, label: str, mon: Monomial) -> Check:
    image = d1(element_from_monomial(mon, ctx), ctx)
    return Check("%s is a d1-cycle" % label, "d1 = 0",
                 "d1 = %s" % render_element(image, ctx), image.is_zero)


def _tridegree(description: str, got: Tridegree, want: Tridegree) -> Check:
    return Check(description, "(%d, %d, %d)" % (want.s, want.t, want.u),
                 "(%d, %d, %d)" % (got.s, got.t, got.u), got == want)


def _window(ctx: PrimeContext, m: int, n: int, s: int, first: int):
    """The window positions (r, s+3-r, t(s)+s-r-1) for r = first..s+3."""
    base = family_degree(ctx, m, n, s)
    return [(r, s + 3 - r, base + s - r - 1) for r in range(first, s + 4)]


def family_degree(ctx: PrimeContext, m: int, n: int, s: int) -> int:
    """t(s) = q(p^n + p^m + sp + s)."""
    return ctx.q * (ctx.p ** n + ctx.p ** m + s * ctx.p + s)


def _require_family_index(ctx: PrimeContext, s: int) -> None:
    if not (isinstance(s, int) and 2 <= s < ctx.p):
        raise ParameterError("family index s must satisfy 2 <= s < p, got s=%r" % (s,))


def validate_family_params(ctx: PrimeContext, m: int, n: int, s: int,
                           strict_range: bool = True) -> None:
    """Gate for the window scenarios: n >= m+2 > 5, 2 <= s < p and t(s) at
    most MAX_DEGREE.

    With strict_range=False the first condition is relaxed to n >= m+2 >= 4,
    with a warning that the window conclusions are only claimed above m=3.
    """
    if not isinstance(m, int) or not isinstance(n, int):
        raise ParameterError("window parameters m, n must be integers, got m=%r n=%r" % (m, n))
    check_power(ctx.p, n)   # before any p**n, which grows faster than n
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
    _require_family_index(ctx, s)
    check_degree(family_degree(ctx, m, n, s))


def _require_critical_range(m: int, n: int) -> None:
    # below m = 4 the seventh word would hold h(3,0) twice
    if not (isinstance(m, int) and isinstance(n, int) and m >= 4 and n >= m + 2):
        raise ParameterError(
            "critical monomials need n >= m+2 and m >= 4, got m=%r n=%r" % (m, n))


def critical_monomials(ctx: PrimeContext, m: int, n: int) -> tuple[Monomial, ...]:
    """The seven monomials spanning the one non-empty window position.

    All seven share filtration p+1, internal degree family_degree(m,n,p-1)+p-3,
    and (for the first six) May weight (2n+1)p-2n-3; the last has weight
    (2m+1)p-2m-3.
    """
    p = ctx.p
    _require_critical_range(m, n)
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
    _require_critical_range(m, n)
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
    checks = []
    for r, fs, ft in _window(ctx, m, n, s, 1):
        basis = enumerate_basis(ctx, fs, ft, None, cache)
        where = "window r=%d, bidegree (%d, %d)" % (r, fs, ft)
        if r > 1 or s != ctx.p - 1:
            checks.append(_empty(where, basis.dimension))
            continue
        what = "%s equals the seven critical monomials" % where
        gs, failed = _build(what, "the seven critical monomials", critical_monomials, ctx, m, n)
        if failed:
            checks.append(failed)
            continue
        expected = sorted(g.render() for g in gs)
        observed = [mon.render() for mon in basis.monomials]
        checks.append(Check(what, "; ".join(expected), "; ".join(observed),
                            observed == expected))
    return _report("window", ctx, m, n, s, checks)


def verify_critical_differential(ctx: PrimeContext, m: int, n: int, s: int | None = None,
                                 cache=None, strict_range: bool = True) -> VerificationReport:
    """At s = p-1, the first differential kills the whole window position:
    each critical monomial has nonzero image containing its leading term, the
    seven images are independent, and the second page vanishes there.

    s defaults to p-1; any other family index is a ParameterError.
    """
    if s not in (None, ctx.p - 1):
        raise ParameterError("the critical differential runs at s = p-1 = %d, got s=%r"
                             % (ctx.p - 1, s))
    s = ctx.p - 1
    validate_family_params(ctx, m, n, s, strict_range)
    t = family_degree(ctx, m, n, s) + s - 2
    gs, failed = _build("the seven critical monomials exist", "the seven critical monomials",
                        critical_monomials, ctx, m, n)
    checks = [failed] if failed else []
    if failed is None:
        for idx, (g, lead) in enumerate(zip(gs, critical_leading_terms(ctx, m, n)), start=1):
            image = d1(element_from_monomial(g, ctx), ctx)
            checks.append(Check(
                "d1 of critical monomial #%d (%s) is nonzero" % (idx, g.render()),
                "nonzero", "zero" if image.is_zero else "nonzero", not image.is_zero))
            coeff = image.coefficient(lead)
            checks.append(Check(
                "d1 of critical monomial #%d contains %s" % (idx, lead.render()),
                "nonzero coefficient", "coefficient %d" % coeff, coeff != 0))
    basis = enumerate_basis(ctx, s + 2, t, None, cache)
    same = failed is None and (sorted(g.render() for g in gs)
                               == [mon.render() for mon in basis.monomials])
    checks.append(Check(
        "bidegree (%d, %d) is spanned by the seven critical monomials" % (s + 2, t),
        "basis = the seven critical monomials",
        "dim=%d, %s" % (basis.dimension, "same set" if same else "different set"), same))
    page = e2_dimension(ctx, s + 2, t, None, cache)
    rank_total = page.e1_dim - page.cycle_dim
    checks.append(Check("the seven first-differential images are linearly independent",
                        "rank=7", "rank=%d" % rank_total, rank_total == 7))
    checks.append(Check("second page vanishes at bidegree (%d, %d)" % (s + 2, t),
                        "e2_dim=0", "e2_dim=%d" % page.e2_dim, page.e2_dim == 0))
    return _report("critical-differential", ctx, m, n, s, checks)


_CAVEAT = ("second-page vanishing of every source weight rules out incoming "
           "differentials on all later pages; convergence of the ambient "
           "filtration is an assumption outside this computation")


def verify_survival(ctx: PrimeContext, m: int, n: int, s: int, cache=None,
                    strict_range: bool = True) -> VerificationReport:
    """The product class is a cycle, never a boundary, and no source bidegree
    can hit it on any page.

    The class sits at (s+3, t, u), so a page-r differential onto it starts at
    (s+2, t) in weight u+r.  Weight u+1 there must be empty, which rules out
    the first page; every weight u+r with r >= 2 must have zero second-page
    dimension, and a source that is gone on the second page is gone on every
    later one, so no page r >= 2 can hit the class either.
    """
    validate_family_params(ctx, m, n, s, strict_range)
    omega = product_class(ctx, m, n, s)
    want = Tridegree(s + 3, family_degree(ctx, m, n, s) + s - 2, 5 * s - 3)
    got = omega.tridegree
    checks = [_tridegree("product class tridegree", got, want),
              _cycle(ctx, "product class", omega)]
    verdict = survives_to_e2(element_from_monomial(omega, ctx), ctx, cache)
    checks.append(Check("product class is not a d1-boundary", "not a boundary",
                        "a boundary" if verdict.is_boundary else "not a boundary",
                        not verdict.is_boundary))
    checks.append(Check("product class is nonzero on the second page", "nonzero",
                        "nonzero" if verdict.e2_nonzero else "zero", verdict.e2_nonzero))
    weights = tuple(sorted(enumerate_basis(ctx, s + 2, got.t, None, cache).weights))
    if s == ctx.p - 1:
        w_top = (2 * n + 1) * ctx.p - 2 * n - 3
        w_low = (2 * m + 1) * ctx.p - 2 * m - 3
        expected_weights = tuple(sorted([w_top] * 6 + [w_low]))
        checks.append(Check("source bidegree weight multiset", str(expected_weights),
                            str(weights), weights == expected_weights))
        checks.append(Check("product class weight is 5p-8", "u=%d" % (5 * ctx.p - 8),
                            "u=%d" % got.u, got.u == 5 * ctx.p - 8))
    else:
        checks.append(_empty("source bidegree (%d, %d)" % (s + 2, want.t), len(weights)))
    first = weights.count(got.u + 1)
    checks.append(Check("no source in the weight hit by a first-page differential",
                        "0 source monomials at weight %d" % (got.u + 1),
                        "%d source monomials" % first, first == 0))
    higher = {w - got.u: e2_dimension(ctx, s + 2, got.t, u=w, cache=cache).e2_dim
              for w in sorted(set(weights)) if w - got.u >= 2}
    checks.append(Check("every later-page source weight dies on the second page",
                        "all source e2 dimensions zero",
                        ", ".join("r=%d: e2_dim=%d" % rd for rd in higher.items()) or "none",
                        not any(higher.values())))
    return _report("survival", ctx, m, n, s, checks, notes=(_CAVEAT,))


def verify_upper_window_vanishing(ctx: PrimeContext, m: int, n: int, s: int,
                                  cache=None, strict_range: bool = True) -> VerificationReport:
    """First-page vanishing at (s+3-r, t(s)+s-r-1) for every r in 2..s+3."""
    validate_family_params(ctx, m, n, s, strict_range)
    checks = [_empty("upper window r=%d, bidegree (%d, %d)" % (r, fs, ft),
                     enumerate_basis(ctx, fs, ft, None, cache).dimension)
              for r, fs, ft in _window(ctx, m, n, s, 2)]
    return _report("upper-vanishing", ctx, m, n, s, checks)


def verify_representatives(ctx: PrimeContext, m: int, n: int, s: int) -> VerificationReport:
    """Degree bookkeeping for the two factor classes and their product."""
    check_power(ctx.p, n)
    p, q = ctx.p, ctx.q
    rep = s_rep(ctx, s)
    trip = h_triple(ctx, m, n)
    want_rep = Tridegree(s, q * (s * p + s - 1) + s - 2, 5 * s - 6)
    want_trip = Tridegree(3, q * (p ** n + p ** m + 1), 3)
    checks = []
    for label, mon, want in (("family representative %s" % rep.render(), rep, want_rep),
                             ("exterior product %s" % trip.render(), trip, want_trip)):
        checks.append(_tridegree("%s has tridegree" % label, mon.tridegree, want))
        checks.append(_cycle(ctx, label, mon))
    total = want_rep.t + want_trip.t
    target_t = family_degree(ctx, m, n, s) + s - 2
    checks.append(Check("degrees of the two factors add to the product degree",
                        "t=%d" % target_t, "t=%d" % total, total == target_t))
    what, expected = ("the two representatives multiply to the product class",
                      "a single monomial, up to sign")
    target, failed = _build(what, expected, product_class, ctx, m, n, s)
    if failed:
        checks.append(failed)
    else:
        prod = multiply(element_from_monomial(rep, ctx), element_from_monomial(trip, ctx), ctx)
        checks.append(Check(what, expected, render_element(prod, ctx),
                            prod.support() == {target}))
    return _report("representatives", ctx, m, n, s, checks)


_CONVERGENCE_NOTE = ("convergence of the ambient spectral sequences is an input "
                     "assumption; only the first- and second-page algebra is "
                     "checked here")


def verify_main(ctx: PrimeContext, m: int, n: int, s: int, cache=None,
                strict_range: bool = True) -> VerificationReport:
    """Composite scenario: window, critical differential (when s = p-1),
    survival, upper-window vanishing, and representative bookkeeping."""
    validate_family_params(ctx, m, n, s, strict_range)
    with warnings.catch_warnings():
        # the gate above has warned once; each part would repeat the warning
        warnings.simplefilter("ignore", UserWarning)
        kw = {"cache": cache, "strict_range": strict_range}
        parts = [verify_window(ctx, m, n, s, **kw)]
        if s == ctx.p - 1:
            parts.append(verify_critical_differential(ctx, m, n, s, **kw))
        parts.append(verify_survival(ctx, m, n, s, **kw))
        parts.append(verify_upper_window_vanishing(ctx, m, n, s, **kw))
    parts.append(verify_representatives(ctx, m, n, s))
    checks = []
    notes: list[str] = []
    for part in parts:
        checks.extend(c._replace(description="%s: %s" % (part.scenario, c.description))
                      for c in part.checks)
        for note in part.notes:
            if note not in notes:
                notes.append(note)
    notes.append(_CONVERGENCE_NOTE)
    return _report("main", ctx, m, n, s, checks, notes=tuple(notes))
