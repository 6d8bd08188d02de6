"""Acceptance gate: ten end-to-end criteria, one test and one printed
pass/fail line each.  Run with -s (or read the captured output) to see the
lines; every test is also a hard assertion."""

import json
import random
import time

from helpers import (add, basis_mismatch, column_sums, column_sums_impossible, element_parity,
                     factor_count, random_monomial, scale, vanishes_by_digit_bound,
                     vanishes_by_remainder_bound)
from mayss import (ResultCache, Tridegree, a, b, d1, e2_dimension, element_from_monomial, h,
                   make_context, monomial_from_factors, multiply, survives_to_e2,
                   verify_critical_differential, verify_main, verify_survival,
                   verify_upper_window_vanishing, verify_window)
from mayss.cli import main as cli_main
from mayss.enumeration import clear_memo, enumerate_basis
from mayss.verify import (critical_leading_terms, critical_monomials, family_degree,
                          h_triple, product_class, s_rep)

M, N = 4, 6
P = 5


def _conclude(num, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    print("criterion %02d %s: %s" % (num, label, verdict))
    assert not failures, "criterion %02d (%s): %s" % (num, label, "; ".join(failures))


def test_criterion_01_window_reproduction():
    ctx = make_context(P)
    clear_memo()
    failures = []
    t0 = time.perf_counter()
    for s in (2, 3, 4):
        rep = verify_window(ctx, M, N, s)
        for c in rep.checks:
            if not c.passed:
                failures.append("s=%d %s" % (s, c.description))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append("window sweep took %.1fs (budget 120s)" % elapsed)
    # the r=1 position at s=4 must be exactly the seven critical monomials
    basis = enumerate_basis(ctx, 6, family_degree(ctx, M, N, 4) + 2)
    want = sorted(g.render() for g in critical_monomials(ctx, M, N))
    got = [m.render() for m in basis.monomials]
    if got != want:
        failures.append("seven-monomial basis mismatch: %r" % (got,))
    _conclude(1, "window reproduction", failures)


def test_criterion_02_critical_differentials():
    ctx = make_context(P)
    failures = []
    gs = critical_monomials(ctx, M, N)
    leads = critical_leading_terms(ctx, M, N)
    for k, (g, lead) in enumerate(zip(gs, leads), start=1):
        image = d1(element_from_monomial(g, ctx), ctx)
        if image.is_zero:
            failures.append("d1 of monomial #%d is zero" % k)
        elif image.coefficient(lead) % ctx.p == 0:
            failures.append("lead of monomial #%d missing from its image" % k)
    res = e2_dimension(ctx, 6, family_degree(ctx, M, N, 4) + 2)
    rank = res.e1_dim - res.cycle_dim
    if rank != 7:
        failures.append("first-differential rank %d != 7" % rank)
    if res.e2_dim != 0 or any(blk.e2_dim != 0 for blk in res.blocks):
        failures.append("second page does not vanish at the critical bidegree")
    _conclude(2, "critical differentials", failures)


def test_criterion_03_product_class_survives():
    ctx = make_context(P)
    failures = []
    for s in (2, 3, 4):
        omega = element_from_monomial(product_class(ctx, M, N, s), ctx)
        want = Tridegree(s + 3, family_degree(ctx, M, N, s) + s - 2, 5 * s - 3)
        v = survives_to_e2(omega, ctx)
        if v.position != want:
            failures.append("s=%d position %s != %s" % (s, v.position, want))
        if not v.is_cycle:
            failures.append("s=%d class is not a cycle" % s)
        if v.is_boundary:
            failures.append("s=%d class is a boundary" % s)
        # the audit of every page that could hit the class, one filtration below
        checks = {c.description: c for c in verify_survival(ctx, M, N, s).checks}
        first = checks["no source in the weight hit by a first-page differential"]
        if first.observed != "0 source monomials":
            failures.append("s=%d has a first-page source: %s" % (s, first.observed))
        later = checks["every later-page source weight dies on the second page"]
        if not later.passed:
            failures.append("s=%d has a potential higher-page source: %s" % (s, later.observed))
        if s == 4:
            weights = checks["source bidegree weight multiset"].observed
            if weights != "(34, 50, 50, 50, 50, 50, 50)":
                failures.append("source weight multiset %s" % weights)
            if later.observed != "r=17: e2_dim=0, r=33: e2_dim=0":
                failures.append("later-page sources %s" % later.observed)
            if v.position.u != 5 * P - 8:
                failures.append("class weight %d != 5p-8" % v.position.u)
    _conclude(3, "product class survives", failures)


def test_criterion_04_upper_window_vanishing():
    ctx = make_context(P)
    failures = []
    for s in (2, 3, 4):
        base = family_degree(ctx, M, N, s)
        for r in range(2, s + 4):
            dim = enumerate_basis(ctx, s + 3 - r, base + s - r - 1).dimension
            if dim != 0:
                failures.append("s=%d r=%d has dim %d" % (s, r, dim))
    _conclude(4, "upper window vanishing", failures)


def test_criterion_05_representative_degrees():
    ctx = make_context(P)
    failures = []
    for s in (2, 3, 4):
        mon = s_rep(ctx, s)
        want = Tridegree(s, ctx.q * (s * ctx.p + s - 1) + s - 2, 5 * s - 6)
        if mon.tridegree != want:
            failures.append("s=%d representative at %s != %s" % (s, mon.tridegree, want))
    if s_rep(ctx, 3).tridegree.t != 137:
        failures.append("s=3 degree is not 137")
    trip = h_triple(ctx, M, N)
    if trip.tridegree != Tridegree(3, 130008, 3):
        failures.append("exterior triple at %s" % (trip.tridegree,))
    _conclude(5, "representative degrees", failures)


def test_criterion_06_differential_identities():
    failures = []
    rng = random.Random(0xD1)
    for p in (5, 7):
        ctx = make_context(p)
        gens = [a(i) for i in range(7)]
        for i in range(1, 7):
            for j in range(7 - i):
                gens += [h(i, j), b(i, j)]
        for g in gens:
            img = d1(element_from_monomial(
                monomial_from_factors([(g, 1)], ctx), ctx), ctx)
            if not d1(img, ctx).is_zero:
                failures.append("p=%d d1^2(%s) != 0" % (p, g.render()))
        checked = 0
        while checked < 200:
            mon = random_monomial(rng, ctx, max_factors=4, max_i=4, max_j=3)
            if mon.tridegree.s > 4:
                continue
            checked += 1
            x = element_from_monomial(mon, ctx)
            if not d1(d1(x, ctx), ctx).is_zero:
                failures.append("p=%d d1^2 != 0 on %s" % (p, mon.render()))
            img = d1(x, ctx)
            if not img.is_zero:
                shift = Tridegree(1, 0, -1)
                for out in img.terms:
                    if out.tridegree != mon.tridegree + shift:
                        failures.append("p=%d bad grading shift on %s" % (p, mon.render()))
        pairs = 0
        while pairs < 200:
            xm = random_monomial(rng, ctx, max_factors=3, max_i=4, max_j=3)
            ym = random_monomial(rng, ctx, max_factors=3, max_i=4, max_j=3)
            pairs += 1
            x = element_from_monomial(xm, ctx)
            y = element_from_monomial(ym, ctx)
            sign = -1 if element_parity(x) else 1
            lhs = d1(multiply(x, y, ctx), ctx)
            rhs = add(multiply(d1(x, ctx), y, ctx),
                      scale(sign, multiply(x, d1(y, ctx), ctx), ctx), ctx)
            if lhs != rhs:
                failures.append("p=%d Leibniz fails on (%s, %s)"
                                % (p, xm.render(), ym.render()))
    _conclude(6, "differential identities", failures)


def test_criterion_07_pruning_is_lossless():
    # The pruned bases against the E1 count per weight, which knows nothing
    # of the search, its pruning rules or its generator universe.
    ctx = make_context(P)
    failures = []
    rng = random.Random(0x707)

    def compare(s, t):
        problem = basis_mismatch(ctx, s, t, enumerate_basis(ctx, s, t).monomials)
        if problem is not None:
            failures.append("(s=%d, t=%d): %s" % (s, t, problem))

    clear_memo()
    for s in range(0, 5):
        for t in range(0, 501):
            compare(s, t)
    for _ in range(100):
        compare(rng.randrange(0, 5), rng.randrange(0, 5001))
    clear_memo()
    _conclude(7, "pruning is lossless", failures)


def test_criterion_08_vanishing_predicates():
    ctx = make_context(P)
    failures = []
    rng = random.Random(0x808)
    fired = 0
    for _ in range(500):
        s1, t = rng.randrange(1, ctx.p), rng.randrange(0, 4000)
        if vanishes_by_digit_bound(s1, t, ctx):
            fired += 1
            if enumerate_basis(ctx, s1, t).dimension != 0:
                failures.append("digit bound lied at (s=%d, t=%d)" % (s1, t))
    if fired < 50:
        failures.append("digit bound fired only %d times" % fired)
    fired = 0
    for _ in range(500):
        s1, t = rng.randrange(1, ctx.q), rng.randrange(0, 4000)
        if vanishes_by_remainder_bound(s1, t, ctx):
            fired += 1
            if enumerate_basis(ctx, s1, t).dimension != 0:
                failures.append("remainder bound lied at (s=%d, t=%d)" % (s1, t))
    if fired < 50:
        failures.append("remainder bound fired only %d times" % fired)
    scanned = 0
    for s in range(1, 5):
        for t in range(1, 501):
            for mon in enumerate_basis(ctx, s, t).monomials:
                scanned += 1
                if column_sums_impossible(column_sums(mon), factor_count(mon)):
                    failures.append("triple inequality fails on %s" % mon.render())
    if scanned < 100:
        failures.append("only %d monomials scanned" % scanned)
    _conclude(8, "vanishing predicates", failures)


def test_criterion_09_main_scenario_second_window():
    ctx = make_context(P)
    failures = []
    t0 = time.perf_counter()
    rep = verify_main(ctx, 4, 7, 3)
    elapsed = time.perf_counter() - t0
    for c in rep.checks:
        if not c.passed:
            failures.append(c.description)
    if elapsed >= 600:
        failures.append("took %.1fs (budget 600s)" % elapsed)
    _conclude(9, "main scenario at the second window", failures)


def test_criterion_10_machine_output_reproducibility(tmp_path, capsys):
    failures = []
    ctx = make_context(P)
    # Each CLI scenario with the library call that makes its report; the
    # family index s is None for eq34, which fixes s = p - 1.
    runs = [("lemma31", verify_window, 2), ("lemma31", verify_window, 3),
            ("lemma31", verify_window, 4), ("eq34", verify_critical_differential, None),
            ("thm32", verify_survival, 2), ("thm32", verify_survival, 3),
            ("thm32", verify_survival, 4), ("thm33", verify_upper_window_vanishing, 4)]
    cache = ResultCache(tmp_path / "cache")
    for name, scenario, s in runs:
        argv = ["verify", name, "--prime", str(P), "--m", str(M), "--n", str(N)]
        args = (M, N)
        if s is not None:
            argv += ["--scase", str(s)]
            args += (s,)
        label = " ".join(argv)
        outs = []
        for _ in range(2):
            clear_memo()
            code = cli_main(argv + ["--format", "machine"])
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append("%s exited %d" % (label, code))
        if outs[0] != outs[1]:
            failures.append("%s output differs between runs" % label)
        try:
            results = json.loads(outs[0])["results"]
        except ValueError:
            failures.append("%s is not valid JSON" % label)
            continue
        # the library report, with the cache cold, warm and off
        reports = []
        for leg in (cache, cache, None):
            clear_memo()
            reports.append(json.loads(json.dumps(scenario(ctx, *args, cache=leg).to_dict())))
        if not reports[0] == reports[1] == reports[2] == results:
            failures.append("%s report differs across cache states" % label)
    if not list((tmp_path / "cache").rglob("*.txt")):
        failures.append("the cold library runs wrote no cache entries")
    clear_memo()
    _conclude(10, "machine output reproducibility", failures)
