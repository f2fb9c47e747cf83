"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything exact-mode asserts equality with zero tolerance, and the
floating-point criteria pin the stated tolerances.
"""

import time
from fractions import Fraction

from oracles import q_factorial, q_pochhammer
from qlidstone.qcore import QContext, q_number
from qlidstone.qpolys import (
    build_numbers,
    check_identity,
    im_bernoulli_numbers,
    registry_names,
)
from qlidstone.symlaurent import special_poly
from qlidstone.lidstone import (
    EntireFn,
    aw_boundary_data,
    bernoulli_expansion,
    counterexample_report,
    euler_expansion,
    trig_rho_stream,
)
from qlidstone import qspecial, guichard


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    structural = ("eq4_decomposition", "euler_decomposition", "hermite_rep")
    for s in (Fraction(1, 2), Fraction(3, 5)):
        ctx = QContext(s)
        for name in registry_names():
            order = 10 if name in structural else 8
            report = check_identity(ctx, name, order)
            assert report.passed, (s, name, report.first_failure)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(1, f"all {len(registry_names())} registry identities exact for "
                 f"s in {{1/2, 3/5}} in {elapsed:.1f}s")


def test_criterion_2_number_facts():
    for s in (Fraction(1, 2), Fraction(3, 5)):
        ctx = QContext(s)
        rq = ctx.sqrt_q
        beta = build_numbers(ctx, "beta_q", 12)
        assert beta[0] == (1 - rq) / 2
        assert beta[1] == Fraction(-1, 2)
        assert beta[2] == rq / (2 * (1 - rq ** 3))
        for n in range(1, 6):
            assert beta[2 * n + 1] == 0
            # the even numbers alternate starting positive: via the base-square
            # relation their signs track the e/E-family numbers, whose even
            # entries satisfy (-1)**(n-1) B_2n > 0; beta_2 itself is the
            # manifestly positive sqrt(q)/(2(1 - q**(3/2)))
            assert Fraction(-1) ** (n - 1) * beta[2 * n] > 0
        q = ctx.q
        imb = im_bernoulli_numbers(q, 2)
        assert imb[2] == q * q_number(2, q) / (4 * q_number(3, q))
    _announce(2, "beta_0, beta_1, beta_2 closed forms, odd vanishing, sign "
                 "alternation, and B_2 = q[2]/(2^2 [3]) all exact")


def test_criterion_3_polynomial_exactness():
    ctx = QContext(Fraction(1, 2))
    count = 0
    for n in range(7):
        specs = [("rho", None), ("monomial", None), ("phi", Fraction(1, 2)), ("phi", Fraction(1, 3))]
        for family, a in specs:
            p = special_poly(ctx, family, n, a)
            f = EntireFn.from_poly(ctx, p)
            K = (n + 1) // 2
            rb = bernoulli_expansion(ctx, f, K)
            assert rb.exact and rb.residual == 0, (family, n, a)
            re_ = euler_expansion(ctx, f, K)
            assert re_.exact and re_.residual == 0, (family, n, a)
            count += 2
    # closed-form boundary data vs the operator route, n <= 3
    q, s = ctx.q, ctx.s
    for n in (1, 2, 3):
        for a in (Fraction(1, 2), Fraction(1, 3)):
            f = EntireFn.from_poly(ctx, special_poly(ctx, "phi", 2 * n, a))
            d0, deta = aw_boundary_data(ctx, f, n, "bernoulli")
            od0, odeta = aw_boundary_data(ctx, f, n, "euler")
            for k in range(n + 1):
                pref = (2 * a) ** (2 * k) * s ** (4 * k * k - 2 * k) \
                    * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k, q)
                assert d0[k] == pref * q_pochhammer(-a * a * q ** (2 * k), q * q, 2 * n - 2 * k)
                expected_eta = pref
                b = a * q ** k
                for j in range(2 * n - 2 * k):
                    expected_eta *= (1 - b * q ** j * s) * (1 - b * q ** j / s)
                assert deta[k] == expected_eta
                assert odeta[k] == expected_eta
                if k <= n - 1:
                    opref = -(2 * a) ** (2 * k + 1) * s ** (4 * k * k + 2 * k) \
                        * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k - 1, q)
                    assert od0[k] == opref * q_pochhammer(-a * a * q ** (2 * k + 1), q * q, 2 * n - 2 * k - 1)
    _announce(3, f"{count} exact reconstructions (n <= 6, K = ceil(n/2)) and "
                 "closed-form boundary data matched for n <= 3")


def test_criterion_4_numeric_convergence():
    t0 = time.time()
    ctx = QContext(Fraction(1, 2))  # q = 1/16
    f = trig_rho_stream(ctx, "C", Fraction(3, 10), 40)
    rb = bernoulli_expansion(ctx, f, 20)
    assert rb.residual < 1e-10, rb.residual
    fe = trig_rho_stream(ctx, "E_even", Fraction(3, 10), 40)
    re_ = euler_expansion(ctx, fe, 20)
    assert re_.residual < 1e-10, re_.residual
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(4, f"grid residuals {rb.residual:.2e} (bernoulli) and "
                 f"{re_.residual:.2e} (euler) at K = 20 in {elapsed:.1f}s")


def test_criterion_5_counterexamples():
    # at this base both first zeros sit inside the series' convergence
    # region, so the truncations are faithful; the boundary data all vanish
    # while the functions stay O(1) on the grid
    ctx = QContext(Fraction(19, 20))
    rb = counterexample_report(ctx, "bernoulli", n_terms=40, K=3)
    assert rb.max_data < 1e-9, rb.max_data
    assert rb.function_norm > 1e-2
    re_ = counterexample_report(ctx, "euler", n_terms=40, K=3)
    assert re_.max_data < 1e-9, re_.max_data
    assert re_.function_norm > 1e-2
    assert "warning" in rb.expansion.status
    assert "warning" in re_.expansion.status
    _announce(5, f"sine-at-first-zero data {rb.max_data:.1e} with norm "
                 f"{rb.function_norm:.2f}; cosine analog {re_.max_data:.1e} "
                 f"with norm {re_.function_norm:.2f}")


def test_criterion_6_zeros():
    q = 0.25
    rep = qspecial.smallest_positive_zero("Sq_eta", q)
    assert rep.bound_check
    assert rep.value ** 2 >= qspecial.sq_lower_bound(q) * (1 - 1e-12)
    assert rep.residual < 1e-12
    zs = qspecial.jackson_bessel_zeros(0.5, q, 4)
    zc = qspecial.jackson_bessel_zeros(-0.5, q, 4)
    assert zc[0] < zs[0] < zc[1] < zs[1] < zc[2] < zs[2] < zc[3] < zs[3]
    # the consecutive-zero ratio tends to 1/q; the first-order correction
    # constant depends on the order parameter, so the plus-half family is
    # inside the 5% band at the third zero while the minus-half family
    # arrives one index later (its deviations still shrink geometrically)
    ratio_s = zs[2] / zs[1]
    assert abs(ratio_s - 1 / q) <= 0.05 / q
    dev_c = [abs(zc[m + 1] / zc[m] - 1 / q) * q for m in range(3)]
    assert dev_c[2] <= 0.05
    assert dev_c[0] > dev_c[1] > dev_c[2]
    _announce(6, f"w1 = {rep.value:.6f} respects the bound with residual "
                 f"{rep.residual:.1e}; eight zeros interlace; ratio {ratio_s:.3f} "
                 f"within 5% of 1/q = {1/q} and the companion deviations fall "
                 f"{dev_c[0]:.3f} > {dev_c[1]:.3f} > {dev_c[2]:.3f}")


def test_criterion_7_difference_solver():
    q = Fraction(1, 4)
    d = guichard.DeltaSeq.alsalam_half(Fraction(4), 36)
    f = [q ** (n * n) for n in range(31)]
    g = guichard.solve_difference(f, d)
    assert guichard.verify_solution(f, g, d) is None
    for p in (Fraction(1, 4), Fraction(4)):
        for maker in (guichard.DeltaSeq.ones, guichard.DeltaSeq.alsalam_half):
            guichard.bp_polynomials(maker(p, 14), 10)  # verifies ladder + jump
    import random

    rng = random.Random(2024)
    for seed in range(10):
        p = Fraction(4)
        dd = guichard.DeltaSeq.alsalam_half(p, 10)
        polys = guichard.bp_polynomials(dd, 6, verify=False)
        phi = [tuple((c - poly[0]) if i == 0 else c for i, c in enumerate(poly)) for poly in polys]
        fr = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
        recon = [Fraction(0)] * 5
        recon[0] += fr[0]
        deriv = tuple(fr)
        for k in range(1, 5):
            coef = (guichard.dotplus_translate(deriv, dd)[0] - deriv[0]) / q_factorial(k, p)
            for i, c in enumerate(phi[k]):
                recon[i] += coef * c
            deriv = guichard.p_derivative(deriv, p)
        assert tuple(recon) == tuple(fr), seed
    _announce(7, "solver exact through order 30; ladder and jump exact to "
                 "n = 10 on both presets; 10 random quartic reconstructions exact")


def test_criterion_8_growth_bound():
    rep = guichard.growth_bound_check(Fraction(1, 4), 20)
    assert rep.sup < float("inf")
    assert rep.argmax <= 6
    rep2 = guichard.growth_bound_check(Fraction(1, 4), 40, xi1=rep.xi1)
    assert rep2.sup <= rep.sup * 1.01
    _announce(8, f"r_n bounded with sup {rep.sup:.4f} at n = {rep.argmax}; "
                 f"doubling the range moves the sup by "
                 f"{abs(rep2.sup - rep.sup) / rep.sup * 100:.2f}%")
