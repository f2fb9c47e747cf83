from fractions import Fraction

import pytest

from qlidstone.qcore import QContext, q_factorial, q_pochhammer
from qlidstone.lidstone import (
    DEFAULT_GRID,
    EntireFn,
    aw_boundary_data,
    bernoulli_expansion,
    counterexample_report,
    euler_expansion,
    residual_on_grid,
    rho_expand,
    trig_rho_stream,
)
from qlidstone.symlaurent import SymPoly, eval_at, special_poly


# -- streams and the growth statistic ----------------------------------------


def test_rho_expand_polynomials(ctx_half):
    ctx = ctx_half
    f = EntireFn.from_poly(ctx, special_poly(ctx, "rho", 3))
    stream, tau = rho_expand(ctx, f)
    assert stream == (0, 0, 0, 1)
    assert tau == 0.0
    f2 = EntireFn.from_poly(ctx, special_poly(ctx, "monomial", 2))
    stream2, _ = rho_expand(ctx, f2)
    assert stream2 == (0, 0, Fraction(1, 4))


def test_rho_expand_tau_of_cosine_truncation(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 40)
    _, tau = rho_expand(ctx_half, f)
    assert abs(tau - 0.3) < 0.03


# -- boundary data ---------------------------------------------------------------


def test_constant_boundary_data(ctx_half):
    f = EntireFn.from_poly(ctx_half, SymPoly.const(1))
    d0, deta = aw_boundary_data(ctx_half, f, 2, "bernoulli")
    assert d0 == (1, 0, 0) and deta == (1, 0, 0)
    od0, odeta = aw_boundary_data(ctx_half, f, 2, "euler")
    assert od0 == (0, 0, 0) and odeta == (1, 0, 0)


def _phi_even_data(ctx, n, a, K):
    # closed forms for the even-order data of phi_{2n}(.; a) at both nodes
    q, s = ctx.q, ctx.s
    d0, deta = [], []
    for k in range(K + 1):
        if k <= n:
            pref = (2 * a) ** (2 * k) * s ** (4 * k * k - 2 * k) \
                * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k, q)
            v0 = pref * q_pochhammer(-a * a * q ** (2 * k), q * q, 2 * n - 2 * k)
            veta = pref
            b = a * q ** k
            for j in range(2 * n - 2 * k):
                veta *= (1 - b * q ** j * s) * (1 - b * q ** j / s)
        else:
            v0 = veta = Fraction(0)
        d0.append(v0)
        deta.append(veta)
    return tuple(d0), tuple(deta)


def _phi_odd_data_at_zero(ctx, n, a, K):
    q, s = ctx.q, ctx.s
    out = []
    for k in range(K + 1):
        if k <= n - 1:
            pref = -(2 * a) ** (2 * k + 1) * s ** (4 * k * k + 2 * k) \
                * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k - 1, q)
            out.append(pref * q_pochhammer(-a * a * q ** (2 * k + 1), q * q, 2 * n - 2 * k - 1))
        else:
            out.append(Fraction(0))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1, 3)])
def test_phi_boundary_data_closed_forms(ctx, n, a):
    f = EntireFn.from_poly(ctx, special_poly(ctx, "phi", 2 * n, a))
    d0, deta = aw_boundary_data(ctx, f, n, "bernoulli")
    c0, ceta = _phi_even_data(ctx, n, a, n)
    assert d0 == c0
    assert deta == ceta
    od0, odeta = aw_boundary_data(ctx, f, n, "euler")
    assert od0 == _phi_odd_data_at_zero(ctx, n, a, n)
    assert odeta == ceta


def test_even_function_has_zero_odd_data(ctx_half):
    f = trig_rho_stream(ctx_half, "E_even", Fraction(1, 4), 12)
    od0, _ = aw_boundary_data(ctx_half, f, 3, "euler")
    assert all(v == 0 for v in od0)


# -- expansions -------------------------------------------------------------------


def test_bernoulli_exact_on_rho2(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "rho", 2))
    rep = bernoulli_expansion(ctx_half, f, 1)
    assert rep.exact
    assert rep.residual == 0
    assert rep.reconstruction == special_poly(ctx_half, "rho", 2)


def test_bernoulli_exact_on_phi4(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "phi", 4, Fraction(1, 2)))
    rep = bernoulli_expansion(ctx_half, f, 2)
    assert rep.residual == 0


def test_euler_exact_on_constant(ctx_half):
    f = EntireFn.from_poly(ctx_half, SymPoly.const(1))
    rep = euler_expansion(ctx_half, f, 0)
    assert rep.residual == 0
    assert rep.reconstruction == SymPoly.const(1)


def test_euler_exact_on_phi2(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "phi", 2, Fraction(1, 2)))
    rep = euler_expansion(ctx_half, f, 1)
    assert rep.residual == 0


@pytest.mark.parametrize("family,param", [("rho", None), ("monomial", None), ("phi", Fraction(1, 2))])
def test_polynomial_exactness_small(ctx, family, param):
    for n in range(5):
        p = special_poly(ctx, family, n, param)
        f = EntireFn.from_poly(ctx, p)
        K = (n + 1) // 2
        assert bernoulli_expansion(ctx, f, K).residual == 0
        assert euler_expansion(ctx, f, K).residual == 0


def test_value_at_zero_consistency(ctx_half):
    # the beta-side terms are not individually zero at x=0 but combine to f(0)
    ctx = ctx_half
    p = special_poly(ctx, "phi", 4, Fraction(1, 3))
    rep = bernoulli_expansion(ctx, EntireFn.from_poly(ctx, p), 2)
    assert eval_at(ctx, rep.reconstruction, "zero") == eval_at(ctx, p, "zero")


def test_higher_K_keeps_exactness(ctx_half):
    ctx = ctx_half
    p = special_poly(ctx, "monomial", 3)
    rep = bernoulli_expansion(ctx, EntireFn.from_poly(ctx, p), 5)
    assert rep.residual == 0


def test_undershooting_K_leaves_residual(ctx_half):
    # every undershot truncation misses the top boundary datum; the
    # residual only vanishes once K covers ceil(deg/2)
    ctx = ctx_half
    f = EntireFn.from_poly(ctx, special_poly(ctx, "monomial", 6))
    for K in range(3):
        assert bernoulli_expansion(ctx, f, K).residual != 0
    assert bernoulli_expansion(ctx, f, 3).residual == 0


def test_stream_convergence_fast(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 24)
    rep = bernoulli_expansion(ctx_half, f, 12)
    assert not rep.exact
    assert rep.residual < 1e-10
    assert rep.status == "ok"
    assert rep.cap == 1.0  # the sine-node zero exceeds one for this base


def test_residual_empty_grid_is_zero(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 12)
    rep = bernoulli_expansion(ctx_half, f, 6)
    assert residual_on_grid(ctx_half, rep.fn, rep.reconstruction, []) == 0.0


def test_residual_recompute_matches_report(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 16)
    rep = bernoulli_expansion(ctx_half, f, 8)
    assert residual_on_grid(ctx_half, rep.fn, rep.reconstruction, DEFAULT_GRID) == rep.residual


def test_growth_metadata_note(ctx_half):
    import math

    from qlidstone.lidstone import growth_condition_note

    lnq_inv = -math.log(float(ctx_half.q))
    f = EntireFn.from_stream([1, 1], growth_order=lnq_inv)
    assert "admissible" in growth_condition_note(ctx_half, f)
    f_hot = EntireFn.from_stream([1, 1], growth_order=3 * lnq_inv)
    assert "exceeds" in growth_condition_note(ctx_half, f_hot)
    f_edge = EntireFn.from_stream([1, 1], growth_order=2 * lnq_inv, growth_type=0.1)
    assert "admissible" in growth_condition_note(ctx_half, f_edge)
    assert "no declared" in growth_condition_note(ctx_half, EntireFn.from_stream([1]))


def test_counterexample_small():
    # tiny version of the inexpandability reproduction (fast base)
    ctx = QContext(Fraction(19, 20))
    rep = counterexample_report(ctx, "euler", n_terms=30, K=2)
    assert rep.max_data < 1e-10
    assert rep.function_norm > 1e-2
    assert "warning" in rep.expansion.status
