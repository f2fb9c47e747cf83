import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (eq_exponential_series, eta_exponential_series, pochhammer_series_fraction, psi_weight, scale_arg,
                     shift_down)
from qlidstone.qcore import QContext, psi_weights
from qlidstone import fps
from qlidstone.fps import Series, pochhammer_series
from qlidstone.symlaurent import SymPoly, eval_at, special_poly

fracs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4))
series8 = st.lists(fracs, min_size=8, max_size=8).map(Series)


def geometric(order):
    return Series([Fraction(1)] * order)


def test_mul_simple():
    one_plus = Series([1, 1, 0, 0])
    one_minus = Series([1, -1, 0, 0])
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)


def test_add_zero_identity():
    a = Series([1, 2, 3])
    assert (a + Series.zero(3)) == a


@settings(max_examples=40, deadline=None)
@given(series8, series8)
def test_cauchy_product_oracle(a, b):
    prod = a * b
    for n in range(8):
        conv = sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
        assert prod[n] == conv


def test_div_geometric():
    one = Series.one(10)
    denom = Series([1, -1] + [0] * 8)
    assert (one / denom) == geometric(10)


def test_div_requires_unit():
    with pytest.raises(ZeroDivisionError):
        Series([1, 2, 3]) / Series([0, 1, 1])


def test_div_cancelled_constant():
    # the L'Hopital-style convention: cancel w by hand, then the constant
    # term of the quotient is 1 / (leading denominator coefficient)
    denom_over_w = Series([2, 0, 5])
    q = Series.one(3) / denom_over_w
    assert q[0] == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(series8, series8)
def test_multiply_then_divide_roundtrip(a, b):
    if b[0] == 0:
        b = Series((Fraction(1),) + b.coeffs[1:])
    assert ((a * b) / b) == a
    assert ((a / b) * b) == a


def test_shift_down_requires_zero_constant():
    with pytest.raises(ValueError):
        shift_down(Series([1, 2]))
    assert shift_down(Series([0, 5, 7])) == Series([5, 7])


def test_scale_arg():
    a = Series([1, 1, 1, 1])
    assert scale_arg(a, 1) == a
    assert scale_arg(a, -1).coeffs == (1, -1, 1, -1)
    g = Fraction(15, 64)
    assert scale_arg(scale_arg(a, g), 1 / g) == a


def test_euler_factor_functional_equation():
    # (sign*w; b)_inf = (1 - sign*w) * [same at b*w] -- the recurrence that
    # pins the coefficients, checked as an identity on truncated series
    for sign in (1, -1):
        for b in (Fraction(1, 4), Fraction(2, 3)):
            f = pochhammer_series(sign, 1, b, 12)
            shifted = scale_arg(f, b)
            factor = Series([Fraction(1), Fraction(-sign)] + [Fraction(0)] * 10)
            assert f == factor * shifted
            assert f[0] == 1


def test_euler_factor_difference_is_odd():
    p = Fraction(1, 4)
    diff = pochhammer_series(-1, 1, p, 10) - pochhammer_series(1, 1, p, 10)
    assert diff.coeffs[0::2] == (0,) * 5


def test_euler_factor_leading_terms():
    p = Fraction(1, 4)
    f = pochhammer_series(1, 1, p, 4)
    assert f[1] == Fraction(-1) / (1 - p)
    assert f[2] == p / ((1 - p) * (1 - p * p))


def test_pochhammer_series_even_powers():
    q = Fraction(1, 16)
    f = pochhammer_series(q, 2, q * q, 7)
    assert f[0] == 1 and f[1] == 0 and f[3] == 0
    assert f[2] == -q / (1 - q * q)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=40), st.integers(1, 3),
       st.fractions(min_value=-1, max_value=1, max_denominator=40).filter(lambda b: abs(b) < 1), st.integers(0, 26))
@example(Fraction(-1), 1, Fraction(0), 26)
@example(Fraction(0), 2, Fraction(1, 2), 26)
@example(Fraction(1, 81), 2, Fraction(1, 6561), 26)  # (q w**2; q**2)_inf at s = 1/3
def test_pochhammer_series_matches_the_fraction_chain(coeff, power, base, order):
    got = pochhammer_series(coeff, power, base, order)
    assert repr(got) == repr(pochhammer_series_fraction(coeff, power, base, order))


def test_eq_exponential_low_coeffs(ctx_half):
    ctx = ctx_half
    e = eq_exponential_series(ctx, 12)
    assert e[0] == SymPoly.const(1)
    expect1 = special_poly(ctx, "rho", 1) * (ctx.s / (1 - ctx.q))
    assert e[1] == expect1


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(13, 27), Fraction(24, 25)])
def test_eq_exponential_series_is_rho_times_psi(s):
    ctx = QContext(s)
    want = tuple(special_poly(ctx, "rho", n) * psi for n, psi in enumerate(psi_weights(ctx, 20)))
    for order in range(1, 21):
        assert eq_exponential_series(ctx, order).coeffs == want[:order], order


def test_eq_exponential_at_zero_is_one(ctx):
    e = eq_exponential_series(ctx, 11)
    assert eval_at(ctx, e[0], "zero") == 1
    for n in range(1, 11):
        assert eval_at(ctx, e[n], "zero") == 0


def test_eta_product_identity(ctx):
    # coefficients at the eta node match (-w; sqrt q)_inf / (q w^2; q^2)_inf
    e = eq_exponential_series(ctx, 11)
    direct = eta_exponential_series(ctx, 11)
    for n in range(11):
        assert eval_at(ctx, e[n], "eta") == direct[n]


def test_hermite_generating_identity(ctx):
    q = ctx.q
    pref = pochhammer_series(q, 2, q * q, 11)
    lhs = eq_exponential_series(ctx, 11) * pref
    for n in range(11):
        rhs = special_poly(ctx, "hermite", n) * psi_weight(ctx, n)
        assert lhs[n] == rhs


def test_a_non_rational_coefficient_raises():
    for bad in (SymPoly.const(1), 0.5, "1"):
        with pytest.raises(TypeError):
            Series([1, bad])
        with pytest.raises(TypeError):
            Series([1, 2]) * bad


def test_fps_imports_nothing_from_symlaurent():
    tree = ast.parse(Path(fps.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None) or ""} | {alias.name for alias in node.names}
    assert not any("symlaurent" in name for name in names), names
    assert not [v for v in vars(fps).values() if getattr(v, "__module__", None) == "qlidstone.symlaurent"]
