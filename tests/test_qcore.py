from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlidstone.qcore import (
    QContext,
    q_binomial,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
    safe_float,
)

rationals_01 = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10))


def test_context_derived_constants():
    ctx = QContext(Fraction(1, 2))
    assert ctx.q == Fraction(1, 16)
    assert ctx.sqrt_q == Fraction(1, 4)
    assert ctx.eta == Fraction(5, 4)
    assert ctx.gamma == Fraction(15, 64)
    assert ctx.aw_scale == Fraction(16, 15)
    assert ctx.eta > 1 and ctx.gamma > 0


def test_context_fourth_root_roundtrip():
    ctx = QContext(Fraction(3, 5))
    assert QContext.from_q(ctx.q).s == ctx.s
    for s in (Fraction(1, 10 ** 40 + 7), Fraction(3 ** 80 - 1, 3 ** 80), Fraction(1, 10 ** 100)):
        assert QContext.from_q(s ** 4).s == s
    with pytest.raises(ValueError):
        QContext.from_q(Fraction(1, 5))
    with pytest.raises(ValueError):
        QContext.from_q(Fraction(1, 10 ** 401))
    with pytest.raises(ValueError):
        QContext(Fraction(3, 2))


def test_q_number_basics():
    q = Fraction(1, 16)
    assert q_number(0, q) == 0
    assert q_number(1, q) == 1
    assert q_number(3, Fraction(1, 16)) == Fraction(273, 256)
    assert q_number(4, 1) == 4


def test_q_factorial():
    assert q_factorial(0, Fraction(1, 2)) == 1
    q = Fraction(1, 4)
    assert q_factorial(2, q) == 1 + q
    assert q_factorial(3, Fraction(1, 16)) == Fraction(17, 16) * Fraction(273, 256)


def test_q_pochhammer_small():
    a, q = Fraction(1, 3), Fraction(1, 2)
    assert q_pochhammer(a, q, 0) == 1
    assert q_pochhammer(a, q, 2) == (1 - a) * (1 - a * q)
    assert q_pochhammer(-1, Fraction(1, 4), 2) == Fraction(5, 2)


def test_q_binomial_values():
    assert q_binomial(5, 0, Fraction(1, 3)) == 1
    q = Fraction(1, 2)
    assert q_binomial(2, 1, q) == 1 + q
    assert q_binomial(4, 2, Fraction(1, 2)) == Fraction(35, 16)
    with pytest.raises(ValueError):
        q_binomial(3, 4, q)


def _gauss_binomial_recursive(n, k, base):
    # independent Pascal-style oracle
    if k in (0, n):
        return Fraction(1)
    return _gauss_binomial_recursive(n - 1, k - 1, base) + base ** k * _gauss_binomial_recursive(n - 1, k, base)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.data(), rationals_01)
def test_gaussian_pascal_rule(n, data, base):
    k = data.draw(st.integers(1, n))
    lhs = q_binomial(n, k, base)
    upper = q_binomial(n - 1, k, base) if k <= n - 1 else Fraction(0)
    rhs = q_binomial(n - 1, k - 1, base) + base ** k * upper
    assert lhs == rhs
    assert lhs == _gauss_binomial_recursive(n, k, base)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), rationals_01, rationals_01)
def test_pochhammer_splitting(m, n, a, base):
    whole = q_pochhammer(a, base, m + n)
    split = q_pochhammer(a, base, m) * q_pochhammer(a * base ** m, base, n)
    assert whole == split


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), rationals_01)
def test_q_number_reciprocal_base(n, p):
    assert q_number(n, 1 / p) == p ** (1 - n) * q_number(n, p)


def test_pochhammer_inf_trivial_and_oracle():
    assert q_pochhammer_inf(0.0, 0.5)[0] == 1.0
    value, n = q_pochhammer_inf(0.5, 0.5, 1e-12)
    direct = 1.0
    for k in range(60):
        direct *= 1.0 - 0.5 * 0.5 ** k
    assert abs(value - direct) < 1e-12
    v_neg, _ = q_pochhammer_inf(-1.0, 0.5, 1e-14)
    assert v_neg > 1
    v_neg2, _ = q_pochhammer_inf(-1.0, 0.5, 1e-12)
    # the tail bound controls the log of the product, so stability under
    # refinement is relative
    assert abs(v_neg - v_neg2) < 1e-12 * v_neg


def test_pochhammer_inf_pole():
    with pytest.raises(ZeroDivisionError):
        q_pochhammer_inf(1.0, 0.5)


def test_safe_float_extremes():
    assert safe_float(Fraction(1, 3)) == pytest.approx(1 / 3)
    huge = Fraction(10) ** 400
    assert safe_float(huge) == float("inf")
    assert safe_float(1 / huge) == 0.0
    assert safe_float(-huge) == float("-inf")
    mixed = Fraction(10 ** 400 + 1, 10 ** 400)
    assert safe_float(mixed) == pytest.approx(1.0)
