import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (dot_fraction, pochhammer_inf_factors_linear, pochhammer_tail_ok, psi_weight, q_binomial,
                     q_factorial, q_factorials_fraction, q_pochhammer, q_pochhammers_fraction, safe_float_mantissa,
                     translate_coeffs_fraction)
from qlidstone.qcore import (
    LimitError,
    QContext,
    _dot,
    _psi_rho_steps,
    psi_weights,
    q_factorials,
    q_number,
    q_pochhammer_inf,
    q_pochhammers,
    safe_float,
    translate_coeffs,
)

rationals_01 = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10))


def test_context_derived_constants():
    ctx = QContext(Fraction(1, 2))
    assert ctx.q == Fraction(1, 16)
    assert ctx.sqrt_q == Fraction(1, 4)
    assert ctx.eta == Fraction(5, 4)
    assert ctx.aw_scale == Fraction(16, 15)
    assert ctx.eta > 1


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


@pytest.mark.parametrize("base", [Fraction(1, 2), 3, Fraction(3, 2), 1, Fraction(-1, 3)])
def test_q_factorials_match_closed_form(base):
    full = q_factorials(30, base)
    assert full == [q_factorial(k, base) for k in range(31)]
    for n in range(30):
        assert q_factorials(n, base) == full[:n + 1]
    if base == 1:
        assert full == [math.factorial(k) for k in range(31)]
    with pytest.raises(ValueError):
        q_factorials(-1, base)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=40)  # negative, zero and |x| > 1 included


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, st.integers(0, 25))
@example(Fraction(1, 3), Fraction(1), 25)  # base 1
@example(Fraction(-1), Fraction(0), 25)
@example(Fraction(7, 2), Fraction(-9, 4), 25)  # guichard's p > 1, negated
@example(Fraction(2, 3), Fraction(3, 2), 25)  # a factor with a common divisor to cancel
def test_q_pochhammers_match_the_fraction_chain(a, base, n):
    assert repr(q_pochhammers(a, base, n)) == repr(q_pochhammers_fraction(a, base, n))


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(0, 25))
@example(Fraction(1), 25)
@example(Fraction(-1), 25)  # [2] = 0
@example(Fraction(0), 25)
@example(Fraction(3), 25)
def test_q_factorials_match_the_fraction_chain(base, n):
    assert repr(q_factorials(n, base)) == repr(q_factorials_fraction(n, base))


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


@pytest.mark.parametrize("base", [0.0, 0.1, -0.5, 0.9, -0.99, 0.999])
def test_pochhammer_inf_factor_count_matches_linear_search(base):
    for a in (-3.7, -0.45, 1e-9, 0.3, 0.77, 2.6, 1234.5):
        for tol in (0.5, 1e-6, 1e-12, 1e-15, 1e-300):
            want = pochhammer_inf_factors_linear(a, base, tol)
            try:
                _, n = q_pochhammer_inf(a, base, tol)
            except LimitError:
                n = None
            if want is not None:
                assert n == want, (a, base, tol)
            elif n is not None:  # past the linear search's reach: still the least count
                assert n > 100_000
                assert pochhammer_tail_ok(a, base, tol, n) and not pochhammer_tail_ok(a, base, tol, n - 1)


def test_pochhammer_inf_gives_up_past_its_factor_cap():
    with pytest.raises(LimitError, match="tail bound did not converge"):
        q_pochhammer_inf(0.5, 0.99999, 1e-300)
    with pytest.raises(LimitError, match="tail bound did not converge"):
        q_pochhammer_inf(0.5, 0.5, 0.0)
    # the message names the product, its a and base, and the cap
    with pytest.raises(LimitError) as err:
        q_pochhammer_inf(-0.25, 0.99999, 1e-300)
    assert str(err.value) == ("tail bound did not converge: (a; base)_inf at a = -0.25, base = 0.99999 "
                              "needs more than 1000000 factors")


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(1, 17), Fraction(20, 21)])
def test_psi_rho_steps_match_the_closed_form(s):
    # psi_j rho_j = psi_{j-2} rho_{j-2} (A_j + B_j x**2) / E_j with, as Fractions,
    # A_j/E_j = q (1-q**(j-2))**2 / ((1-q**j)(1-q**(j-1))) and B_j/E_j = 4 q**(j-1) / ((1-q**j)(1-q**(j-1)))
    q = s ** 4
    for j, (A, B, E) in zip(range(2, 41), _psi_rho_steps(s)):
        den = (1 - q ** j) * (1 - q ** (j - 1))
        assert Fraction(A, E) == q * (1 - q ** (j - 2)) ** 2 / den, j
        assert Fraction(B, E) == 4 * q ** (j - 1) / den, j


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(9, 10), Fraction(1, 31)])
def test_psi_weights_match_psi_weight(s):
    # the table at s grows as longer prefixes are asked for; every prefix is exact
    ctx = QContext(s)
    want = [psi_weight(ctx, n) for n in range(41)]
    for n in (0, 7, 3, 41, 20, 1):
        assert psi_weights(ctx, n) == want[:n]


def test_psi_weights_returns_a_copy():
    ctx = QContext(Fraction(7, 11))
    table = psi_weights(ctx, 6)
    want = list(table)
    table[0] = Fraction(99)
    table.append(Fraction(1))
    assert psi_weights(ctx, 6) == want


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=60)
maybe_zero = st.one_of(st.just(Fraction(0)), fracs)


big = st.integers(-(2 ** 300), 2 ** 300)
dot_values = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-9, 9), fracs, big,
                       st.builds(Fraction, big, big.filter(bool)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(dot_values, dot_values), max_size=12))
@example([])
@example([(0, Fraction(3, 7)), (Fraction(0), 5), (0, 0)])
@example([(Fraction(1, 3), 3), (-1, 1)])  # products that cancel
@example([(2 ** 300, Fraction(-1, 3 ** 200)), (Fraction(5, 2 ** 400), 7 ** 150)])
def test_dot_matches_fraction_oracle(pairs):
    got = _dot(iter(pairs))
    assert type(got) is Fraction and got == dot_fraction(pairs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translate_coeffs_matches_fraction_oracle(data):
    n = data.draw(st.integers(0, 9), label="n")
    extra = data.draw(st.integers(0, 3), label="extra weights")
    c = data.draw(st.lists(maybe_zero, min_size=n, max_size=n), label="c")
    if data.draw(st.booleans(), label="guichard weights"):
        p = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(4)]), label="p")
        w = [1 / f for f in q_factorials(n + extra, p)]
    else:
        w = data.draw(st.lists(fracs.filter(bool), min_size=n + extra, max_size=n + extra), label="w")
    v = data.draw(st.lists(maybe_zero, min_size=len(w), max_size=len(w) + 2), label="v")
    assert translate_coeffs(c, w, v) == translate_coeffs_fraction(c, w, v)


def test_translate_coeffs_needs_a_value_per_coefficient():
    with pytest.raises(ValueError):
        translate_coeffs([Fraction(1)] * 4, [Fraction(1)] * 4, [Fraction(1)] * 3)


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


def test_safe_float_saturates_as_the_mantissa_fallback_did():
    # int/int division is correctly rounded, so it overflows only from 2**1024 - 2**970 on,
    # where the old 54-bit mantissa fallback also came to +-inf
    edges = [2 ** 1024 - 2 ** 970 + k for k in range(-2, 3)] + [2 ** 1024 - 2, 2 ** 1024 + 2]
    for n in edges:
        for d in (1, 3, 2 ** 61 - 1, 10 ** 300 + 7):
            for r in (-1, 0, 1):
                for x in (Fraction(n * d + r, d), -Fraction(n * d + r, d)):
                    assert safe_float(x) == safe_float_mantissa(x), x
    assert safe_float(2 ** 1024) == math.inf and safe_float(-(2 ** 1024)) == -math.inf
    rng = random.Random(20)
    for _ in range(20000):
        n = rng.getrandbits(rng.randint(1, 3000)) * rng.choice((1, -1))
        d = rng.getrandbits(rng.randint(1, 3000)) or 1
        assert safe_float(Fraction(n, d)) == safe_float_mantissa(Fraction(n, d)), (n, d)


@pytest.mark.parametrize("a,base", [(Fraction(1, 16), Fraction(1, 16)), (-1, Fraction(3, 5)),
                                    (-Fraction(29, 17) ** 2, Fraction(17, 29) ** 4), (2, Fraction(1, 3))])
def test_q_pochhammers_match_q_pochhammer(a, base):
    assert q_pochhammers(a, base, 0) == [1]
    assert q_pochhammers(a, base, 20) == [q_pochhammer(a, base, n) for n in range(21)]
    with pytest.raises(ValueError):
        q_pochhammers(a, base, -1)
