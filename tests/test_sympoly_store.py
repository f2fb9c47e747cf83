"""The integer store of ``SymPoly`` against the per-coefficient ``Fraction``
polynomial it replaced (``oracles.FractionSymPoly``): every operation must
give the same coefficients, and every result must be in canonical form."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    FractionSymPoly,
    fraction_aw_derivative,
    fraction_change_basis,
    fraction_eval_at,
    fraction_special_poly,
)
from qlidstone.qcore import QContext, psi_weights
from qlidstone.symlaurent import (
    SymPoly,
    aw_derivative,
    change_basis,
    eval_at,
    lincomb,
    psi_rho_sum,
    special_poly,
)

# wide denominators and trailing zeros, so the common denominator and the trimming both work
fracs = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10 ** 6))
coeff_lists = st.lists(fracs, min_size=0, max_size=9)
nonzero = fracs.filter(lambda c: c != 0)
bases = st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(9, 10)])
points = st.one_of(st.sampled_from(["zero", "eta", "minus_eta"]),
                   st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=1000),
                   st.integers(-3, 3))


def canonical(p):
    """Assert the store invariant and return p."""
    assert isinstance(p, SymPoly)
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert len(p.nums) >= 1
    assert len(p.nums) == 1 or p.nums[-1] != 0
    return p


def same(p, oracle):
    canonical(p)
    assert p.coeffs == oracle.coeffs


def test_zero_store():
    for z in (SymPoly.zero(), SymPoly([]), SymPoly([0, 0]), SymPoly([Fraction(1, 3)]) - Fraction(1, 3),
              SymPoly([1, 2]) * 0, SymPoly([Fraction(2, 7), 1]) * SymPoly.zero()):
        assert (z.nums, z.den) == ((0,), 1)
        assert z.is_zero() and not z


def test_equality_and_hash_are_on_the_integers():
    p = SymPoly([Fraction(1, 6), Fraction(-1, 4), 0])
    assert (p.nums, p.den) == ((2, -3), 12)
    q = SymPoly([Fraction(2, 12), Fraction(-3, 12)])
    assert p == q and hash(p) == hash(q)
    assert SymPoly([Fraction(3, 7)]) == Fraction(3, 7) and SymPoly([5]) == 5
    assert SymPoly([Fraction(3, 7)]) != Fraction(3, 8) and p != 0


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists, nonzero)
def test_arithmetic_matches_fraction_oracle(a, b, c):
    pa, pb = SymPoly(a), SymPoly(b)
    fa, fb = FractionSymPoly(a), FractionSymPoly(b)
    same(pa, fa)
    same(pa + pb, fa + fb)
    same(pa - pb, fa - fb)
    same(-pa, -fa)
    same(pa + c, fa + c)
    same(c + pa, c + fa)
    same(pa - c, fa - c)
    same(c - pa, c - fa)
    same(pa * c, fa * c)
    same(c * pa, c * fa)
    same(pa * c.numerator, fa * c.numerator)
    same(pa / c, fa / c)
    same(pa / c.numerator, fa / c.numerator)
    same(pa * pb, fa * fb)
    same(pa * pa, fa * fa)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_reflect_and_monomial_form_match_fraction_oracle(a):
    pa, fa = SymPoly(a), FractionSymPoly(a)
    same(pa.reflect(), fa.reflect())
    assert pa.to_monomial() == fa.to_monomial()
    assert all(type(c) is Fraction for c in pa.to_monomial())
    same(SymPoly.from_monomial(a), FractionSymPoly.from_monomial(a))


@settings(max_examples=60, deadline=None)
@given(bases, coeff_lists, st.integers(1, 3))
def test_aw_derivative_matches_fraction_oracle(s, a, k):
    ctx = QContext(s)
    want = FractionSymPoly(a)
    for _ in range(k):
        want = fraction_aw_derivative(ctx, want)
    same(aw_derivative(ctx, SymPoly(a), k), want)


@settings(max_examples=60, deadline=None)
@given(bases, coeff_lists)
def test_change_basis_matches_fraction_oracle(s, a):
    ctx = QContext(s)
    got = change_basis(ctx, SymPoly(a))
    assert got == fraction_change_basis(ctx, FractionSymPoly(a), "rho")
    assert all(type(c) is Fraction for c in got)
    assert SymPoly(a).to_monomial() == fraction_change_basis(ctx, FractionSymPoly(a), "monomial")
    want = FractionSymPoly.zero()
    for n, c in enumerate(a):
        want = want + fraction_special_poly(ctx, "rho", n) * c
    same(psi_rho_sum(ctx, [c / psi for c, psi in zip(a, psi_weights(ctx, len(a)))]), want)


@settings(max_examples=80, deadline=None)
@given(bases, coeff_lists, points)
def test_eval_at_matches_fraction_oracle(s, a, pt):
    ctx = QContext(s)
    got = eval_at(ctx, SymPoly(a), pt)
    assert type(got) is Fraction
    assert got == fraction_eval_at(ctx, FractionSymPoly(a), pt)


@pytest.mark.parametrize("family", ["monomial", "rho", "hermite", "phi"])
def test_family_members_match_fraction_oracle(family):
    ctx = QContext(Fraction(17, 29))
    a = Fraction(-5, 7) if family == "phi" else None
    for n in range(16):
        same(special_poly(ctx, family, n, a), fraction_special_poly(ctx, family, n, a))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(coeff_lists, fracs), max_size=5))
def test_lincomb_matches_repeated_addition(pairs):
    want = FractionSymPoly.zero()
    for a, c in pairs:
        want = want + FractionSymPoly(a) * c
    same(lincomb((SymPoly(a), c) for a, c in pairs), want)
