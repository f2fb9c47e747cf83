"""Truncated formal power series with exact coefficients.

Coefficients are Fractions or SymPolys (mixed operands promote via the
SymPoly arithmetic).  Binary operations truncate to the shorter order, and
division requires an invertible constant term; generating functions with a
removable zero at the origin must be pre-cancelled by the caller.

The module also provides the expansions used as building blocks everywhere:
infinite-product factors (c * w**j; base)_inf via Euler's q-exponential sum
(which gives the truncated coefficients exactly, unlike any finite partial
product), and the q-exponential series whose coefficients are rho-basis
polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .qcore import QContext, q_pochhammer
from .symlaurent import SymPoly, _coerce, special_poly


class Series:
    """Truncated power series a_0 + a_1 w + ... + a_{N-1} w**(N-1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        object.__setattr__(self, "coeffs", tuple(_coerce(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([Fraction(1)] + [Fraction(0)] * (order - 1))

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[:order])

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Series):
            other = _coerce(other)
            return Series([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = []
        for k in range(n):
            acc = None
            for i in range(k + 1):
                a = self.coeffs[i]
                b = other.coeffs[k - i]
                if a == 0 or b == 0:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            out.append(Fraction(0) if acc is None else acc)
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return self * (Fraction(1) / _coerce(other))
        b0 = other.coeffs[0]
        if isinstance(b0, SymPoly):
            if not b0.is_constant():
                raise ZeroDivisionError("divisor constant term is a non-constant polynomial")
            b0 = b0.constant_value()
        if b0 == 0:
            raise ZeroDivisionError("divisor has zero constant term; cancel the shared w power first")
        n = min(self.order, other.order)
        inv = Fraction(1) / b0
        out = []
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(k):
                b = other.coeffs[k - j]
                if b == 0 or out[j] == 0:
                    continue
                acc = acc - out[j] * b
            out.append(acc * inv)
        return Series(out)

    def shift_down(self) -> "Series":
        """Divide by w; the constant term must vanish."""
        if self.coeffs[0] != 0:
            raise ValueError("constant term is nonzero, cannot cancel w")
        return Series(self.coeffs[1:])


def parity_part(a: Series, which: str) -> Series:
    """Zero out the coefficients of the complementary parity."""
    if which not in ("even", "odd"):
        raise ValueError("which must be 'even' or 'odd'")
    keep = 0 if which == "even" else 1
    return Series([c if k % 2 == keep else 0 * c for k, c in enumerate(a.coeffs)])


def scale_arg(a: Series, c) -> Series:
    """w -> c*w, i.e. a_k -> c**k a_k."""
    c = _coerce(c)
    out = []
    p = Fraction(1)
    for coeff in a.coeffs:
        out.append(coeff * p)
        p *= c
    return Series(out)


def euler_factor_series(sign: int, base: Fraction, order: int) -> Series:
    """Power series of (sign*w; base)_inf, exact through the given order.

    Coefficient of w**n is (-sign)**n base**(n(n-1)/2) / (base; base)_n,
    the solution of F(w) = (1 - sign*w) F(base*w) with F(0) = 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    base = Fraction(base)
    if not abs(base) < 1:
        raise ValueError("|base| must be < 1")
    out = [Fraction(1)]
    c = Fraction(1)
    bpow = Fraction(1)  # base**(n-1) at step n
    for n in range(1, order):
        c = c * (-sign) * bpow / (1 - base ** n)
        bpow *= base
        out.append(c)
    return Series(out)


def pochhammer_series(coeff: Fraction, power: int, base: Fraction, order: int) -> Series:
    """Power series of (coeff * w**power; base)_inf, exact.

    Term m of Euler's sum lands on w**(m*power) with value
    (-1)**m base**(m(m-1)/2) coeff**m / (base; base)_m.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    coeff = Fraction(coeff)
    base = Fraction(base)
    out = [Fraction(0)] * order
    out[0] = Fraction(1)
    c = Fraction(1)
    bpow = Fraction(1)
    m = 1
    while m * power < order:
        c = c * (-1) * bpow * coeff / (1 - base ** m)
        bpow *= base
        out[m * power] = c
        m += 1
    return Series(out)


@lru_cache(maxsize=None)
def eq_exponential_series(ctx: QContext, order: int) -> Series:
    """The q-exponential as a series in w with rho-polynomial coefficients:
    coefficient n is q**(n**2/4)/(q;q)_n * rho_n(x)."""
    return Series([special_poly(ctx, "rho", n) * psi_weight(ctx, n) for n in range(order)])


def psi_weight(ctx: QContext, n: int) -> Fraction:
    """The coefficient q**(n**2/4)/(q;q)_n multiplying rho_n in the
    q-exponential series."""
    return ctx.s ** (n * n) / q_pochhammer(ctx.q, ctx.q, n)
