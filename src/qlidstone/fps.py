"""Truncated formal power series with exact rational coefficients.

A coefficient is a Fraction (an int is promoted); anything else raises
``TypeError``.  Binary operations truncate to the shorter order.  A divisor has
a nonzero constant term; generating functions with a removable zero at the
origin must be pre-cancelled by the caller.  A series of polynomials is never
built: each is E(x; w) times a scalar series, held as that series of rho
coordinates (see ``qpolys``).

The module also provides the expansions used as building blocks everywhere:
infinite-product factors (c * w**j; base)_inf via Euler's q-exponential sum,
which gives the truncated coefficients exactly, unlike any finite partial
product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qcore import _dot


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"a series coefficient is an int or a Fraction, not {type(c).__name__}")


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
        return Series([_dot(zip(self.coeffs[:k + 1], other.coeffs[k::-1])) for k in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, other: "Series") -> "Series":
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("divisor has zero constant term; cancel the shared w power first")
        n = min(self.order, other.order)
        inv = Fraction(1) / b0
        out = []
        for k in range(n):
            acc = self.coeffs[k]
            if k:
                acc = acc - _dot(zip(out, other.coeffs[k:0:-1]))
            out.append(acc * inv)
        return Series(out)


def pochhammer_series(coeff: Fraction, power: int, base: Fraction, order: int) -> Series:
    """Power series of (coeff * w**power; base)_inf, exact, for |base| < 1.

    Term m of Euler's sum lands on w**(m*power) with value
    (-1)**m base**(m(m-1)/2) coeff**m / (base; base)_m, term m - 1 times the one Fraction
    -cn bn**(m-1) bd / (cd (bd**m - bn**m)), with coeff = cn/cd and base = bn/bd.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    cn, cd = Fraction(coeff).as_integer_ratio()
    bn, bd = Fraction(base).as_integer_ratio()
    if not abs(bn) < bd:
        raise ValueError("|base| must be < 1")
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    c, num, bm, dm = out[0], -cn * bd, 1, 1  # num = -cn bn**(m-1) bd, bm = bn**m, dm = bd**m
    for m in range(1, (order - 1) // power + 1):
        bm, dm = bm * bn, dm * bd
        c *= Fraction(num, cd * (dm - bm))
        num *= bn
        out[m * power] = c
    return Series(out)
