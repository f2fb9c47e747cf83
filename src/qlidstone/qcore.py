"""Exact scalar arithmetic for basic q-series work.

Everything downstream is parameterized by a rational number ``s`` in (0, 1)
playing the role of the fourth root of the base ``q``.  Keeping ``s``
rational makes every derived constant -- q = s**4, sqrt(q) = s**2, the
two-point node eta = (s + 1/s)/2, and the derivative scale factors -- an
exact :class:`fractions.Fraction`, so polynomial identities can be checked
bit for bit instead of to a tolerance.

Floating point enters only through :func:`q_pochhammer_inf`, which
truncates an infinite product under an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

Rational = Union[Fraction, int]


class IntegrityError(RuntimeError):
    """Two supposedly equivalent construction routes disagreed, or a
    construction-time verification failed."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class QContext:
    """The base parameter ``s`` = q**(1/4); all other constants are derived
    from it exactly.  Caches keyed on a context are therefore keyed on s.
    """

    s: Fraction

    def __post_init__(self):
        s = _as_fraction(self.s)
        if not (0 < s < 1):
            raise ValueError(f"s must lie in (0, 1), got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def from_q(cls, q: Fraction) -> "QContext":
        """Build a context from q itself; q must be a rational fourth power."""
        q = _as_fraction(q)
        if not (0 < q < 1):
            raise ValueError(f"q must lie in (0, 1), got {q}")
        num = _iroot4(q.numerator)
        den = _iroot4(q.denominator)
        if num is None or den is None:
            raise ValueError(f"q = {q} is not the fourth power of a rational")
        return cls(Fraction(num, den))

    @property
    def q(self) -> Fraction:
        return self.s ** 4

    @property
    def sqrt_q(self) -> Fraction:
        return self.s ** 2

    @property
    def eta(self) -> Fraction:
        """The second interpolation node, (q**(1/4) + q**(-1/4))/2."""
        return (self.s + 1 / self.s) / 2

    @property
    def gamma(self) -> Fraction:
        """The scale q**(1/4)(1-q)/2 appearing in the generating functions."""
        return self.s * (1 - self.s ** 4) / 2

    @property
    def aw_scale(self) -> Fraction:
        """Eigenvalue scale 2q**(1/4)/(1-q) of the divided-difference ladder."""
        return 2 * self.s / (1 - self.s ** 4)


def _iroot4(n: int):
    """Exact integer fourth root of n, or None if n is not a fourth power."""
    if n < 0:
        return None
    r = math.isqrt(math.isqrt(n))
    return r if r ** 4 == n else None


def q_number(n: int, base: Rational) -> Fraction:
    """[n] = (1 - base**n)/(1 - base); equals n when base is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = _as_fraction(base)
    if base == 1:
        return Fraction(n)
    return (1 - base ** n) / (1 - base)


def q_factorial(n: int, base: Rational) -> Fraction:
    """[n]! = [1][2]...[n]; the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_number(k, base)
    return out


def q_pochhammer(a: Rational, base: Rational, n: int) -> Fraction:
    """(a; base)_n = prod_{k=0}^{n-1} (1 - a*base**k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = _as_fraction(a)
    base = _as_fraction(base)
    out = Fraction(1)
    p = Fraction(1)
    for _ in range(n):
        out *= 1 - a * p
        p *= base
    return out


def q_binomial(n: int, k: int, base: Rational) -> Fraction:
    """Gaussian binomial [n choose k] at the given base."""
    if not (0 <= k <= n):
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return q_factorial(n, base) / (q_factorial(k, base) * q_factorial(n - k, base))


def q_pochhammer_inf(a: float, base: float, tol: float = 1e-12) -> Tuple[float, int]:
    """Truncated infinite product (a; base)_inf with a certified tail bound.

    Returns ``(value, n_factors)`` where ``n_factors`` is chosen so that the
    logarithmic tail sum_{k>=N} |a| base**k / (1 - |a| base**k) stays below
    ``tol``.  Raises ZeroDivisionError if some factor vanishes (a pole of
    the reciprocal product).
    """
    if not abs(base) < 1:
        raise ValueError(f"|base| must be < 1, got {base}")
    if a == 0.0:
        return 1.0, 0
    absa = abs(a)
    n = 1
    # Tail bound: sum_{k>=n} |a| b**k / (1 - |a| b**k) <= |a| b**n / ((1-b)(1 - |a| b**n))
    # valid once |a| base**n < 1.
    b = abs(base)
    while True:
        head = absa * b ** n
        if head < 1 and head / ((1 - b) * (1 - head)) < tol:
            break
        n += 1
        if n > 100_000:
            raise RuntimeError("tail bound did not converge")
    value = 1.0
    p = 1.0
    for _ in range(n):
        factor = 1.0 - a * p
        if factor == 0.0:
            raise ZeroDivisionError(f"(a; base)_inf has a vanishing factor, a={a}, base={base}")
        value *= factor
        p *= base
    return value, n


def safe_float(x) -> float:
    """Fraction/int/float to float without the OverflowError that plain
    float() raises when numerator or denominator exceed the float range;
    out-of-range magnitudes saturate to +-inf / 0.0."""
    if isinstance(x, float):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        return 0.0
    try:
        return n / d
    except OverflowError:
        pass
    sign = 1.0
    if n < 0:
        n, sign = -n, -1.0
    shift = n.bit_length() - d.bit_length() - 54
    if shift >= 0:
        mant = n // (d << shift)
    else:
        mant = (n << -shift) // d
    try:
        return sign * math.ldexp(float(mant), shift)
    except OverflowError:
        return sign * math.inf
