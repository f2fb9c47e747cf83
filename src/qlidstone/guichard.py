"""Generalized translation z -> z (+) 1 and the difference-equation solver.

The translation T acts on monomials through a delta sequence,
T z**n = sum_k [n choose k]_p z**(n-k) delta_k(p), and linearly on
polynomials and truncated series.  On the basis z**n / [n]_p! it is the
weighted correlation with d_k = delta_k / [k]_p! (:func:`qcore.translate_coeffs`),
and T - 1 is the same correlation with delta_0 replaced by 0.

The numbers B_k, b_k = B_k / [k]_p!, come from one series division,
sum_k b_k t**k = t / (sum_k d_k t**k - 1).  With phi_m = f_m [m]_p!,
(T - 1) g = f holds when g_k [k]_p! = sum_j phi_{k-1+j} b_j: the solver
correlates the p-antiderivative of f with the numbers, the q-form of
g = (D / (e**D - 1)) int f.  Its result is g = sum_n f_n B_{n+1}(z) / [n+1]_p
over the polynomials B_n(z) = sum_k [n choose k]_p B_{n-k} z**k, which satisfy
the jump identity T B_n - B_n = [n]_p z**(n-1) exactly.

Presets: ``ones`` (delta_k = 1) and ``alsalam_half`` (delta_k =
(-1; p)_k / 2**k).  p = 1 is allowed for the classical sanity checks; the
difference machinery itself only needs delta_1 != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence, Tuple

from .fps import Series
from .qcore import IntegrityError, LimitError, q_factorials, q_number, q_pochhammers, safe_float, translate_coeffs

ZPoly = Tuple[Fraction, ...]


class CapacityError(ValueError):
    """The delta sequence is too short for the requested degree."""


@dataclass(frozen=True)
class DeltaSeq:
    p: Fraction
    delta: Tuple[Fraction, ...]
    preset: str = "custom"

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("p must be positive")
        if not self.delta or self.delta[0] != 1:
            raise ValueError("delta_0 must be 1 (forced by T acting as identity on constants)")

    @classmethod
    def ones(cls, p: Fraction, n_max: int) -> "DeltaSeq":
        return cls(Fraction(p), tuple(Fraction(1) for _ in range(n_max + 1)), "ones")

    @classmethod
    def alsalam_half(cls, p: Fraction, n_max: int) -> "DeltaSeq":
        p = Fraction(p)
        return cls(p, tuple(c / 2 ** k for k, c in enumerate(q_pochhammers(-1, p, n_max))),
                   "alsalam_half")

    @classmethod
    def custom(cls, p: Fraction, delta: Sequence[Fraction]) -> "DeltaSeq":
        return cls(Fraction(p), tuple(Fraction(d) for d in delta), "custom")

    @property
    def capacity(self) -> int:
        return len(self.delta) - 1


def _trim(coeffs: Sequence[Fraction]) -> ZPoly:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _as_zpoly(h: Sequence) -> ZPoly:
    return tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in h) or (Fraction(0),)


def _on_basis(h: Sequence, p: Fraction, values: Sequence) -> Tuple[Fraction, ...]:
    """The weighted correlation of h with ``values`` on the basis z**n / [n]_p!,
    one output per coefficient of h."""
    return translate_coeffs(h, [1 / f for f in q_factorials(len(h) - 1, p)], values)


def _translate(h: ZPoly, d: DeltaSeq, minus_one: bool = False) -> Tuple[Fraction, ...]:
    """T h, or (T - 1) h, untrimmed: T - 1 is the correlation with delta_0 replaced by 0."""
    if len(h) - 1 > d.capacity:
        raise CapacityError(f"delta sequence holds {d.capacity + 1} terms, need {len(h)}")
    return _on_basis(h, d.p, (0,) + d.delta[1:] if minus_one else d.delta)


def dotplus_translate(h: Sequence, d: DeltaSeq) -> ZPoly:
    """T applied to the polynomial with coefficients h (constant first),
    as the weighted correlation with delta on the basis z**n / [n]_p!."""
    return _trim(_translate(_as_zpoly(h), d))


def p_derivative(h: Sequence, p: Fraction, k: int = 1) -> ZPoly:
    """The degree-lowering difference derivative z**n -> [n]_p z**(n-1),
    applied k times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    h = _as_zpoly(h)
    for _ in range(k):
        h = _trim([h[n] * q_number(n, p) for n in range(1, len(h))] or [Fraction(0)])
    return h


def bp_numbers(d: DeltaSeq, n_max: int) -> Tuple[Fraction, ...]:
    """B_0..B_{n_max}, read off b_k = B_k/[k]_p!, the coefficients of the one series
    quotient sum_k b_k t**k = 1 / sum_k d_{k+1} t**k with d_k = delta_k/[k]_p!."""
    if n_max + 1 > d.capacity:
        raise CapacityError(f"delta sequence holds {d.capacity + 1} terms, need {n_max + 2}")
    if d.delta[1] == 0:
        raise ZeroDivisionError("delta_1 = 0 makes the number recurrence singular")
    fact = q_factorials(n_max + 1, d.p)
    b = Series.one(n_max + 1) / Series([d.delta[k] / fact[k] for k in range(1, n_max + 2)])
    return tuple(c * f for c, f in zip(b.coeffs, fact))


def bp_polynomials(d: DeltaSeq, n_max: int, verify: bool = True) -> Tuple[ZPoly, ...]:
    """The jump-solving polynomials B_n(z) = sum_k [n choose k]_p B_{n-k} z**k, each the
    correlation of z**n with the numbers B_k on the basis z**n / [n]_p!.

    With ``verify`` (default) the difference ladder D_p B_n = [n]_p B_{n-1}
    and the jump identity T B_n - B_n = [n]_p z**(n-1) are checked exactly
    for every n <= n_max; a failure raises IntegrityError.
    """
    numbers = bp_numbers(d, n_max)
    p = d.p
    polys = [_trim(_on_basis((0,) * n + (1,), p, numbers)) for n in range(n_max + 1)]
    if verify:
        for n in range(1, n_max + 1):
            ladder = p_derivative(polys[n], p)
            expect = _trim([c * q_number(n, p) for c in polys[n - 1]])
            if ladder != expect:
                raise IntegrityError(f"difference ladder fails at n = {n}")
            jump = _trim(_translate(polys[n], d, minus_one=True))
            if jump != (0,) * (n - 1) + (q_number(n, p),):
                raise IntegrityError(f"jump identity fails at n = {n}")
    return tuple(polys)


def solve_difference(f: Sequence, d: DeltaSeq) -> ZPoly:
    """A polynomial g with T g - g = f: the correlation of the p-antiderivative
    (0, f_0/[1]_p, f_1/[2]_p, ...) with the numbers B_k, which is
    g = sum_n f_n B_{n+1}(z) / [n+1]_p."""
    f = _as_zpoly(f)
    antiderivative = (0,) + tuple(a / q_number(n + 1, d.p) for n, a in enumerate(f))
    return _trim(_on_basis(antiderivative, d.p, bp_numbers(d, len(f))))


def verify_solution(f: Sequence, g: Sequence, d: DeltaSeq) -> Optional[int]:
    """Index of the first coefficient where T g - g differs from f, or None
    when the functional equation holds exactly through the truncation."""
    pairs = zip_longest(_translate(_as_zpoly(g), d, minus_one=True), _as_zpoly(f), fillvalue=0)
    return next((i for i, (a, b) in enumerate(pairs) if a != b), None)


@dataclass(frozen=True)
class GrowthReport:
    q: float
    xi1: float
    n_max: int
    ratios: Tuple[float, ...]
    sup: float
    argmax: int


def growth_bound_check(q: Fraction, n_max: int, xi1: float = None) -> GrowthReport:
    """Boundedness statistic r_n = |B_n(q)/[n]_q!| (2 xi_1)**n, with xi_1
    the first positive zero of the q-sine built on E_q.  The underlying
    bound says r_n stays below a constant; empirically the sup sits at
    small n and the odd entries vanish."""
    from .qpolys import im_bernoulli_quotients
    from .qspecial import first_zero

    q = Fraction(q)
    if xi1 is None:
        xi1 = first_zero("Sinq", float(q)).value
    try:
        ratios = [abs(safe_float(b)) * (2.0 * xi1) ** n for n, b in enumerate(im_bernoulli_quotients(q, n_max))]
    except OverflowError:
        raise LimitError(f"(2 xi_1)**{n_max} at q = {float(q)!r}, xi_1 = {xi1:.6g} leaves the float range") from None
    sup = max(ratios)
    return GrowthReport(q=float(q), xi1=xi1, n_max=n_max, ratios=tuple(ratios),
                        sup=sup, argmax=ratios.index(sup))
