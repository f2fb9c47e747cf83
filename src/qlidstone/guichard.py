"""Generalized translation z -> z (+) 1 and the difference-equation solver.

The translation T acts on monomials through a delta sequence,
T z**n = sum_k [n choose k]_p z**(n-k) delta_k(p), and linearly on
polynomials and truncated series.  From the sequence one builds the numbers
B_k via the triangular system matching t * E(tz; p) = (E_delta(t) - 1) *
sum B_k t**k / [k]_p!, then the polynomials B_n(z) = sum_k [n choose k]_p
B_{n-k} z**k, which satisfy the jump identity T B_n - B_n = [n]_p z**(n-1)
exactly.  That identity makes g = sum a_n B_{n+1} / [n+1]_p an exact
solution of T g - g = f for polynomial (or truncated) f.

Presets: ``ones`` (delta_k = 1) and ``alsalam_half`` (delta_k =
(-1; p)_k / 2**k).  p = 1 is allowed for the classical sanity checks; the
difference machinery itself only needs delta_1 != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .qcore import IntegrityError, q_binomial, q_factorial, q_number, q_pochhammer, safe_float

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
        return cls(p, tuple(q_pochhammer(-1, p, k) / 2 ** k for k in range(n_max + 1)),
                   "alsalam_half")

    @classmethod
    def custom(cls, p: Fraction, delta: Sequence[Fraction]) -> "DeltaSeq":
        return cls(Fraction(p), tuple(Fraction(d) for d in delta), "custom")

    @property
    def capacity(self) -> int:
        return len(self.delta) - 1


def _trim(coeffs: List[Fraction]) -> ZPoly:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _as_zpoly(h: Sequence) -> ZPoly:
    return tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in h) or (Fraction(0),)


def dotplus_translate(h: Sequence, d: DeltaSeq) -> ZPoly:
    """T applied to the polynomial with coefficients h (constant first)."""
    h = _as_zpoly(h)
    deg = len(h) - 1
    if deg > d.capacity:
        raise CapacityError(f"delta sequence holds {d.capacity + 1} terms, need {deg + 1}")
    out = [Fraction(0)] * len(h)
    for n, a in enumerate(h):
        if a == 0:
            continue
        for k in range(n + 1):
            out[n - k] += a * q_binomial(n, k, d.p) * d.delta[k]
    return _trim(out)


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
    """B_0..B_{n_max} from the triangular system: with d_k = delta_k/[k]_p!
    and b_k = B_k/[k]_p!, b_0 = 1/d_1 and sum_{j<k} b_j d_{k-j} = 0."""
    if n_max + 1 > d.capacity:
        raise CapacityError(f"delta sequence holds {d.capacity + 1} terms, need {n_max + 2}")
    p = d.p
    dk = [d.delta[k] / q_factorial(k, p) for k in range(n_max + 2)]
    if dk[1] == 0:
        raise ZeroDivisionError("delta_1 = 0 makes the number recurrence singular")
    b = [Fraction(1) / dk[1]]
    for k in range(2, n_max + 2):
        acc = Fraction(0)
        for j in range(k - 1):
            acc += b[j] * dk[k - j]
        b.append(-acc / dk[1])
    return tuple(b[n] * q_factorial(n, p) for n in range(n_max + 1))


def bp_polynomials(d: DeltaSeq, n_max: int, verify: bool = True) -> Tuple[ZPoly, ...]:
    """The jump-solving polynomials B_n(z) = sum_k [n choose k]_p B_{n-k} z**k.

    With ``verify`` (default) the difference ladder D_p B_n = [n]_p B_{n-1}
    and the jump identity T B_n - B_n = [n]_p z**(n-1) are checked exactly
    for every n <= n_max; a failure raises IntegrityError.
    """
    numbers = bp_numbers(d, n_max)
    p = d.p
    polys = []
    for n in range(n_max + 1):
        coeffs = [q_binomial(n, k, p) * numbers[n - k] for k in range(n + 1)]
        polys.append(_trim(coeffs))
    if verify:
        for n in range(1, n_max + 1):
            ladder = p_derivative(polys[n], p)
            expect = _trim([c * q_number(n, p) for c in polys[n - 1]])
            if ladder != expect:
                raise IntegrityError(f"difference ladder fails at n = {n}")
            jump = _zp_sub(dotplus_translate(polys[n], d), polys[n])
            expect_jump = _trim([Fraction(0)] * (n - 1) + [q_number(n, p)])
            if jump != expect_jump:
                raise IntegrityError(f"jump identity fails at n = {n}")
    return tuple(polys)


def _zp_sub(a: ZPoly, b: ZPoly) -> ZPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def solve_difference(f: Sequence, d: DeltaSeq) -> ZPoly:
    """A polynomial g with T g - g = f, namely
    g = sum_n f_n B_{n+1}(z) / [n+1]_p."""
    f = _as_zpoly(f)
    n_max = len(f) - 1
    polys = bp_polynomials(d, n_max + 1, verify=False)
    out = [Fraction(0)] * (n_max + 2)
    p = d.p
    for n, a in enumerate(f):
        if a == 0:
            continue
        scale = a / q_number(n + 1, p)
        for i, c in enumerate(polys[n + 1]):
            out[i] += scale * c
    return _trim(out)


def verify_solution(f: Sequence, g: Sequence, d: DeltaSeq) -> Optional[int]:
    """Index of the first coefficient where T g - g differs from f, or None
    when the functional equation holds exactly through the truncation."""
    f = _as_zpoly(f)
    r = _zp_sub(_zp_sub(dotplus_translate(g, d), _as_zpoly(g)), f)
    for i, c in enumerate(r):
        if c != 0:
            return i
    return None


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
    from .qpolys import im_bernoulli_numbers
    from .qspecial import smallest_positive_zero

    q = Fraction(q)
    if xi1 is None:
        xi1 = smallest_positive_zero("Sinq", float(q)).value
    numbers = im_bernoulli_numbers(q, n_max)
    ratios = []
    for n in range(n_max + 1):
        rn = abs(safe_float(numbers[n] / q_factorial(n, q))) * (2.0 * xi1) ** n
        ratios.append(rn)
    sup = max(ratios)
    return GrowthReport(q=float(q), xi1=xi1, n_max=n_max, ratios=tuple(ratios),
                        sup=sup, argmax=ratios.index(sup))
