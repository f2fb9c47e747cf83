"""Floating-point evaluation of the q-exponential, basic sine/cosine, the
second Jackson q-Bessel function, and the bracketing zero finders.

Zeros are located by a geometric sign-change scan followed by bisection;
scans are seeded and sanity-bounded with the first-order large-index zero
asymptotic 2 q**(-m) q**((1-nu)/2).  The basic sine/cosine series at the
node eta are evaluated with the positive prefactor (-q w**2; q**2)_inf
multiplied out, so the root loop works on a plain alternating series whose
partial sums carry a certified tail bound -- the same series also drives an
exact rational bisection used when a zero is needed to far more than double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Tuple

from .qcore import QContext, q_pochhammer_inf
from .symlaurent import eval_float, special_poly

SERIES_TOL = 1e-12  # relative size of the last term kept by the float series loops


class ZeroSearchError(RuntimeError):
    """No sign change found where one was expected."""


@dataclass(frozen=True)
class ZeroReport:
    kind: str
    value: float
    bracket: Tuple[float, float]
    residual: float
    bound_check: bool


# -- series evaluation -----------------------------------------------------


def eq_eval(ctx: QContext, x: float, w) -> float:
    """The q-exponential at real x, |w| < 1, by its rho-basis series.

    ``w`` may be complex (used to split into the basic cosine and sine);
    the return type follows the type of ``w``.
    """
    if abs(w) >= 1:
        raise ValueError(f"series requires |w| < 1, got |w| = {abs(w)}")
    if w == 0:
        return 1.0
    q = float(ctx.q)
    total = 1.0 + 0.0 * w
    wn = 1.0 + 0.0 * w
    for n in range(1, 400):
        term_coeff = q ** (n * n / 4.0) / _qq_cached(q, n)
        wn *= w
        rho = eval_float(special_poly(ctx, "rho", n), x)
        term = term_coeff * wn * rho
        total += term
        if abs(term) < SERIES_TOL * max(1.0, abs(total)) and n > 4:
            return total
    raise RuntimeError("q-exponential series did not converge")


@lru_cache(maxsize=None)
def _qq_cached(q: float, n: int) -> float:
    """(q; q)_n for floats, memoized."""
    out = 1.0
    for m in range(1, n + 1):
        out *= 1.0 - q ** m
    return out


def basic_trig(ctx: QContext, x, w: float, kind: str) -> float:
    """Basic sine (kind "S") or cosine (kind "C") at real x or at "eta".

    On [-1, 1] the rho-basis series is used (valid for |w| < 1); at the
    node eta the dedicated scalar series converges for |w| < q**(-1/2).
    """
    q = float(ctx.q)
    if kind not in ("S", "C"):
        raise ValueError("kind must be 'S' or 'C'")
    if isinstance(x, str):
        if x != "eta":
            raise ValueError(f"unknown point {x!r}")
        # sum (-1)^k (-q**(-1/2); q)_{2k+j} (q**(1/2) w)**(2k+j) / (q; q)_{2k+j}
        j = 1 if kind == "S" else 0
        rq = math.sqrt(q)
        if abs(w) >= 1.0 / rq:
            raise ValueError("series at eta requires |w| < q**(-1/2)")
        total = 0.0
        for k in range(0, 300):
            m = 2 * k + j
            term = (-1.0) ** k * _neg_poch(q, m) * (rq * w) ** m / _qq_cached(q, m)
            total += term
            if k > 2 and abs(term) < SERIES_TOL * max(1.0, abs(total)):
                return total
        raise RuntimeError("basic trig series at eta did not converge")
    if abs(w) >= 1:
        raise ValueError("series requires |w| < 1 away from eta")
    total = 0.0
    for k in range(0, 300):
        if kind == "S":
            n = 2 * k + 1
            coeff = (-1.0) ** k * q ** (k * k + k + 0.25) / _qq_cached(q, n)
        else:
            n = 2 * k
            coeff = (-1.0) ** k * q ** (k * k) / _qq_cached(q, n)
        term = coeff * w ** n * eval_float(special_poly(ctx, "rho", n), x)
        total += term
        if k > 2 and abs(term) < SERIES_TOL * max(1.0, abs(total)):
            return total
    raise RuntimeError("basic trig series did not converge")


@lru_cache(maxsize=None)
def _neg_poch(q: float, m: int) -> float:
    """(-q**(-1/2); q)_m for floats, memoized."""
    rq = math.sqrt(q)
    out = 1.0
    for k in range(m):
        out *= 1.0 + q ** k / rq
    return out


def jackson_bessel_j2(nu: float, z: float, q: float, tol: float = 1e-15) -> float:
    """Second Jackson q-Bessel function J_nu^(2)(z; q) for z >= 0."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        return 0.0 if nu > 0 else (1.0 if nu == 0 else math.inf)
    pref_num, _ = q_pochhammer_inf(q ** (nu + 1.0), q, tol)
    pref_den, _ = q_pochhammer_inf(q, q, tol)
    series = _bessel_body(nu, (z / 2.0) ** 2, q, tol)
    return pref_num / pref_den * (z / 2.0) ** nu * series


def _bessel_body(nu: float, u: float, q: float, tol: float = 1e-15) -> float:
    """sum_k (-1)^k q**(k(k+nu)) u**k / ((q;q)_k (q**(nu+1);q)_k)."""
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        ratio = -(q ** (2 * k + 1 + nu)) * u / ((1.0 - q ** (k + 1)) * (1.0 - q ** (nu + k + 1)))
        term *= ratio
        k += 1
        if abs(term) < tol * max(1.0, abs(total)) and q ** (2 * k + nu) * abs(u) < 1:
            return total
        if k > 10_000:
            raise RuntimeError("Bessel series did not converge")


def hayman_zero_estimate(m: int, nu: float, q: float) -> float:
    """First-order asymptotic location 2 q**(-m) q**((1-nu)/2) of the m-th
    positive zero; used only as a scan seed and sanity cap."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2.0 * q ** (-m) * q ** ((1.0 - nu) / 2.0)


# -- the alternating eta-series with the product prefactor removed -----------


def _eta_series_terms(kind: str, q: float) -> Callable[[float, int], float]:
    """Term magnitude a_k(w) of the alternating series for
    (-q w**2; q**2)_inf * {S, C}(eta-node; w), or for Sin with base q."""
    rq = math.sqrt(q)

    if kind == "Sq_eta":
        def term(w, k):
            return q ** (k * k) * rq ** k * w ** (2 * k + 1) / _qq_cached(rq, 2 * k + 1)
    elif kind == "Cq_eta":
        def term(w, k):
            return q ** (k * k) / rq ** k * w ** (2 * k) / _qq_cached(rq, 2 * k)
    elif kind == "Sinq":
        def term(w, k):
            return q ** (k * (2 * k + 1)) * ((1 - q) * w) ** (2 * k + 1) / _qq_cached(q, 2 * k + 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return term


def _eta_series_value(kind: str, q: float, w: float) -> float:
    term = _eta_series_terms(kind, q)
    total = 0.0
    for k in range(0, 400):
        t = (-1.0) ** k * term(w, k)
        total += t
        if k > 1 and abs(t) < 1e-17 * max(1e-300, abs(total)):
            return total
        if k > 2 and t == 0.0:
            return total
    return total


def sq_lower_bound(q: float) -> float:
    """Positivity bound: the first sine-node zero w satisfies
    w**2 >= q**(-3/2) (1-q) (1-q**(3/2))."""
    return q ** -1.5 * (1 - q) * (1 - q ** 1.5)


def _scan_and_bisect(f: Callable[[float], float], lo: float, cap: float,
                     ratio: float, rel_width: float) -> Tuple[float, float, float]:
    """First sign change of f on a geometric grid from lo, then bisection."""
    a, fa = lo, f(lo)
    x = lo
    while x < cap:
        x *= ratio
        fx = f(x)
        if fa == 0.0:
            a, fa = x, fx
            continue
        if fx == 0.0 or (fx > 0) != (fa > 0):
            return _bisect(f, a, x, rel_width)
        a, fa = x, fx
    raise ZeroSearchError(
        f"no sign change in [{lo:.6g}, {cap:.6g}] at scan ratio {ratio}; "
        f"f(lo) = {f(lo):.6g}, f(cap) = {f(cap):.6g}"
    )


def _bisect(f, a, b, rel_width):
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_width * abs(mid) or mid == a or mid == b:
            return a, b, mid
        fm = f(mid)
        if fm == 0.0:
            return mid, mid, mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return a, b, 0.5 * (a + b)


def smallest_positive_zero(kind: str, q: float, rel_width: float = 1e-13) -> ZeroReport:
    """Locate the first positive zero of the sine/cosine series at the eta
    node (kinds "Sq_eta", "Cq_eta") or of the q-sine built on E_q ("Sinq").

    The scan starts at the positivity bound for "Sq_eta" and at a small
    epsilon otherwise, runs at ratio 1.05 (re-checked at 1.01 so a single
    coarse step cannot straddle two zeros), and is capped by the m = 3
    asymptotic estimate.
    """
    f = lambda w: _eta_series_value(kind, q, w)
    if kind == "Sq_eta":
        lo = math.sqrt(sq_lower_bound(q)) * (1 - 1e-12)
        cap = hayman_zero_estimate(3, 0.5, q) / 2.0
    elif kind == "Cq_eta":
        lo = 1e-3 * q
        cap = hayman_zero_estimate(3, -0.5, q) / 2.0
    elif kind == "Sinq":
        lo = 1e-3
        cap = 10.0 * hayman_zero_estimate(3, 0.5, q * q) / 2.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    a, b, mid = _scan_and_bisect(f, lo, cap, 1.05, rel_width)
    a2, b2, mid2 = _scan_and_bisect(f, lo, cap, 1.01, rel_width)
    if mid2 < mid * (1 - 1e-6):  # the coarse scan straddled more than one zero
        a, b, mid = a2, b2, mid2
    if kind == "Sq_eta":
        residual = abs(_trig_eta_residual(kind, q, mid))
        bound_check = mid * mid >= sq_lower_bound(q) * (1 - 1e-12)
    elif kind == "Cq_eta":
        residual = abs(_trig_eta_residual(kind, q, mid))
        bound_check = True
    else:
        residual = abs(_eta_series_value(kind, q, mid))
        bound_check = True
    return ZeroReport(kind=kind, value=mid, bracket=(a, b), residual=residual, bound_check=bound_check)


def _trig_eta_residual(kind: str, q: float, w: float) -> float:
    """Residual of the actual basic sine/cosine at the node (the series
    with the prefactor divided back out)."""
    pref, _ = q_pochhammer_inf(-q * w * w, q * q, 1e-15)
    return _eta_series_value(kind, q, w) / pref


def positive_zeros(kind: str, q: float, count: int, rel_width: float = 1e-13) -> List[float]:
    """First ``count`` positive zeros of the eta-node series (w variable)."""
    f = lambda w: _eta_series_value(kind, q, w)
    nu = 0.5 if kind == "Sq_eta" else -0.5
    first = smallest_positive_zero(kind, q, rel_width)
    zeros = [first.value]
    x = first.value * (1 + 1e-6)
    fx = f(x)
    while len(zeros) < count:
        cap = hayman_zero_estimate(len(zeros) + 3, nu, q) / 2.0
        a, fa = x, fx
        found = False
        while x < cap:
            x *= 1.01
            fx = f(x)
            if (fx > 0) != (fa > 0):
                _, _, mid = _bisect(f, a, x, rel_width)
                zeros.append(mid)
                x = mid * (1 + 1e-6)
                fx = f(x)
                found = True
                break
            a, fa = x, fx
        if not found:
            raise ZeroSearchError(f"zero {len(zeros) + 1} of {kind} not found below {cap:.6g}")
    return zeros


def jackson_bessel_zeros(nu: float, q: float, count: int, rel_width: float = 1e-13) -> List[float]:
    """First positive zeros of J_nu^(2)(z; q), via the even series body in
    u = (z/2)**2 (the z**nu prefactor never vanishes for z > 0)."""
    f = lambda u: _bessel_body(nu, u, q)
    zeros = []
    x = 1e-4 * q ** (1 - nu)
    fx = f(x)
    m = 1
    while len(zeros) < count:
        cap = (hayman_zero_estimate(m + 2, nu, q) / 2.0) ** 2
        a, fa = x, fx
        found = False
        while x < cap:
            x *= 1.02
            fx = f(x)
            if (fx > 0) != (fa > 0):
                _, _, mid = _bisect(f, a, x, rel_width)
                zeros.append(2.0 * math.sqrt(mid))
                x = mid * (1 + 1e-6)
                fx = f(x)
                found = True
                m += 1
                break
            a, fa = x, fx
        if not found:
            raise ZeroSearchError(f"zero {len(zeros) + 1} of J_{nu} not found below u = {cap:.6g}")
    return zeros


# -- exact rational refinement ------------------------------------------------


def _eta_series_sign_exact(ctx: QContext, kind: str, w: Fraction) -> int:
    """Certified sign of the prefactor-free eta-node series at rational w.

    Terms are exact rationals; once the term ratio drops below one the
    alternating tail is bounded by the first omitted term, so the sign of a
    partial sum larger than that bound is rigorous.
    """
    s = ctx.s
    q = ctx.q
    p = s * s
    w = Fraction(w)

    def term(k: int) -> Fraction:
        if kind == "Sq_eta":
            m = 2 * k + 1
            return s ** (4 * k * k + 2 * k) * w ** m / _pp_exact(p, m)
        if kind == "Cq_eta":
            m = 2 * k
            return s ** (4 * k * k - 2 * k) * w ** m / _pp_exact(p, m)
        raise ValueError(f"unknown kind {kind!r}")

    def ratio(k: int) -> Fraction:
        if kind == "Sq_eta":
            return q ** (2 * k) * q * p * w * w / ((1 - q ** (k + 1)) * (1 - q ** (k + 1) * p))
        return q ** (2 * k) * p * w * w / ((1 - q ** k * p) * (1 - q ** (k + 1)))

    partial = Fraction(0)
    k = 0
    while True:
        partial += (-1 if k % 2 else 1) * term(k)
        r = ratio(k)
        if r < 1:
            nxt = term(k + 1)
            bound = nxt  # alternating, terms decreasing from here on
            if abs(partial) > bound:
                return 1 if partial > 0 else -1
        k += 1
        if k > 500:
            raise RuntimeError("exact sign did not resolve; w may sit on the zero")


def _pp_exact(p: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, m + 1):
        out *= 1 - p ** j
    return out


def refine_zero_exact(ctx: QContext, kind: str, steps: int = 60) -> Fraction:
    """Rational approximation of the first positive zero of the eta-node
    sine ("Sq_eta") or cosine ("Cq_eta"), accurate to ~2**-steps of the
    float bracket width; used where double precision is not enough."""
    report = smallest_positive_zero(kind, float(ctx.q))
    lo = Fraction(report.bracket[0])
    hi = Fraction(report.bracket[1])
    # widen until the exact signs straddle (the float bracket can be off by ulps)
    width = (hi - lo) if hi > lo else Fraction(1, 10 ** 12)
    while _eta_series_sign_exact(ctx, kind, lo) <= 0:
        lo -= width
    while _eta_series_sign_exact(ctx, kind, hi) >= 0:
        hi += width
    for _ in range(steps):
        mid = (lo + hi) / 2
        sign = _eta_series_sign_exact(ctx, kind, mid)
        if sign > 0:
            lo = mid
        elif sign < 0:
            hi = mid
        else:
            return mid
    mid = (lo + hi) / 2
    # compact the representation; the rounding error is far below the
    # remaining bracket width, so the refined accuracy is preserved
    compact = mid.limit_denominator(10 ** 45)
    return compact if lo < compact < hi else mid
