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

Each bisection step needs the certified sign of that series at a rational
point, found by midpoint-radius ball arithmetic (as in Arb): terms and
partial sums are integers scaled by 2**bits with a radius in ulps, and the
term ratio is an unreduced integer pair.  It starts at BALL_BITS and, where
the balls cannot decide, doubles the precision (F. Johansson,
arXiv:1611.02831) up to BALL_BITS_CAP, past which it raises.  A w < 0 takes
its sign from -w, the sine series being odd in w and the cosine series even.
A decided ball gives the sign of the whole series, so the refined zero does
not depend on the precision that answered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .qcore import QContext, q_pochhammer_inf, table

SERIES_TOL = 1e-12  # relative size of the last term kept by the float series loops
BALL_BITS = 256  # fixed-point bits at which the ball sign certifier of refine_zero_exact starts
BALL_BITS_CAP = 1 << 16  # the precision past which it gives up


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


def psi_rho_values(ctx: QContext, x: float, n: int) -> List[float]:
    """[u_0, ..., u_{n-1}], u_j = psi_j rho_j(x) at real x, psi_j = q**(j**2/4)/(q;q)_j.

    The rho recurrence with psi folded in: u_0 = 1, u_1 = 2x s/(1-q) and
    u_j = u_{j-2} (a_j + b_j x**2) with a_j = q (1-q**(j-2))**2 / ((1-q**j)(1-q**(j-1)))
    and b_j = 4 q**(j-1) / ((1-q**j)(1-q**(j-1))), both rounded once from
    exact integer quotients.  Every factor is nonnegative, so nothing cancels,
    and u_j stays in the float range where rho_j(x) alone overflows.
    """
    return list(islice(psi_rho_terms(ctx, x, psi_rho_steps(ctx)), n))


def psi_rho_steps(ctx: QContext) -> Iterator[Tuple[float, float]]:
    """(a_j, b_j) of :func:`psi_rho_values` for j = 2, 3, ..., computed as they are read;
    they depend on s alone, so one list of them serves every x."""
    # with q = Q/D and e_k = D**k - Q**k: a_j = Q D**2 e_{j-2}**2 / (e_j e_{j-1}), b_j = 4 Q**(j-1) D**j / (e_j e_{j-1})
    Q, D = ctx.s.numerator ** 4, ctx.s.denominator ** 4
    qk, dk, e0, e1 = Q, D, 0, D - Q  # Q**(j-1), D**(j-1), e_{j-2}, e_{j-1}
    while True:
        ej = dk * D - qk * Q
        den = ej * e1
        yield Q * D * D * e0 ** 2 / den, 4 * qk * dk * D / den
        qk, dk, e0, e1 = qk * Q, dk * D, e1, ej


def psi_rho_terms(ctx: QContext, x: float, steps: Iterable[Tuple[float, float]]) -> Iterator[float]:
    """u_0, u_1, ... of :func:`psi_rho_values` at x, from the (a_j, b_j) of
    :func:`psi_rho_steps`; ends where ``steps`` ends."""
    xx = x * x
    u = [1.0, 2.0 * x * float(ctx.s / (1 - ctx.q))]
    yield from u
    for j, (a, b) in enumerate(steps, 2):
        u[j % 2] *= a + b * xx
        yield u[j % 2]


def eq_eval(ctx: QContext, x: float, w) -> float:
    """The q-exponential at real x, |w| < 1, by its rho-basis series
    sum_n u_n w**n, u_n from :func:`psi_rho_values`.

    ``w`` may be complex (used to split into the basic cosine and sine);
    the return type follows the type of ``w``.
    """
    if abs(w) >= 1:
        raise ValueError(f"series requires |w| < 1, got |w| = {abs(w)}")
    if w == 0:
        return 1.0
    total = 1.0 + 0.0 * w
    wn = 1.0 + 0.0 * w
    for n, u in zip(range(1, 400), islice(psi_rho_terms(ctx, x, psi_rho_steps(ctx)), 1, None)):
        wn *= w
        term = u * wn
        total += term
        if abs(term) < SERIES_TOL * max(1.0, abs(total)) and n > 4:
            return total
    raise RuntimeError("q-exponential series did not converge")


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
        # sum (-1)^k (-q**(-1/2); q)_m (q**(1/2) w)**m / (q; q)_m, m = 2k + j, both symbols
        # carried as running products with their factors in rising order
        j = 1 if kind == "S" else 0
        rq = math.sqrt(q)
        if abs(w) >= 1.0 / rq:
            raise ValueError("series at eta requires |w| < q**(-1/2)")
        total, neg, qq, i = 0.0, 1.0, 1.0, 0
        for k in range(0, 300):
            m = 2 * k + j
            while i < m:
                neg *= 1.0 + q ** i / rq
                i += 1
                qq *= 1.0 - q ** i
            term = (-1.0) ** k * neg * (rq * w) ** m / qq
            total += term
            if k > 2 and abs(term) < SERIES_TOL * max(1.0, abs(total)):
                return total
        raise RuntimeError("basic trig series at eta did not converge")
    if abs(w) >= 1:
        raise ValueError("series requires |w| < 1 away from eta")
    # sum_k (-1)^k u_n w**n over n = 2k + 1 (sine) or n = 2k (cosine)
    j = 1 if kind == "S" else 0
    total = 0.0
    for n, u in zip(range(600), psi_rho_terms(ctx, x, psi_rho_steps(ctx))):
        if n % 2 != j:
            continue
        k = n // 2
        term = (-1.0) ** k * u * w ** n
        total += term
        if k > 2 and abs(term) < SERIES_TOL * max(1.0, abs(total)):
            return total
    raise RuntimeError("basic trig series did not converge")


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


def _eta_series_value(kind: str, q: float, w: float) -> float:
    """The alternating series for (-q w**2; q**2)_inf * {S, C}(eta-node; w), or for Sin
    with base q.  Term k divides by (b; b)_m, m = 2k + j, carried as a running product
    with its factors in rising order."""
    rq = math.sqrt(q)
    if kind == "Sq_eta":
        base, j, term = rq, 1, lambda k, qq: q ** (k * k) * rq ** k * w ** (2 * k + 1) / qq
    elif kind == "Cq_eta":
        base, j, term = rq, 0, lambda k, qq: q ** (k * k) / rq ** k * w ** (2 * k) / qq
    elif kind == "Sinq":
        base, j, term = q, 1, lambda k, qq: q ** (k * (2 * k + 1)) * ((1 - q) * w) ** (2 * k + 1) / qq
    else:
        raise ValueError(f"unknown kind {kind!r}")
    total, qq, i = 0.0, 1.0, 0
    for k in range(0, 400):
        while i < 2 * k + j:
            i += 1
            qq *= 1.0 - base ** i
        try:
            t = (-1.0) ** k * term(k, qq)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ZeroSearchError(
                f"{kind} series at q = {q:.6g}, w = {w:.6g} leaves the float range at term {k}") from exc
        total += t
        if k > 1 and abs(t) < 1e-17 * max(1e-300, abs(total)):
            return total
        if k > 2 and t == 0.0:
            return total
    raise RuntimeError(f"{kind} series at w = {w:.6g} did not converge in 400 terms")


def sq_lower_bound(q: float) -> float:
    """Positivity bound: the first sine-node zero w satisfies
    w**2 >= q**(-3/2) (1-q) (1-q**(3/2))."""
    return q ** -1.5 * (1 - q) * (1 - q ** 1.5)


def _scan_and_bisect(f: Callable[[float], float], lo: float, cap: float,
                     ratio: float, rel_width: float) -> Tuple[float, float, float]:
    """First sign change of f on a geometric grid from lo, then bisection.

    f must be positive at lo: every series scanned here is positive just
    right of 0, so a negative f(lo) means a zero lies below the scan start.
    """
    a, fa = lo, f(lo)
    if fa < 0:
        raise ZeroSearchError(f"f(lo) = {fa:.6g} < 0 at the scan start lo = {lo:.6g}: a zero lies below it")
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
    raise ZeroSearchError(f"bisection left [{a:.6g}, {b:.6g}] wider than {rel_width:.3g} relative after 200 steps")


def smallest_positive_zero(kind: str, q: float, rel_width: float = 1e-13) -> ZeroReport:
    """Locate the first positive zero of the sine/cosine series at the eta
    node (kinds "Sq_eta", "Cq_eta") or of the q-sine built on E_q ("Sinq").

    The scan starts at the positivity bound for "Sq_eta", below the point
    where the first term ratio of "Cq_eta" reaches 1, and at a small epsilon
    for "Sinq"; it runs at ratio 1.05 (re-checked at 1.01 so a single
    coarse step cannot straddle two zeros), and is capped by the m = 3
    asymptotic estimate.
    """
    f = lambda w: _eta_series_value(kind, q, w)
    if kind == "Sq_eta":
        lo = math.sqrt(sq_lower_bound(q)) * (1 - 1e-12)
        cap = hayman_zero_estimate(3, 0.5, q) / 2.0
    elif kind == "Cq_eta":
        # below sqrt((1-p)(1-q)/p), p = sqrt(q), every term ratio is under 1 and the series positive
        p = math.sqrt(q)
        lo = min(1e-3 * q, math.sqrt((1 - p) * (1 - q) / p) * (1 - 1e-12))
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


@partial(table, ordered=False)
def first_zero(kind: str, q: float) -> ZeroReport:
    """:func:`smallest_positive_zero` at its default width, held in the table store under
    q and kind; a search that raises is not stored, so it raises again on the next call.
    The call goes through the module global so that a rebinding of that name is seen."""
    return smallest_positive_zero(kind, q)


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


def _eta_series_sign_ball(ctx: QContext, kind: str, w: Fraction, bits: int) -> Optional[int]:
    """The sign of the prefactor-free eta-node series at rational w >= 0 by
    midpoint-radius ball arithmetic at ``bits`` bits, or None where the balls
    cannot decide.

    The term a_k and the partial sum are carried as integers T and S scaled
    by 2**bits, with radii e_T and e_S in ulps: |a_k 2**bits - T| <= e_T.
    The term ratio a_{k+1}/a_k = num/den is an unreduced pair of integers
    built from running powers of the numerator and denominator of q.  The
    floored product T num // den is off by less than one ulp, so
    e_T' = ceil(e_T num/den) + 1, and each partial sum adds its term's
    radius to e_S.  The series alternates, and once the ratio is below one
    its terms decrease, so the next term bounds the tail: a partial sum
    whose ball clears the next term's ball has the sign of the series.
    """
    pn, pd = ctx.s.numerator ** 2, ctx.s.denominator ** 2
    qn, qd = pn * pn, pd * pd
    wn2, wd2 = w.numerator ** 2, w.denominator ** 2
    # with a = qn**k, b = qd**k the ratio at k is a**2 c / (wd**2 (b u1 - a v1) (b u2 - a v2))
    if kind == "Sq_eta":  # q**(2k+1) p w**2 / ((1 - q**(k+1)) (1 - q**(k+1) p)), a_0 = w/(1-p)
        term, err = (w.numerator * pd << bits) // (w.denominator * (pd - pn)), 1
        c, u1, v1, u2, v2 = qn * pn * qd * wn2, qd, qn, qd * pd, qn * pn
    elif kind == "Cq_eta":  # q**(2k) p w**2 / ((1 - q**k p) (1 - q**(k+1))), a_0 = 1
        term, err = 1 << bits, 0
        c, u1, v1, u2, v2 = pn * qd * wn2, pd, pn, qd, qn
    else:
        raise ValueError(f"unknown kind {kind!r}")
    partial = partial_err = 0
    a = b = 1
    for k in range(501):
        partial += -term if k % 2 else term
        partial_err += err
        num = a * a * c
        den = wd2 * (b * u1 - a * v1) * (b * u2 - a * v2)
        term, err = term * num // den, -(-err * num // den) + 1
        a *= qn
        b *= qd
        if num < den:
            if abs(partial) - partial_err > term + err:
                return 1 if partial > 0 else -1
            if abs(partial) + term + err <= partial_err:  # no later partial sum can clear its radius
                return None
    return None


def _eta_series_sign(ctx: QContext, kind: str, w) -> int:
    """Certified sign of the prefactor-free eta-node series at rational w: the
    ball certifier from BALL_BITS, its precision doubled until the balls decide.
    The sine series is odd in w and the cosine series even, so w < 0 is read off -w."""
    w = Fraction(w)
    if w.numerator < 0:
        sign = _eta_series_sign(ctx, kind, Fraction(-w.numerator, w.denominator))
        return -sign if kind == "Sq_eta" else sign
    bits = BALL_BITS
    while bits <= BALL_BITS_CAP:
        sign = _eta_series_sign_ball(ctx, kind, w, bits)
        if sign is not None:
            return sign
        bits *= 2
    raise RuntimeError(f"{kind} sign at w = {w} did not resolve at {BALL_BITS_CAP} bits; w may sit on the zero")


def refine_zero_exact(ctx: QContext, kind: str, steps: int = 60) -> Fraction:
    """Rational approximation of the first positive zero of the eta-node
    sine ("Sq_eta") or cosine ("Cq_eta"), accurate to ~2**-steps of the
    float bracket width; used where double precision is not enough."""
    report = first_zero(kind, float(ctx.q))
    lo = Fraction(report.bracket[0])
    hi = Fraction(report.bracket[1])
    # widen until the exact signs straddle (the float bracket can be off by ulps)
    width = (hi - lo) if hi > lo else Fraction(1, 10 ** 12)
    while _eta_series_sign(ctx, kind, lo) <= 0:
        lo -= width
    while _eta_series_sign(ctx, kind, hi) >= 0:
        hi += width
    for _ in range(steps):
        mid = (lo + hi) / 2
        sign = _eta_series_sign(ctx, kind, mid)
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
