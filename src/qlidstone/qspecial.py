"""Floating-point rho-basis terms of the q-exponential, each step one int/int division of
the integers of ``qcore._psi_rho_steps``, the basic sine/cosine series at the node eta,
the second Jackson q-Bessel series, and the zero finders.

Every zero is found by one geometric sign-change scan and bisection
(:func:`_sign_changes`), seeded and capped by the first-order large-index zero
asymptotic 2 q**(-m) q**((1-nu)/2) (W. K. Hayman, Contemp. Math. 382, 2005).
The basic sine/cosine series at the node eta are evaluated with the positive
prefactor (-q w**2; q**2)_inf multiplied out, so the root loop works on a plain
alternating series whose partial sums carry a certified tail bound -- the same
series also drives an exact rational bisection used when a zero is needed to
far more than double precision.

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
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .qcore import LimitError, QContext, _psi_rho_steps, q_pochhammer_inf, table

REL_WIDTH = 1e-13  # relative bracket width at which the float bisection stops
BESSEL_TOL = 1e-15  # relative size of the last term kept by the q-Bessel series
BALL_BITS = 256  # fixed-point bits at which the ball sign certifier of refine_zero_exact starts
BALL_BITS_CAP = 1 << 16  # the precision past which it gives up
WIDEN_STEPS = 64  # widenings of the float bracket, each by its width, that refine_zero_exact tries per side


class ZeroSearchError(LimitError):
    """No sign change found where one was expected, or the search left the float range."""


@dataclass(frozen=True)
class ZeroReport:
    kind: str
    value: float
    bracket: Tuple[float, float]
    residual: float
    bound_check: bool


# -- series evaluation -----------------------------------------------------


def psi_rho_steps(ctx: QContext) -> Iterator[Tuple[float, float]]:
    """(a_j, b_j) = (A_j/E_j, B_j/E_j) of :func:`psi_rho_terms` for j = 2, 3, ..., read off the
    integers of :func:`qcore._psi_rho_steps`; they depend on s alone, so one list serves every x."""
    return ((A / E, B / E) for A, B, E in _psi_rho_steps(ctx.s))


def psi_rho_terms(ctx: QContext, x: float, steps: Iterable[Tuple[float, float]]) -> Iterator[float]:
    """u_0, u_1, ..., u_j = psi_j rho_j(x) at real x, psi_j = q**(j**2/4)/(q;q)_j, from the
    (a_j, b_j) of :func:`psi_rho_steps`; ends where ``steps`` ends.

    The rho recurrence with psi folded in: u_0 = 1, u_1 = 2x s/(1-q) and
    u_j = u_{j-2} (a_j + b_j x**2) with a_j = q (1-q**(j-2))**2 / ((1-q**j)(1-q**(j-1)))
    and b_j = 4 q**(j-1) / ((1-q**j)(1-q**(j-1))).
    Every factor is nonnegative, so nothing cancels, and u_j stays in the float
    range where rho_j(x) alone overflows.
    """
    xx = x * x
    u = [1.0, 2.0 * x * float(ctx.s / (1 - ctx.q))]
    yield from u
    for j, (a, b) in enumerate(steps, 2):
        u[j % 2] *= a + b * xx
        yield u[j % 2]


def _bessel_body(nu: float, u: float, q: float) -> float:
    """sum_k (-1)^k q**(k(k+nu)) u**k / ((q;q)_k (q**(nu+1);q)_k)."""
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        ratio = -(q ** (2 * k + 1 + nu)) * u / ((1.0 - q ** (k + 1)) * (1.0 - q ** (nu + k + 1)))
        term *= ratio
        k += 1
        if abs(term) < BESSEL_TOL * max(1.0, abs(total)) and q ** (2 * k + nu) * abs(u) < 1:
            return total
        if k > 10_000:
            raise LimitError("Bessel series did not converge")


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
    with its factors in rising order.  Its numerator is ``plain(k)``, or, where a power
    of w alone overflows there, ``regrouped(k)``: the same product as one power."""
    rq = math.sqrt(q)
    if kind == "Sq_eta":  # w**(2k+1) alone overflows at q = 1e-100, w = 1e75; q**(k*k) rq**k = (rq**k)**(2k+1)
        base, j = rq, 1
        plain = lambda k: q ** (k * k) * rq ** k * w ** (2 * k + 1)
        regrouped = lambda k: (rq ** k * w) ** (2 * k + 1)
    elif kind == "Cq_eta":
        base, j, regrouped = rq, 0, None
        plain = lambda k: q ** (k * k) / rq ** k * w ** (2 * k)
    elif kind == "Sinq":  # ((1-q) w)**(2k+1) alone leaves the float range past w near q**-1.5 at q below about 1e-40
        base, j = q, 1
        plain = lambda k: q ** (k * (2 * k + 1)) * ((1 - q) * w) ** (2 * k + 1)
        regrouped = lambda k: (q ** k * (1 - q) * w) ** (2 * k + 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    total, qq, i = 0.0, 1.0, 0
    for k in range(0, 400):
        while i < 2 * k + j:
            i += 1
            qq *= 1.0 - base ** i
        try:
            try:
                t = plain(k) / qq
            except OverflowError:  # a power of w alone: the regrouped term, unless that leaves the float range too
                if regrouped is None or math.isinf(t := regrouped(k) / qq):
                    raise
            t *= (-1.0) ** k
        except (OverflowError, ZeroDivisionError) as exc:
            raise ZeroSearchError(
                f"{kind} series at q = {q!r}, w = {w:.6g} leaves the float range at term {k}") from exc
        total += t
        if k > 1 and abs(t) < 1e-17 * max(1e-300, abs(total)):
            return total
    raise LimitError(f"{kind} series at w = {w:.6g} did not converge in 400 terms")


def sq_lower_bound(q: float) -> float:
    """Positivity bound: the first sine-node zero w satisfies
    w**2 >= q**(-3/2) (1-q) (1-q**(3/2))."""
    return q ** -1.5 * (1 - q) * (1 - q ** 1.5)


def _sign_changes(f: Callable[[float], float], x: float, ratio: float,
                  caps: Iterable[float]) -> Iterator[Tuple[float, float, float]]:
    """Successive sign changes of f on the geometric grid x, x ratio, x ratio**2, ...,
    each bisected to (a, b, mid).  The m-th is sought below the m-th of ``caps`` (the
    step that passes the cap is still taken), and the scan resumes at mid (1 + 1e-6).
    Ends at the first cap passed with no change; a grid point where f is 0 restarts it."""
    fx = f(x)
    for cap in caps:
        a, fa = x, fx
        while x < cap:
            x *= ratio
            fx = f(x)
            if fa != 0.0 and (fx == 0.0 or (fx > 0) != (fa > 0)):
                break
            a, fa = x, fx
        else:
            return
        a, b, mid = _bisect(f, a, x)
        yield a, b, mid
        x = mid * (1 + 1e-6)
        fx = f(x)


def _scan_and_bisect(f: Callable[[float], float], lo: float, cap: float,
                     ratio: float, positive: float = 0.0) -> Tuple[float, float, float]:
    """The first of :func:`_sign_changes` from lo below cap, on the grid lo ratio**k.

    f must be positive at lo: every series scanned here is positive just
    right of 0, so a negative f(lo) means a zero lies below the scan start.
    Below ``positive`` f is proved positive, so the grid steps there are taken without evaluating f.
    """
    fa = f(lo)
    if fa < 0:
        raise ZeroSearchError(f"f(lo) = {fa:.6g} < 0 at the scan start lo = {lo:.6g}: a zero lies below it")
    x, end = lo, min(positive, cap)
    while x * ratio < end:
        x *= ratio
    found = next(_sign_changes(f, x, ratio, [cap]), None)
    if found is None:
        raise ZeroSearchError(f"no sign change in [{lo:.6g}, {cap:.6g}] at scan ratio {ratio}; "
                              f"f(lo) = {f(lo):.6g}, f(cap) = {f(cap):.6g}")
    return found


def _bisect(f, a, b):
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= REL_WIDTH * abs(mid) or mid == a or mid == b:
            return a, b, mid
        fm = f(mid)
        if fm == 0.0:
            return mid, mid, mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    raise ZeroSearchError(f"bisection left [{a:.6g}, {b:.6g}] wider than {REL_WIDTH:.3g} relative after 200 steps")


def smallest_positive_zero(kind: str, q: float) -> ZeroReport:
    """Locate the first positive zero of the sine/cosine series at the eta
    node (kinds "Sq_eta", "Cq_eta") or of the q-sine built on E_q ("Sinq").

    The scan starts at the positivity bound for "Sq_eta", below the point
    where the first term ratio of "Cq_eta" reaches 1, and at a small epsilon
    for "Sinq"; it runs at ratio 1.05 (re-checked at 1.01 so a single
    coarse step cannot straddle two zeros), and is capped by the m = 3
    asymptotic estimate.  The grid points of "Cq_eta" and "Sinq" below the
    point where their first term ratio reaches 1 are stepped over unevaluated:
    every later term ratio is smaller, so the alternating series is positive there.
    """
    f = lambda w: _eta_series_value(kind, q, w)
    try:
        positive = 0.0
        if kind == "Sq_eta":
            lo = math.sqrt(sq_lower_bound(q)) * (1 - 1e-12)
            cap = hayman_zero_estimate(3, 0.5, q) / 2.0
        elif kind == "Cq_eta":
            # below sqrt((1-p)(1-q)/p), p = sqrt(q), every term ratio is under 1 and the series positive
            p = math.sqrt(q)
            positive = math.sqrt((1 - p) * (1 - q) / p)
            lo = min(1e-3 * q, positive * (1 - 1e-12))
            cap = hayman_zero_estimate(3, -0.5, q) / 2.0
        elif kind == "Sinq":
            # every term ratio q**(4k+3) (1-q)**2 w**2 / ((1-q**(2k+2)) (1-q**(2k+3))) is under 1 below this
            lo = 1e-3
            positive = math.sqrt((1 - q * q) * (1 - q ** 3) / q ** 3) / (1 - q)
            try:
                cap = 10.0 * hayman_zero_estimate(3, 0.5, q * q) / 2.0
            except OverflowError:  # q below about 5e-52: the estimate, about 10 q**-5.5, is past the float range,
                cap = 10.0 * positive  # while the first zero lies just above positive, about q**-1.5
                if math.isinf(cap):
                    raise
        else:
            raise ValueError(f"unknown kind {kind!r}")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ZeroSearchError(f"{kind} scan bounds at q = {q!r} leave the float range") from exc
    a, b, mid = _scan_and_bisect(f, lo, cap, 1.05, positive)
    a2, b2, mid2 = _scan_and_bisect(f, lo, cap, 1.01, positive)
    if mid2 < mid * (1 - 1e-6):  # the coarse scan straddled more than one zero
        a, b, mid = a2, b2, mid2
    residual = abs(_eta_series_value(kind, q, mid) if kind == "Sinq" else _trig_eta_residual(kind, q, mid))
    bound_check = kind != "Sq_eta" or mid * mid >= sq_lower_bound(q) * (1 - 1e-12)
    return ZeroReport(kind=kind, value=mid, bracket=(a, b), residual=residual, bound_check=bound_check)


@partial(table, ordered=False)
def first_zero(kind: str, q: float) -> ZeroReport:
    """:func:`smallest_positive_zero`, held in the table store under q and kind; a
    search that raises is not stored, so it raises again on the next call.
    The call goes through the module global so that a rebinding of that name is seen."""
    return smallest_positive_zero(kind, q)


def _trig_eta_residual(kind: str, q: float, w: float) -> float:
    """Residual of the actual basic sine/cosine at the node (the series
    with the prefactor divided back out)."""
    pref, _ = q_pochhammer_inf(-q * w * w, q * q, 1e-15)
    return _eta_series_value(kind, q, w) / pref


def positive_zeros(kind: str, q: float, count: int) -> List[float]:
    """First ``count`` positive zeros of the eta-node sine or cosine series (w variable)."""
    if kind not in ("Sq_eta", "Cq_eta") or count < 0:  # the scan caps are the eta-node asymptotics
        raise ValueError(f"positive_zeros takes kind Sq_eta or Cq_eta and count >= 0, got {kind!r}, {count}")
    if count == 0:
        return []
    f = lambda w: _eta_series_value(kind, q, w)
    nu = 0.5 if kind == "Sq_eta" else -0.5
    first = smallest_positive_zero(kind, q).value
    caps = (hayman_zero_estimate(m, nu, q) / 2.0 for m in range(4, count + 3))
    zeros = [first] + [mid for _, _, mid in _sign_changes(f, first * (1 + 1e-6), 1.01, caps)]
    if len(zeros) < count:
        cap = hayman_zero_estimate(len(zeros) + 3, nu, q) / 2.0
        raise ZeroSearchError(f"zero {len(zeros) + 1} of {kind} not found below {cap:.6g}")
    return zeros


def jackson_bessel_zeros(nu: float, q: float, count: int) -> List[float]:
    """First positive zeros of J_nu^(2)(z; q), via the even series body in
    u = (z/2)**2 (the z**nu prefactor never vanishes for z > 0)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    f = lambda u: _bessel_body(nu, u, q)
    caps = ((hayman_zero_estimate(m, nu, q) / 2.0) ** 2 for m in range(3, count + 3))
    zeros = [2.0 * math.sqrt(mid) for _, _, mid in _sign_changes(f, 1e-4 * q ** (1 - nu), 1.02, caps)]
    if len(zeros) < count:
        cap = (hayman_zero_estimate(len(zeros) + 3, nu, q) / 2.0) ** 2
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
    raise LimitError(f"{kind} sign at w = {w} did not resolve at {BALL_BITS_CAP} bits; w may sit on the zero")


def refine_zero_exact(ctx: QContext, kind: str, steps: int = 60) -> Fraction:
    """Rational approximation of the first positive zero of the eta-node
    sine ("Sq_eta") or cosine ("Cq_eta"), accurate to ~2**-steps of the
    float bracket width; used where double precision is not enough."""
    report = first_zero(kind, float(ctx.q))
    lo, hi = map(Fraction, report.bracket)
    # widen until the exact signs straddle (the float bracket can be off by ulps)
    width = (hi - lo) if hi > lo else Fraction(1, 10 ** 12)
    ends = []
    for end, step, sign in ((lo, -width, 1), (hi, width, -1)):
        tries = (end + i * step for i in range(WIDEN_STEPS + 1))
        ends.append(next((x for x in tries if _eta_series_sign(ctx, kind, x) == sign), None))
        if ends[-1] is None:
            raise ZeroSearchError(f"{kind} series does not change sign across the float bracket "
                                  f"{report.bracket} widened {WIDEN_STEPS} times by its width")
    lo, hi = ends
    for _ in range(steps):
        mid = (lo + hi) / 2
        if _eta_series_sign(ctx, kind, mid) > 0:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    # compact the representation; the rounding error is far below the
    # remaining bracket width, so the refined accuracy is preserved
    compact = mid.limit_denominator(10 ** 45)
    return compact if lo < compact < hi else mid
