"""Two-point expansions from divided-difference boundary data.

A function enters either as an exact polynomial or as a stream of
rho-basis coefficients f_k (so truncations of the basic sine/cosine are
representable).  Boundary data are produced by exact repeated application
of the divided-difference operator followed by evaluation at the two nodes
0 and eta.  The Bernoulli-type engine consumes even-order data at both
nodes; the Euler-type engine odd data at 0 and even data at eta.

The assembled expansions are

    f = sum_k c**(-2k)   [ D^{2k}f(eta) * 2 B_{2k+1}  -  D^{2k}f(0) * 2 beta_{2k+1} ]
    f = sum_k c**(-2k-1)   D^{2k+1}f(0) * Etilde_{2k+1}
      + sum_k c**(-2k)  2  D^{2k}f(eta) * E_{2k}

with c = 2 q**(1/4)/(1-q), the eigenvalue scale of the operator on the
q-exponential.  With that scale both expansions reproduce polynomials
exactly at K = ceil(deg/2), which is the property the test suite pins.

For entire functions given as streams the reports carry a growth statistic
tau (the n-th root of |f_n| normalized by the q-exponential coefficients)
and the convergence cap min(1, first positive zero of the sine/cosine at
eta): data-only diagnostics, never a gate on the computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from .qcore import QContext, q_pochhammer, safe_float
from .fps import psi_weight
from .symlaurent import SymPoly, aw_derivative, change_basis, eval_at, eval_float, special_poly
from .qpolys import build_family
from . import qspecial

Number = Union[Fraction, float]

DEFAULT_GRID = tuple(Fraction(k, 10) for k in range(-10, 11))


@dataclass(frozen=True)
class EntireFn:
    """A function presented by its rho-basis coefficients.

    ``polynomial`` marks streams known to terminate (the tail is exactly
    zero), which switches the reports to exact arithmetic.
    """

    stream: Tuple[Fraction, ...]
    polynomial: bool = False
    growth_order: Optional[float] = None
    growth_type: Optional[float] = None

    @classmethod
    def from_poly(cls, ctx: QContext, p: SymPoly) -> "EntireFn":
        return cls(stream=change_basis(ctx, p, "rho"), polynomial=True)

    @classmethod
    def from_stream(cls, coeffs: Sequence, polynomial: bool = False, **kw) -> "EntireFn":
        return cls(stream=tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs),
                   polynomial=polynomial, **kw)

    def to_poly(self, ctx: QContext) -> SymPoly:
        acc = SymPoly.zero()
        for k, fk in enumerate(self.stream):
            if fk != 0:
                acc = acc + special_poly(ctx, "rho", k) * fk
        return acc


def _float_terms(ctx: QContext, stream) -> list:
    """Combined float Chebyshev coefficients of sum f_k rho_k.

    Each basis polynomial is scaled by its (possibly tiny) coefficient
    before leaving exact arithmetic: the basis values alone can overflow
    the float range at high degree.
    """
    out = [0.0]
    for k, fk in enumerate(stream):
        if fk == 0:
            continue
        scaled = special_poly(ctx, "rho", k) * fk
        if len(scaled.coeffs) > len(out):
            out.extend([0.0] * (len(scaled.coeffs) - len(out)))
        for i, c in enumerate(scaled.coeffs):
            out[i] += safe_float(c)
    return out


@dataclass(frozen=True)
class ExpansionReport:
    kind: str
    K: int
    data_at_zero: Tuple[Fraction, ...]
    data_at_eta: Tuple[Fraction, ...]
    tau_estimate: float
    cap: Optional[float]
    reconstruction: SymPoly
    residual: Number
    exact: bool
    status: str
    fn: "EntireFn" = None


def rho_expand(ctx: QContext, f: EntireFn) -> Tuple[Tuple[Fraction, ...], float]:
    """The rho coefficient stream together with the growth statistic tau.

    tau_n = |f_n / psi_n|**(1/n) with psi_n the q-exponential coefficient;
    the estimate is the maximum over a trailing window of width 10.  A
    terminating (polynomial) stream has tau 0.
    """
    stream = f.stream
    if f.polynomial:
        return stream, 0.0
    stats = []
    for n, fn in enumerate(stream):
        if n == 0 or fn == 0:
            continue
        cn = abs(safe_float(fn / psi_weight(ctx, n)))
        if cn > 0:
            stats.append(cn ** (1.0 / n))
    if not stats:
        return stream, 0.0
    return stream, max(stats[-10:])


def aw_boundary_data(ctx: QContext, f: EntireFn, K: int, scheme: str):
    """Boundary data by repeated exact divided differences.

    ``bernoulli``: (D^{2k}f(0), D^{2k}f(eta)) for k = 0..K.
    ``euler``:     (D^{2k+1}f(0), D^{2k}f(eta)) for k = 0..K.
    """
    if scheme not in ("bernoulli", "euler"):
        raise ValueError("scheme must be 'bernoulli' or 'euler'")
    if K < 0:
        raise ValueError("K must be >= 0")
    p = f.to_poly(ctx)
    data0, data_eta = [], []
    cur = p
    order = 0
    max_order = 2 * K + (1 if scheme == "euler" else 0)
    while True:
        if order % 2 == 0:
            data_eta.append(eval_at(ctx, cur, "eta"))
            if scheme == "bernoulli":
                data0.append(eval_at(ctx, cur, "zero"))
        elif scheme == "euler":
            data0.append(eval_at(ctx, cur, "zero"))
        if order == max_order:
            break
        cur = aw_derivative(ctx, cur) if not cur.is_zero() else cur
        order += 1
    return tuple(data0), tuple(data_eta)


def _zero_cap(ctx: QContext, kind: str) -> Optional[float]:
    try:
        report = _cap_cached(float(ctx.q), kind)
    except qspecial.ZeroSearchError:
        return None
    return min(1.0, report.value)


@lru_cache(maxsize=None)
def _cap_cached(q: float, kind: str):
    return qspecial.smallest_positive_zero(kind, q)


def bernoulli_expansion(ctx: QContext, f: EntireFn, K: int,
                        grid: Sequence = DEFAULT_GRID) -> ExpansionReport:
    """Two-point expansion over the odd Bernoulli-family polynomials."""
    data0, data_eta = aw_boundary_data(ctx, f, K, "bernoulli")
    big = build_family(ctx, "suslov_B", 2 * K + 1)
    beta = build_family(ctx, "new_beta", 2 * K + 1)
    c = ctx.aw_scale
    recon = SymPoly.zero()
    for k in range(K + 1):
        weight = 2 * c ** (-2 * k)
        term = big.entries[2 * k + 1] * (weight * data_eta[k]) - beta.entries[2 * k + 1] * (weight * data0[k])
        recon = recon + term
    return _finish_report(ctx, f, "bernoulli", K, data0, data_eta, recon, grid, "Sq_eta")


def euler_expansion(ctx: QContext, f: EntireFn, K: int,
                    grid: Sequence = DEFAULT_GRID) -> ExpansionReport:
    """Two-point expansion over the Euler families (odd data at zero)."""
    data0, data_eta = aw_boundary_data(ctx, f, K, "euler")
    tilde = build_family(ctx, "new_E", 2 * K + 1)
    se = build_family(ctx, "suslov_E", 2 * K)
    c = ctx.aw_scale
    recon = SymPoly.zero()
    for k in range(K + 1):
        recon = recon + tilde.entries[2 * k + 1] * (c ** (-2 * k - 1) * data0[k])
        recon = recon + se.entries[2 * k] * (2 * c ** (-2 * k) * data_eta[k])
    return _finish_report(ctx, f, "euler", K, data0, data_eta, recon, grid, "Cq_eta")


def _finish_report(ctx, f, kind, K, data0, data_eta, recon, grid, cap_kind):
    _, tau = rho_expand(ctx, f)
    cap = _zero_cap(ctx, cap_kind)
    exact = f.polynomial
    if exact:
        diff = recon - f.to_poly(ctx)
        res: Number = max((abs(cc) for cc in diff.coeffs))
    else:
        res = residual_on_grid(ctx, f, recon, grid)
    status = "ok"
    if not f.polynomial and cap is not None and tau >= cap * (1 - 1e-9):
        status = "warning: growth statistic tau reaches the convergence cap; the expansion may not converge"
    return ExpansionReport(
        kind=kind, K=K,
        data_at_zero=data0, data_at_eta=data_eta,
        tau_estimate=tau, cap=cap,
        reconstruction=recon, residual=res, exact=exact,
        status=status, fn=f,
    )


def residual_on_grid(ctx: QContext, f: EntireFn, recon: SymPoly, grid: Sequence) -> float:
    if not grid:
        return 0.0
    terms = _float_terms(ctx, f.stream)
    worst = 0.0
    for x in grid:
        xf = float(x)
        worst = max(worst, abs(eval_float(terms, xf) - eval_float(recon, xf)))
    return worst


# -- streams for the worked examples -------------------------------------------


def trig_rho_stream(ctx: QContext, kind: str, w: Fraction, n_terms: int) -> EntireFn:
    """Rho-coefficient stream of the basic sine ("S"), basic cosine ("C"),
    or the even part of the q-exponential ("E_even") at argument w.

    With rational w every coefficient is exact:
      sine:    f_{2n+1} = (-1)^n q**(1/4) q**(n**2+n) w**(2n+1) / (q;q)_{2n+1}
      cosine:  f_{2n}   = (-1)^n q**(n**2) w**(2n) / (q;q)_{2n}
      E_even:  f_{2n}   = psi_{2n} w**(2n)
    """
    w = Fraction(w)
    s, q = ctx.s, ctx.q
    out = [Fraction(0)] * n_terms
    if kind == "S":
        n = 0
        while 2 * n + 1 < n_terms:
            m = 2 * n + 1
            out[m] = Fraction(-1) ** n * s * q ** (n * n + n) * w ** m / q_pochhammer(q, q, m)
            n += 1
    elif kind == "C":
        n = 0
        while 2 * n < n_terms:
            m = 2 * n
            out[m] = Fraction(-1) ** n * q ** (n * n) * w ** m / q_pochhammer(q, q, m)
            n += 1
    elif kind == "E_even":
        n = 0
        while 2 * n < n_terms:
            m = 2 * n
            out[m] = psi_weight(ctx, m) * w ** m
            n += 1
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    return EntireFn.from_stream(out)


@dataclass(frozen=True)
class CounterexampleReport:
    kind: str
    w: float
    max_data: float
    function_norm: float
    expansion: ExpansionReport


def counterexample_report(ctx: QContext, kind: str, n_terms: int, K: int,
                          grid: Sequence = DEFAULT_GRID) -> CounterexampleReport:
    """Reproduce the inexpandable examples: the basic sine at its first
    eta-node zero (bernoulli data) and the basic cosine at its own first
    zero (euler data).  All boundary data vanish up to the accuracy of the
    zero while the function itself stays O(1) on the grid.

    The zero is refined by exact rational bisection well past double
    precision so that the data decay is not masked by the root error.
    """
    if kind == "bernoulli":
        w = qspecial.refine_zero_exact(ctx, "Sq_eta", steps=120)
        f = trig_rho_stream(ctx, "S", w, n_terms)
        report = bernoulli_expansion(ctx, f, K, grid)
    elif kind == "euler":
        w = qspecial.refine_zero_exact(ctx, "Cq_eta", steps=120)
        f = trig_rho_stream(ctx, "C", w, n_terms)
        report = euler_expansion(ctx, f, K, grid)
    else:
        raise ValueError("kind must be 'bernoulli' or 'euler'")
    max_data = max(
        [abs(safe_float(v)) for v in report.data_at_zero]
        + [abs(safe_float(v)) for v in report.data_at_eta]
    )
    terms = _float_terms(ctx, f.stream)
    norm = max(abs(eval_float(terms, float(x))) for x in grid)
    return CounterexampleReport(kind=kind, w=float(w), max_data=max_data,
                                function_norm=norm, expansion=report)


def growth_condition_note(ctx: QContext, f: EntireFn) -> str:
    """Informational check of declared growth metadata against the
    admissible order 2 ln(1/q) and type 2 ln 2 / ln(1/q)."""
    lnq_inv = -math.log(float(ctx.q))
    order_cap = 2.0 * lnq_inv
    type_cap = 2.0 * math.log(2.0) / lnq_inv
    if f.growth_order is None:
        return "no declared growth metadata"
    if f.growth_order < order_cap:
        return f"declared order {f.growth_order:.6g} < {order_cap:.6g}: admissible"
    if f.growth_order == order_cap and (f.growth_type or math.inf) < type_cap:
        return f"declared order at the cap with type {f.growth_type:.6g} < {type_cap:.6g}: admissible"
    return "declared growth exceeds the admissible range"
