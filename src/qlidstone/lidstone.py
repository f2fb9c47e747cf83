"""Two-point expansions from divided-difference boundary data.

A function enters either as an exact polynomial or as a stream of
rho-basis coefficients f_k (so truncations of the basic sine/cosine are
representable).  Every expansion works on the quotients u_j = f_j / psi_j.
For the basic sine and cosine (and the even part of the q-exponential) they are
u_j = +-w**j, small while psi_j grows to thousands of bits, and their streams
carry them (:meth:`EntireFn.from_quotients`), so psi_j is never divided back
out; any other stream forms them once per s and keeps them.
Boundary data at the two nodes 0 and eta are read off them by the q-Taylor
identity (see :func:`aw_boundary_data`).  The Bernoulli-type engine consumes
even-order data at both nodes; the Euler-type engine odd data at 0 and even
data at eta.

The assembled expansions are data times bases, one row of :data:`SCHEMES` each:

    f = sum_k [ D^{2k}f(eta) A_k  -  D^{2k}f(0) B_k ]          (bernoulli)
    f = sum_k [ D^{2k+1}f(0) M_k  +  D^{2k}f(eta) Mtilde_k ]   (euler)

with each basis entry a scaled family entry, one row of :data:`qpolys.BASES`
each, e.g. A_k = 2 c**(-2k) suslov_B_{2k+1} with c = 2 q**(1/4)/(1-q), the
eigenvalue scale of the operator on the q-exponential.  With that scale both
expansions reproduce a polynomial exactly when its degree is at most 2K + 1.

Every family has the generating function G(w) E(x; w) with a scalar
series G (:func:`qpolys.family_multiplier`), so its entry n is
sum_j G_{n-j} psi_j rho_j.  The reconstruction is therefore collected as
coefficients r_j of psi_j rho_j and summed once against the per-s table of
those polynomials (:func:`symlaurent.psi_rho_sum`); no family table is
built, and no r_j psi_j is formed.

For entire functions given as streams the reports carry a growth statistic
tau (the n-th root of |f_n| normalized by the q-exponential coefficients)
and the convergence cap min(1, first positive zero of the sine/cosine at
eta): data-only diagnostics, never a gate on the computation.  Their
residual is max |f - recon| on a grid, summed in floats from the exact
difference u_j - r_j; that of a polynomial is exact, read off
sum_j (u_j - r_j) psi_j rho_j.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, zip_longest
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

from .qcore import IntegrityError, LimitError, QContext, correlate, over_common_den, psi_weights, safe_float
from .symlaurent import SymPoly, change_basis, psi_rho_at_eta, psi_rho_sum
from .qpolys import basis_term, family_rho
from . import qspecial

Number = Union[Fraction, float]

DEFAULT_GRID = tuple(Fraction(k, 10) for k in range(-10, 11))

# scheme -> the first order of its data at 0, the zero that caps it and whose stream is its
# counterexample, and the (basis, sign) that its data at 0 and at eta multiply in the expansion
Scheme = namedtuple("Scheme", "first_order zero_kind stream at_zero at_eta")
SCHEMES = {
    "bernoulli": Scheme(0, "Sq_eta", "S", ("B", -1), ("A", 1)),
    "euler": Scheme(1, "Cq_eta", "C", ("M", 1), ("Mtilde", 1)),
}


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
        return cls(stream=change_basis(ctx, p), polynomial=True)

    @classmethod
    def from_stream(cls, coeffs: Sequence, polynomial: bool = False, **kw) -> "EntireFn":
        return cls(stream=tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs),
                   polynomial=polynomial, **kw)

    @classmethod
    def from_quotients(cls, ctx: QContext, u: Sequence[Fraction]) -> "EntireFn":
        """The stream f_j = u_j psi_j, which keeps (ctx.s, u) outside its fields: reports,
        ``==``, ``hash`` and ``dataclasses.replace`` never see them."""
        f = cls(stream=tuple(map(mul, u, psi_weights(ctx, len(u)))))
        object.__setattr__(f, "_quotients", (ctx.s, tuple(u)))
        return f

    def quotients(self, ctx: QContext) -> Sequence[Fraction]:
        """u_j = f_j / psi_j at ``ctx.s``: those kept by :meth:`from_quotients` or by an earlier
        call at the same s, else formed and kept in their place."""
        s, u = getattr(self, "_quotients", (None, ()))
        if s != ctx.s:
            u = tuple(_over_psi(ctx, self.stream))
            object.__setattr__(self, "_quotients", (ctx.s, u))
        return u


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


def _over_psi(ctx: QContext, coeffs: Sequence) -> List[Fraction]:
    """c_j / psi_j, psi_j the q-exponential coefficient q**(j**2/4)/(q;q)_j."""
    return [c / psi for c, psi in zip(coeffs, psi_weights(ctx, len(coeffs)))]


def _scaled_float(x: Fraction) -> Tuple[float, int]:
    """(m, e) with x = m 2**e to float precision: (safe_float(x), 0) where that is finite, else
    m = x 2**-e rounded once, e the bit-length gap of x's numerator and denominator."""
    v = safe_float(x)
    if math.isfinite(v):
        return v, 0
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return safe_float(Fraction(x.numerator, x.denominator << e)), e


def _growth_tau(quotients: Sequence[Fraction]) -> float:
    """tau = max of |f_n / psi_n|**(1/n) over a trailing window of width 10
    (0 for a stream with no nonzero term past f_0), read off the quotients f_n / psi_n as
    m 2**e (:func:`_scaled_float`); a tau past the float range raises LimitError."""
    stats = [abs(m) ** (1.0 / n) * 2.0 ** (e / n) if e < 1024 * n else math.inf
             for n, (m, e) in enumerate(map(_scaled_float, quotients)) if n and m]
    tau = max(stats[-10:], default=0.0)
    if tau == math.inf:
        raise LimitError("the growth statistic tau leaves the float range")
    return tau


def aw_boundary_data(ctx: QContext, f: EntireFn, K: int, scheme: str):
    """Boundary data by the q-Taylor identity (Ismail and Stanton, J. Approx. Theory
    123, 2003) D^k f(y) = c**k sum_j u_{k+j} psi_j rho_j(y), u_j = f_j / psi_j and
    c = ``ctx.aw_scale``, which D rho_n = c psi_{n-1}/psi_n rho_{n-1} gives.  Only
    rho_0 is nonzero at 0, so D^k f(0) = c**k u_k; at eta every datum is one integer
    correlation of the u_j, over one denominator, with the per-s table of
    :func:`symlaurent.psi_rho_at_eta`.

    ``bernoulli``: (D^{2k}f(0), D^{2k}f(eta)) for k = 0..K.
    ``euler``:     (D^{2k+1}f(0), D^{2k}f(eta)) for k = 0..K.
    """
    if scheme not in SCHEMES:
        raise ValueError("scheme must be 'bernoulli' or 'euler'")
    if K < 0:
        raise ValueError("K must be >= 0")
    u = f.quotients(ctx)
    n = len(u)
    c = ctx.aw_scale
    first = SCHEMES[scheme].first_order
    at_zero = tuple(c ** k * u[k] if k < n else Fraction(0) for k in range(first, 2 * K + 2, 2))
    # orders past the end of the stream are exactly 0
    nums, du = over_common_den(u)
    e, de = psi_rho_at_eta(ctx, n)
    at_eta = correlate(nums, e, du * de, ((k, c ** k) for k in range(0, min(2 * K + 1, n), 2)))
    return at_zero, at_eta + (Fraction(0),) * (K + 1 - len(at_eta))


def _zero_cap(ctx: QContext, kind: str) -> Optional[float]:
    try:
        return min(1.0, qspecial.first_zero(kind, float(ctx.q)).value)
    except LimitError:  # no zero found, or a float loop ran out (near q = 1) or overflowed (tiny q)
        return None


def bernoulli_expansion(ctx: QContext, f: EntireFn, K: int,
                        grid: Sequence = DEFAULT_GRID) -> ExpansionReport:
    """Two-point expansion over the odd Bernoulli-family polynomials."""
    return _expansion(ctx, f, "bernoulli", K, grid)


def euler_expansion(ctx: QContext, f: EntireFn, K: int,
                    grid: Sequence = DEFAULT_GRID) -> ExpansionReport:
    """Two-point expansion over the Euler families (odd data at zero)."""
    return _expansion(ctx, f, "euler", K, grid)


def _expansion(ctx: QContext, f: EntireFn, kind: str, K: int, grid: Sequence) -> ExpansionReport:
    """The ``kind`` expansion of f.  The reconstruction sum_j r_j psi_j rho_j is summed by
    :func:`symlaurent.psi_rho_sum`; the quotients f_j / psi_j give tau and, less r_j, the residual."""
    scheme = SCHEMES[kind]
    quotients = f.quotients(ctx)
    data0, data_eta = aw_boundary_data(ctx, f, K, kind)
    c = ctx.aw_scale
    terms = [basis_term(basis, k, c, sign * data[k])
             for (basis, sign), data in ((scheme.at_zero, data0), (scheme.at_eta, data_eta))
             for k in range(K + 1)]
    r = family_rho(ctx, terms, 2 * K + 2)
    recon = psi_rho_sum(ctx, r)
    cap = _zero_cap(ctx, scheme.zero_kind)
    exact = f.polynomial
    if exact:
        tau = 0.0
        # f - recon = sum_j (u_j - r_j) psi_j rho_j, exactly
        diff = psi_rho_sum(ctx, [uj - rj for uj, rj in zip_longest(quotients, r, fillvalue=0)])
        res: Number = Fraction(max(abs(n) for n in diff.nums), diff.den)
        if res and max((j for j, fj in enumerate(f.stream) if fj), default=0) <= 2 * K + 1:
            raise IntegrityError(f"{kind} expansion at K = {K}: a residual on a polynomial of degree <= 2K+1")
    else:
        tau = _growth_tau(quotients)
        res = _grid_sup(ctx, quotients, r, grid)
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
    """max over the grid of |f - recon| for any polynomial ``recon``, from the
    exact difference of the two on the rho basis (see :func:`_grid_sup`)."""
    return _grid_sup(ctx, f.quotients(ctx), _over_psi(ctx, change_basis(ctx, recon)), grid)


def _grid_sup(ctx: QContext, quotients: Sequence, r: Sequence, grid: Sequence) -> float:
    """max over the grid of |sum_j v_j psi_j rho_j(x)|, v_j = f_j/psi_j - r_j (the shorter
    list padded with zeros): f minus the reconstruction sum_j r_j psi_j rho_j.  The difference
    is exact, so a reproduced stream reports 0.0.  Each v_j is carried as m_j 2**e_j
    (:func:`_scaled_float`), so a term in the float range is formed where v_j alone leaves it;
    a term or a sum past it raises LimitError."""
    v = [_scaled_float(c - rj) for c, rj in zip_longest(quotients, r, fillvalue=0)]
    m, e = [mj for mj, _ in v], [ej for _, ej in v]
    steps = list(islice(qspecial.psi_rho_steps(ctx), max(len(v) - 2, 0)))
    try:  # fsum raises OverflowError on a sum past the float range, ValueError on terms inf and -inf
        sup = max((abs(math.fsum(map(math.ldexp, map(mul, m, qspecial.psi_rho_terms(ctx, float(x), steps)), e)))
                   for x in grid), default=0.0)
    except (OverflowError, ValueError):
        sup = math.inf
    if sup == math.inf:
        raise LimitError("the grid residual leaves the float range")
    return sup


# -- streams for the worked examples -------------------------------------------


def trig_rho_stream(ctx: QContext, kind: str, w: Fraction, n_terms: int) -> EntireFn:
    """Rho-coefficient stream f_0..f_{n_terms-1} of the basic sine ("S"), basic cosine ("C"),
    or the even part of the q-exponential ("E_even") at argument w.

    With E(x; w) = sum_j psi_j rho_j(x) w**j (the q-Taylor form, see :func:`aw_boundary_data`),
    these are E(x; iw) and E(x; w) cut to one parity, so their quotients u_j = f_j / psi_j are
      sine:    u_j = (-1)**((j-1)/2) w**j, j odd
      cosine:  u_j = (-1)**(j/2) w**j,     j even
      E_even:  u_j = w**j,                 j even
    (0 at the other parity), exact for rational w.  The stream is f_j = u_j psi_j and carries
    its u_j (:meth:`EntireFn.from_quotients`).
    """
    if kind not in ("S", "C", "E_even"):
        raise ValueError(f"unknown stream kind {kind!r}")
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    w = Fraction(w)
    u = [Fraction(0)] * n_terms
    for j in range(kind == "S", n_terms, 2):
        u[j] = w ** j if kind == "E_even" or j % 4 < 2 else -w ** j
    return EntireFn.from_quotients(ctx, u)


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
    if kind not in SCHEMES:
        raise ValueError("kind must be 'bernoulli' or 'euler'")
    w = qspecial.refine_zero_exact(ctx, SCHEMES[kind].zero_kind, steps=120)
    f = trig_rho_stream(ctx, SCHEMES[kind].stream, w, n_terms)
    report = _expansion(ctx, f, kind, K, grid)
    max_data = max(
        [abs(safe_float(v)) for v in report.data_at_zero]
        + [abs(safe_float(v)) for v in report.data_at_eta]
    )
    norm = _grid_sup(ctx, f.quotients(ctx), (), grid)
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
