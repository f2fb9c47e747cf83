"""Slow reference implementations that the fast paths in ``qlidstone`` are
tested against.  Each one computes its result by the textbook definition,
term by term, with no shared structure; the library versions must agree
with them exactly.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence, Tuple

from qlidstone.qcore import IntegrityError, psi_weights, q_binomial, q_number, q_pochhammer, translate_coeffs
from qlidstone.qpolys import build_family, family_rho
from qlidstone.qspecial import SERIES_TOL, ZeroSearchError
from qlidstone.symlaurent import SymPoly, aw_derivative, eval_at, lincomb, rho_values, special_poly


def psi_weight(ctx, n):
    """The coefficient q**(n**2/4)/(q;q)_n multiplying rho_n in the
    q-exponential series, by its closed form."""
    return ctx.s ** (n * n) / q_pochhammer(ctx.q, ctx.q, n)


def change_basis_to(ctx, p, target):
    """Coefficients of the SymPoly p on the ``monomial``, ``rho`` or ``hermite``
    basis, by :func:`fraction_change_basis`."""
    return fraction_change_basis(ctx, FractionSymPoly(p.coeffs), target)


def poly_from_basis(ctx, target, coeffs):
    """sum a_n basis_n over the ``target`` family of ``special_poly``."""
    return lincomb((special_poly(ctx, target, n), Fraction(a)) for n, a in enumerate(coeffs) if a)


def q_translate_hermite(ctx, p, y):
    """E_q^y on the q-Hermite basis:
    E_q^y H_n = sum_m [n choose m]_q H_m g_{n-m}(y) q**((m**2-n**2)/4),
    g_j = q**(j**2/4) rho_j, extended to all polynomials by linearity."""
    h = change_basis_to(ctx, p, "hermite")
    d = len(h) - 1
    s = ctx.s
    q = ctx.q
    gvals = [eval_at(ctx, special_poly(ctx, "rho", j), y) * s ** (j * j) for j in range(d + 1)]
    out_h = [Fraction(0)] * (d + 1)
    for n in range(d + 1):
        if h[n] == 0:
            continue
        for m in range(n + 1):
            g = gvals[n - m]
            if g == 0:
                continue
            out_h[m] += h[n] * q_binomial(n, m, q) * g * s ** (m * m - n * n)
    return poly_from_basis(ctx, "hermite", out_h)


def rho_translate(ctx, r, y):
    """Rho coefficients of E_q^y f for f = sum_n r_n rho_n, by the product formula
    E_q^y rho_n = sum_k psi_k psi_{n-k} / psi_n rho_k(x) rho_{n-k}(y) on the rho basis."""
    return translate_coeffs(r, psi_weights(ctx, len(r)), rho_values(ctx, y, len(r)))


def q_translate_rho(ctx, p, y):
    """E_q^y through the rho basis: the rho coefficients of p by back-substitution,
    translated by the product formula
    E_q^y rho_n = sum_k psi_k psi_{n-k} / psi_n * rho_k(x) rho_{n-k}(y),
    and assembled back into a polynomial."""
    return poly_from_basis(ctx, "rho", rho_translate(ctx, change_basis_to(ctx, p, "rho"), y))


def eta_series_sign_termwise(ctx, kind, w):
    """Certified sign of the prefactor-free eta-node series at rational w,
    with every term rebuilt from its closed form."""
    s = ctx.s
    q = ctx.q
    p = s * s
    w = Fraction(w)

    def pp(m):
        out = Fraction(1)
        for j in range(1, m + 1):
            out *= 1 - p ** j
        return out

    def term(k):
        if kind == "Sq_eta":
            m = 2 * k + 1
            return s ** (4 * k * k + 2 * k) * w ** m / pp(m)
        if kind == "Cq_eta":
            m = 2 * k
            return s ** (4 * k * k - 2 * k) * w ** m / pp(m)
        raise ValueError(f"unknown kind {kind!r}")

    def ratio(k):
        if kind == "Sq_eta":
            return q ** (2 * k) * q * p * w * w / ((1 - q ** (k + 1)) * (1 - q ** (k + 1) * p))
        return q ** (2 * k) * p * w * w / ((1 - q ** k * p) * (1 - q ** (k + 1)))

    partial = Fraction(0)
    for k in range(501):
        partial += (-1 if k % 2 else 1) * term(k)
        if ratio(k) < 1:
            bound = term(k + 1)  # alternating, terms decreasing from here on
            if abs(partial) > bound:
                return 1 if partial > 0 else -1
    raise RuntimeError("exact sign did not resolve; w may sit on the zero")


def eta_series_sign_exact(ctx, kind, w):
    """Certified sign of the prefactor-free eta-node series at rational w.

    Terms are exact rationals, each the previous one times the exact term
    ratio; once that ratio drops below one the alternating tail is bounded
    by the first omitted term, so the sign of a partial sum larger than that
    bound is rigorous.
    """
    s = ctx.s
    q = ctx.q
    p = s * s
    w = Fraction(w)
    if kind == "Sq_eta":
        term = w / (1 - p)  # s**(4k**2+2k) w**(2k+1) / (p; p)_{2k+1} at k = 0
    elif kind == "Cq_eta":
        term = Fraction(1)  # s**(4k**2-2k) w**(2k) / (p; p)_{2k} at k = 0
    else:
        raise ValueError(f"unknown kind {kind!r}")

    def ratio(k):
        if kind == "Sq_eta":
            return q ** (2 * k) * q * p * w * w / ((1 - q ** (k + 1)) * (1 - q ** (k + 1) * p))
        return q ** (2 * k) * p * w * w / ((1 - q ** k * p) * (1 - q ** (k + 1)))

    partial = Fraction(0)
    for k in range(501):
        partial += -term if k % 2 else term
        r = ratio(k)
        term *= r
        # alternating, terms decreasing from here on: the next term bounds the tail
        if r < 1 and abs(partial) > term:
            return 1 if partial > 0 else -1
    raise RuntimeError("exact sign did not resolve; w may sit on the zero")


def rho_laurent_product(s, n):
    """rho_n multiplied out as the plain Laurent polynomial
    z**-n (1 + z**2) prod_{k=0}^{n-2} (1 + q**(2-n+2k) z**2), with its
    z <-> 1/z symmetry checked exactly before folding."""
    if n == 0:
        return SymPoly.const(1)
    q = s ** 4
    poly = {0: Fraction(1), 2: Fraction(1)}
    factor = q ** (2 - n)
    for _ in range(n - 1):
        new = {}
        for e, c in poly.items():
            new[e] = new.get(e, Fraction(0)) + c
            new[e + 2] = new.get(e + 2, Fraction(0)) + c * factor
        poly = new
        factor *= q ** 2
    out = [Fraction(0)] * (n + 1)
    for e, c in poly.items():
        if poly.get(2 * n - e, Fraction(0)) != c:
            raise IntegrityError("Laurent polynomial is not z <-> 1/z symmetric")
        if e >= n:
            out[e - n] += c
    return SymPoly(out)


def aw_boundary_data_iterated(ctx, stream, K, scheme):
    """Boundary data by applying the divided-difference operator 2K (+1)
    times to the assembled polynomial and evaluating at both nodes."""
    cur = poly_from_basis(ctx, "rho", stream)
    data0, data_eta = [], []
    max_order = 2 * K + (1 if scheme == "euler" else 0)
    for order in range(max_order + 1):
        if order % 2 == 0:
            data_eta.append(eval_at(ctx, cur, "eta"))
        if (order % 2 == 0) == (scheme == "bernoulli"):
            data0.append(eval_at(ctx, cur, "zero"))
        if not cur.is_zero():
            cur = aw_derivative(ctx, cur)
    return tuple(data0), tuple(data_eta)


def aw_boundary_data_translated(ctx, stream, K, scheme):
    """Boundary data read off the translate: D^k f(0) = c**k f_k / psi_k and
    D^k f(eta) = c**k [rho_k](E_q^eta f) / psi_k, E_q^eta f by :func:`rho_translate`
    in full, c = ``ctx.aw_scale``."""
    c = ctx.aw_scale
    n = len(stream)
    psi = psi_weights(ctx, n)
    at_eta = rho_translate(ctx, stream, "eta")
    first = 0 if scheme == "bernoulli" else 1
    return (tuple(c ** k * stream[k] / psi[k] if k < n else Fraction(0) for k in range(first, 2 * K + 2, 2)),
            tuple(c ** k * at_eta[k] / psi[k] if k < n else Fraction(0) for k in range(0, 2 * K + 1, 2)))


def rho_over_psi_poly(ctx, r):
    """sum_j r_j psi_j rho_j, the products r_j psi_j formed first and assembled on the rho basis."""
    return poly_from_basis(ctx, "rho", [rj * psi for rj, psi in zip(r, psi_weights(ctx, len(r)))])


def expansion_reconstruction_rho(ctx, kind, K, data0, data_eta):
    """The two-point expansion as rho-over-psi coefficients r_j by :func:`family_rho`,
    assembled by :func:`rho_over_psi_poly`."""
    c = ctx.aw_scale
    terms = []
    for k in range(K + 1):
        if kind == "bernoulli":
            weight = 2 * c ** (-2 * k)
            terms += [("suslov_B", 2 * k + 1, weight * data_eta[k]), ("new_beta", 2 * k + 1, -weight * data0[k])]
        else:
            terms += [("new_E", 2 * k + 1, c ** (-2 * k - 1) * data0[k]),
                      ("suslov_E", 2 * k, 2 * c ** (-2 * k) * data_eta[k])]
    return rho_over_psi_poly(ctx, family_rho(ctx, terms, 2 * K + 2))


def lidstone_basis_rho(ctx, kind, k_max):
    """The interpolation bases as scaled family entries, each one's rho-over-psi
    coefficients by :func:`family_rho`, assembled by :func:`rho_over_psi_poly`."""
    c = ctx.aw_scale
    if kind == "M":
        terms = [("new_E", 2 * k + 1, c ** (-2 * k - 1)) for k in range(k_max + 1)]
    elif kind == "Mtilde":
        terms = [("suslov_E", 2 * k, 2 * c ** (-2 * k)) for k in range(k_max + 1)]
    else:
        family = "suslov_B" if kind == "A" else "new_beta"
        terms = [(family, 2 * k + 1, 2 * c ** (-2 * k)) for k in range(k_max + 1)]
    return tuple(rho_over_psi_poly(ctx, family_rho(ctx, [term], 2 * k_max + 2)) for term in terms)


def translate_coeffs_fraction(coeffs, weights, values):
    """out_k = w_k sum_j (c_{k+j}/w_{k+j}) w_j v_j with one reduced Fraction
    product and sum per term: the correlation kernel before it ran on integers."""
    u = [c / w for c, w in zip(coeffs, weights)]
    e = [w * v for w, v in zip(weights, values)]
    n = len(u)
    return tuple(weights[k] * sum((u[k + j] * e[j] for j in range(n - k)), Fraction(0)) for k in range(n))


def dotplus_translate_binomial(h, d):
    """T z**n = sum_k [n choose k]_p z**(n-k) delta_k, term by term, with
    trailing zeros trimmed."""
    out = [Fraction(0)] * len(h)
    for n, a in enumerate(h):
        for k in range(n + 1):
            out[n - k] += a * q_binomial(n, k, d.p) * d.delta[k]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def expansion_reconstruction_families(ctx, kind, K, data0, data_eta):
    """The two-point expansion summed polynomial by polynomial over full
    family tables built by ``build_family``."""
    c = ctx.aw_scale
    recon = SymPoly.zero()
    if kind == "bernoulli":
        big = build_family(ctx, "suslov_B", 2 * K + 1)
        beta = build_family(ctx, "new_beta", 2 * K + 1)
        for k in range(K + 1):
            weight = 2 * c ** (-2 * k)
            term = big.entries[2 * k + 1] * (weight * data_eta[k]) - beta.entries[2 * k + 1] * (weight * data0[k])
            recon = recon + term
        return recon
    if kind == "euler":
        tilde = build_family(ctx, "new_E", 2 * K + 1)
        se = build_family(ctx, "suslov_E", 2 * K)
        for k in range(K + 1):
            recon = recon + tilde.entries[2 * k + 1] * (c ** (-2 * k - 1) * data0[k])
            recon = recon + se.entries[2 * k] * (2 * c ** (-2 * k) * data_eta[k])
        return recon
    raise ValueError(f"unknown kind {kind!r}")


def pochhammer_tail_ok(a, base, tol, n):
    """|a| b**n < 1 and |a| b**n / ((1-b)(1 - |a| b**n)) < tol, b = |base|."""
    b = abs(base)
    head = abs(a) * b ** n
    return head < 1 and head / ((1 - b) * (1 - head)) < tol


def pochhammer_inf_factors_linear(a, base, tol):
    """Least n >= 1 passing :func:`pochhammer_tail_ok`, found by counting up
    from 1; None past 100000."""
    for n in range(1, 100_001):
        if pochhammer_tail_ok(a, base, tol, n):
            return n
    return None


def qq_float(q, n):
    """(q; q)_n for floats by its closed form, the factors 1 - q**m multiplied in rising order."""
    out = 1.0
    for m in range(1, n + 1):
        out *= 1.0 - q ** m
    return out


def neg_poch_float(q, m):
    """(-q**(-1/2); q)_m for floats by its closed form, the factors in rising order."""
    rq = math.sqrt(q)
    out = 1.0
    for k in range(m):
        out *= 1.0 + q ** k / rq
    return out


def eta_series_value_closed(kind, q, w):
    """The prefactor-free eta-node series of ``qspecial._eta_series_value``, each term
    divided by (b; b)_m from :func:`qq_float`, with the same stop rules and errors."""
    rq = math.sqrt(q)
    terms = {
        "Sq_eta": lambda k: q ** (k * k) * rq ** k * w ** (2 * k + 1) / qq_float(rq, 2 * k + 1),
        "Cq_eta": lambda k: q ** (k * k) / rq ** k * w ** (2 * k) / qq_float(rq, 2 * k),
        "Sinq": lambda k: q ** (k * (2 * k + 1)) * ((1 - q) * w) ** (2 * k + 1) / qq_float(q, 2 * k + 1),
    }
    total = 0.0
    for k in range(0, 400):
        try:
            t = (-1.0) ** k * terms[kind](k)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ZeroSearchError(f"term {k} leaves the float range") from exc
        total += t
        if k > 1 and abs(t) < 1e-17 * max(1e-300, abs(total)):
            return total
        if k > 2 and t == 0.0:
            return total
    raise RuntimeError("did not converge in 400 terms")


def basic_trig_eta_closed(ctx, w, kind):
    """``qspecial.basic_trig`` at eta, (-q**(-1/2); q)_m and (q; q)_m from their closed forms."""
    q = float(ctx.q)
    j = 1 if kind == "S" else 0
    rq = math.sqrt(q)
    if abs(w) >= 1.0 / rq:
        raise ValueError("series at eta requires |w| < q**(-1/2)")
    total = 0.0
    for k in range(0, 300):
        m = 2 * k + j
        term = (-1.0) ** k * neg_poch_float(q, m) * (rq * w) ** m / qq_float(q, m)
        total += term
        if k > 2 and abs(term) < SERIES_TOL * max(1.0, abs(total)):
            return total
    raise RuntimeError("basic trig series at eta did not converge")


def exact_grid_residual(ctx, stream, recon, grid):
    """max over the grid of |f - recon| as an exact rational: sum_j d_j rho_j(x)
    with d_j = f_j - r_j psi_j, r_j psi_j the rho coefficients of ``recon``
    by back-substitution and rho_j(x) by its recurrence."""
    c = change_basis_to(ctx, recon, "rho")
    n = max(len(stream), len(c))
    d = [(stream[j] if j < len(stream) else 0) - (c[j] if j < len(c) else 0) for j in range(n)]
    return max((abs(sum((dj * rj for dj, rj in zip(d, rho_values(ctx, x, n))), Fraction(0))) for x in grid),
               default=Fraction(0))


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class FractionSymPoly:
    """The symmetric-Laurent polynomial with one reduced Fraction per
    coefficient, every operation normalising coefficient by coefficient:
    the store that ``qlidstone.symlaurent.FractionSymPoly`` replaced."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_coerce(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "FractionSymPoly":
        return cls([0])

    @classmethod
    def const(cls, c) -> "FractionSymPoly":
        return cls([c])

    @classmethod
    def from_monomial(cls, mono: Sequence) -> "FractionSymPoly":
        """Build from monomial coefficients (a_0, ..., a_d) of sum a_n x**n."""
        out = [Fraction(0)] * len(mono)
        for n, a in enumerate(mono):
            a = _coerce(a)
            if a == 0:
                continue
            scale = Fraction(1, 2 ** n)
            for k in range(n // 2 + 1):
                idx = n - 2 * k
                # when idx == 0 the central binomial term lands on the constant once
                out[idx] += a * comb(n, k) * scale
        return cls(out)

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FractionSymPoly):
            other = FractionSymPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionSymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionSymPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, FractionSymPoly):
            other = FractionSymPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return FractionSymPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, FractionSymPoly):
            other = _coerce(other)
            return FractionSymPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                term = ca * cb
                out[i + j] += term
                if i and j:
                    out[abs(i - j)] += 2 * term if i == j else term
        return FractionSymPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _coerce(scalar)
        return FractionSymPoly([c / scalar for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, FractionSymPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FractionSymPoly({list(self.coeffs)!r})"

    # -- transforms ----------------------------------------------------------

    def reflect(self) -> "FractionSymPoly":
        """x -> -x, i.e. z -> -z: flips the sign of odd-index coefficients."""
        return FractionSymPoly([(-c if k % 2 else c) for k, c in enumerate(self.coeffs)])

    def to_monomial(self) -> Tuple:
        """Monomial coefficients (a_0, ..., a_d) of the same polynomial."""
        d = self.degree
        # E_k = monomial form of z**k + z**-k: E_0 = 2, E_1 = 2x,
        # E_{k+1} = 2x E_k - E_{k-1}.  The constant basis element here is 1.
        out = [Fraction(0)] * (d + 1)
        out[0] += self.coeffs[0]
        if d >= 1:
            prev = [Fraction(2)]            # E_0
            cur = [Fraction(0), Fraction(2)]  # E_1
            for k in range(1, d + 1):
                ck = self.coeffs[k]
                if ck != 0:
                    for i, e in enumerate(cur):
                        out[i] += ck * e
                if k < d:
                    nxt = [Fraction(0)] * (len(cur) + 1)
                    for i, e in enumerate(cur):
                        nxt[i + 1] += 2 * e
                    for i, e in enumerate(prev):
                        nxt[i] -= e
                    prev, cur = cur, nxt
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)


@lru_cache(maxsize=None)
def fraction_special_poly(ctx, family, n):
    """``monomial``, ``rho`` and ``hermite`` members as FractionSymPolys:
    x**n, rho_n by its recurrence and H_n(x|q) by its q-binomial sum."""
    if family == "monomial":
        return FractionSymPoly.from_monomial([0] * n + [1])
    q = ctx.q
    if family == "rho":
        out = FractionSymPoly([1] if n % 2 == 0 else [0, 1])
        for m in range(n % 2 + 2, n + 1, 2):
            out = out * FractionSymPoly([q ** (m - 2) + q ** (2 - m), 0, 1])
        return out
    if family == "hermite":
        out = [Fraction(0)] * (n + 1)
        qqn = q_pochhammer(q, q, n)
        for k in range(n // 2 + 1):
            out[n - 2 * k] += qqn / (q_pochhammer(q, q, k) * q_pochhammer(q, q, n - k))
        return FractionSymPoly(out)
    raise ValueError(f"unknown family {family!r}")


def fraction_eval_at(ctx, p, pt):
    """Value of a FractionSymPoly at "zero", "eta", "minus_eta" or a rational x,
    one Fraction operation per coefficient."""
    cs = p.coeffs
    if isinstance(pt, str):
        if pt == "zero":
            total = cs[0]
            for k in range(1, len(cs)):
                ek = (2, 0, -2, 0)[k % 4]
                if ek:
                    total += cs[k] * ek
            return total
        if pt in ("eta", "minus_eta"):
            s = ctx.s
            total = cs[0]
            sk = Fraction(1)
            for k in range(1, len(cs)):
                sk *= s
                ek = sk + 1 / sk
                if pt == "minus_eta" and k % 2:
                    ek = -ek
                total += cs[k] * ek
            return total
        raise ValueError(f"unknown special point {pt!r}")
    v = Fraction(pt)
    total = cs[0]
    if len(cs) > 1:
        prev, cur = Fraction(2), 2 * v
        total += cs[1] * cur
        for k in range(2, len(cs)):
            prev, cur = cur, 2 * v * cur - prev
            total += cs[k] * cur
    return total


def fraction_aw_derivative(ctx, p):
    """The divided-difference operator once on a FractionSymPoly: basis element
    m scaled by 2 q**((1-m)/2) [m]_q and spread over e_{m-1}, e_{m-3}, ..."""
    d = p.degree
    if d == 0:
        return FractionSymPoly.zero()
    q = ctx.q
    out = [Fraction(0)] * d
    s2 = ctx.s ** 2
    for m in range(1, d + 1):
        cm = p.coeffs[m]
        if cm == 0:
            continue
        factor = cm * 2 * s2 ** (1 - m) * q_number(m, q)
        i = m - 1
        while i > 0:
            out[i] += factor
            i -= 2
        if m % 2 == 1:
            out[0] += factor
    return FractionSymPoly(out)


def fraction_change_basis(ctx, p, target):
    """Coefficients of a FractionSymPoly on the ``target`` basis by
    back-substitution from the top degree."""
    rem = p
    d = p.degree
    out = [Fraction(0)] * (d + 1)
    for n in range(d, 0, -1):
        top = rem.coeffs[n] if rem.degree >= n else Fraction(0)
        if top == 0:
            continue
        member = fraction_special_poly(ctx, target, n)
        a = top / member.coeffs[-1]
        out[n] = a
        rem = rem - member * a
    if not rem.is_constant():
        raise IntegrityError("back-substitution left a non-constant remainder")
    out[0] = rem.coeffs[0]
    return tuple(out)
