"""Slow reference implementations that the fast paths in ``qlidstone`` are
tested against.  Each one computes its result by the textbook definition,
term by term, with no shared structure; the library versions must agree
with them exactly.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Sequence, Tuple

from qlidstone.fps import Series, pochhammer_series
from qlidstone.qcore import IntegrityError, LimitError, psi_weights, q_number, q_pochhammer_inf, translate_coeffs
from qlidstone import qpolys
from qlidstone.qpolys import BASES, FAMILY_KINDS, _report, build_family, family_rho, lidstone_basis
from qlidstone.qspecial import (ZeroReport, ZeroSearchError, _bessel_body, _eta_series_value, _scan_and_bisect,
                                _trig_eta_residual, hayman_zero_estimate, psi_rho_steps, psi_rho_terms, sq_lower_bound)
from qlidstone.symlaurent import (SymPoly, _point, _psi_rho_stream, aw_derivative, eval_at, lincomb, psi_rho_polys,
                                  psi_rho_sum, q_translate, special_poly)

SERIES_TOL = 1e-12  # relative size of the last term kept by the float series references


def q_factorial(n, base):
    """[n]! = [1][2]...[n]; the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_number(k, base)
    return out


def q_pochhammer(a, base, n):
    """(a; base)_n = prod_{k=0}^{n-1} (1 - a*base**k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = Fraction(a)
    base = Fraction(base)
    out = Fraction(1)
    p = Fraction(1)
    for _ in range(n):
        out *= 1 - a * p
        p *= base
    return out


def q_factorials_fraction(n, base):
    """[[0]!, ..., [n]!] by one running product, [k] by the running sum 1 + base + ... + base**(k-1), each
    step a Fraction operation: the builder ``qcore.q_factorials`` ran before it multiplied integer factors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = Fraction(base)
    out = [Fraction(1)]
    qk = Fraction(0)
    p = Fraction(1)
    for _ in range(n):
        qk += p
        p *= base
        out.append(out[-1] * qk)
    return out


def q_pochhammers_fraction(a, base, n):
    """[(a; base)_0, ..., (a; base)_n] by one running product of Fractions 1 - a base**k: the builder
    ``qcore.q_pochhammers`` ran before it multiplied integer factors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = Fraction(a)
    base = Fraction(base)
    out = [Fraction(1)]
    p = Fraction(1)
    for _ in range(n):
        out.append(out[-1] * (1 - a * p))
        p *= base
    return out


def pochhammer_series_fraction(coeff, power, base, order):
    """Power series of (coeff * w**power; base)_inf, |base| < 1, each term of Euler's sum the last one times
    -coeff base**(m-1) / (1 - base**m) in Fractions: ``fps.pochhammer_series`` before its integer factors."""
    if power < 1:
        raise ValueError("power must be >= 1")
    coeff = Fraction(coeff)
    base = Fraction(base)
    if not abs(base) < 1:
        raise ValueError("|base| must be < 1")
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    c = Fraction(1)
    bpow = Fraction(1)
    m = 1
    while m * power < order:
        c = c * (-1) * bpow * coeff / (1 - base ** m)
        bpow *= base
        out[m * power] = c
        m += 1
    return Series(out)


def binomial_series_fraction(a, base, z, order):
    """sum_k (a; base)_k / (base; base)_k (z w)**k from two lists of Pochhammer symbols, a division and a power
    per term: ``qpolys._binomial_series`` before it multiplied one integer factor per term."""
    num, den = q_pochhammers_fraction(a, base, order - 1), q_pochhammers_fraction(base, base, order - 1)
    return Series([num[k] / den[k] * Fraction(z) ** k for k in range(order)])


def q_binomial(n, k, base):
    """Gaussian binomial [n choose k] at the given base."""
    if not (0 <= k <= n):
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return q_factorial(n, base) / (q_factorial(k, base) * q_factorial(n - k, base))


def hermite_closed_fraction(s, n_max):
    """[H_0, ..., H_{n_max}] of the q-Hermite closed form sum_k (q;q)_n / ((q;q)_k (q;q)_{n-k}) e_{n-2k} on
    ``Fraction``s, (q;q)_n one running product whose factor 1 - q**(n+1) is (D**(n+1) - Q**(n+1)) / D**(n+1) for
    q = Q/D: ``symlaurent._hermite_table`` before the table was summed on the psi-rho chain."""
    Q, D = s.numerator ** 4, s.denominator ** 4
    qn, dn, qq, out = Q, D, [Fraction(1)], []
    for n in range(n_max + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(n // 2 + 1):
            coeffs[n - 2 * k] += qq[n] / (qq[k] * qq[n - k])  # when n - 2k == 0 the middle term is counted once
        out.append(SymPoly(coeffs))
        qq.append(qq[-1] * Fraction(dn - qn, dn))
        qn, dn = qn * Q, dn * D
    return out


def rho_values(ctx, y, n):
    """[rho_0(y), ..., rho_{n-1}(y)], the values of ``symlaurent._psi_rho_stream`` over psi_j; ``y`` as in
    ``eval_at``.  The library's form until it lost its last caller, kept as a reference."""
    return [v / psi for v, psi in zip(_psi_rho_stream(ctx.s, _point(ctx, y)), psi_weights(ctx, n))]


def translate_weights(ctx, y, n):
    """[w_0, ..., w_{n-1}], w_k = psi_k rho_k(y) / c**k with c = ``ctx.aw_scale``, the weights of
    ``symlaurent.q_translate``; ``y`` as in ``eval_at``.  The library's form (with those at +-eta
    held in a table per s) until it lost its last caller, kept as a reference."""
    inv_c = 1 / ctx.aw_scale
    return [v * inv_c ** k for k, v in enumerate(islice(_psi_rho_stream(ctx.s, _point(ctx, y)), n))]


def psi_rho_values(ctx, x, n):
    """[u_0, ..., u_{n-1}], u_j = psi_j rho_j(x) at real x, of ``qspecial.psi_rho_terms``.  The
    library's form until it lost its last caller, kept as a reference."""
    return list(islice(psi_rho_terms(ctx, x, psi_rho_steps(ctx)), n))


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


@lru_cache(maxsize=None)
def rho_laurent_product(s, n):
    """rho_n multiplied out as the plain Laurent polynomial
    z**-n (1 + z**2) prod_{k=0}^{n-2} (1 + q**(2-n+2k) z**2), with its
    z <-> 1/z symmetry checked exactly before folding.  With q = Q/D the factor
    at m = 2-n+2k is (D**m + Q**m z**2) / D**m for m >= 0 and
    (Q**-m + D**-m z**2) / Q**-m for m < 0, so the product is one list of
    integer coefficients of z**0, z**2, ..., z**(2n) over one integer."""
    if n == 0:
        return SymPoly.const(1)
    Q, D = s.numerator ** 4, s.denominator ** 4
    poly, den = [1, 1], 1
    for k in range(n - 1):
        m = 2 - n + 2 * k
        lo, hi = (D ** m, Q ** m) if m >= 0 else (Q ** -m, D ** -m)
        poly = [lo * a + hi * b for a, b in zip(poly + [0], [0] + poly)]
        den *= lo
    if poly != poly[::-1]:
        raise IntegrityError("Laurent polynomial is not z <-> 1/z symmetric")
    # z**(2i-n) for i = 0..n; the terms with 2i >= n fold onto the symmetric basis
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(poly):
        if 2 * i >= n:
            out[2 * i - n] += Fraction(c, den)
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


def scale_arg(a, c):
    """w -> c*w, i.e. a_k -> c**k a_k, for a Series or a PolySeries."""
    c = Fraction(c)
    out = []
    p = Fraction(1)
    for coeff in a.coeffs:
        out.append(coeff * p)
        p *= c
    return type(a)(out)


class PolySeries:
    """A truncated power series of polynomials, every coefficient a SymPoly: the polynomial-series arithmetic
    that ``fps.Series`` carried before it came to hold scalars only, kept as the reference the checks on rho
    coordinates are tested against.  Series of polynomials add and subtract; a product with a scalar ``Series``
    sums each coefficient by ``lincomb``, as the polynomial branch of ``fps._dot`` did; a divisor is a scalar
    ``Series``.  Operations truncate to the shorter order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(c if isinstance(c, SymPoly) else SymPoly.const(c) for c in coeffs)

    @property
    def order(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, PolySeries) and self.coeffs == other.coeffs

    def truncate(self, order):
        return PolySeries(self.coeffs[:order])

    def __add__(self, other):
        return PolySeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return PolySeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        """By a scalar, or by a scalar Series: coefficient k is sum_m self[k-m] other[m]."""
        if not isinstance(other, Series):
            return PolySeries([c * other for c in self.coeffs])
        return PolySeries([lincomb(zip(self.coeffs[k::-1], other.coeffs))
                           for k in range(min(self.order, other.order))])

    def __truediv__(self, other):
        """By a scalar Series with a nonzero constant term, one coefficient at a time."""
        inv, out = 1 / other[0], []
        for k in range(min(self.order, other.order)):
            out.append((self.coeffs[k] - lincomb(zip(out[::-1], other.coeffs[1:k + 1]))) * inv)
        return PolySeries(out)

    def shift_down(self):
        """Divide by w; the constant term must vanish."""
        if self.coeffs[0]:
            raise ValueError("constant term is nonzero, cannot cancel w")
        return PolySeries(self.coeffs[1:])


def shift_down(series):
    """The scalar ``Series`` divided by w; the constant term must vanish.  ``fps.Series.shift_down`` until it
    lost its last caller in the library."""
    if series.coeffs[0]:
        raise ValueError("constant term is nonzero, cannot cancel w")
    return Series(series.coeffs[1:])


def eq_exponential_series(ctx, order):
    """The q-exponential E(x; w) as a series in w: coefficient n is psi_n rho_n(x), psi_n = q**(n**2/4)/(q;q)_n."""
    return PolySeries(psi_rho_polys(ctx, order))


def exponential_at(ctx, y, order):
    """E(y; w) through w**(order-1) at a point ``y`` as in ``eval_at``: each coefficient psi_j rho_j(y) is the
    chain polynomial of ``psi_rho_polys`` evaluated at y, with no stream or table of values."""
    return Series([eval_at(ctx, p, y) for p in psi_rho_polys(ctx, order)])


def basis_series(ctx, kind, order):
    """The quotient series of basis ``kind``, sum_k c**(2k+e) (entry k of ``lidstone_basis``) w**(2k+e), with
    c = ``ctx.aw_scale`` and e from the kind's ``BASES`` row."""
    e, c = BASES[kind][3], ctx.aw_scale
    out = [SymPoly.zero()] * order
    for k, b in enumerate(lidstone_basis(ctx, kind, (order - 1 - e) // 2)):
        out[2 * k + e] = b * c ** (2 * k + e)
    return PolySeries(out)


def factor_parts(s, order):
    """(plus, minus, diff_over_w, summ) for the (+-w; sqrt q)_inf factors,
    each carrying exactly ``order`` coefficients."""
    p = s * s
    plus = pochhammer_series(-1, 1, p, order + 1)   # (-w; p)_inf
    minus = pochhammer_series(+1, 1, p, order + 1)  # (w; p)_inf
    diff_over_w = shift_down(plus - minus)
    summ = (plus + minus).truncate(order)
    return plus.truncate(order), minus.truncate(order), diff_over_w, summ


def _qw2_series(s, order):
    q = s ** 4
    return pochhammer_series(q, 2, q * q, order)  # (q w**2; q**2)_inf


def family_quotient(ctx, kind, order):
    """Entries n < order of family ``kind`` in division form, the polynomial series N(w) E(x; w) over the
    scalar series D(w) of the ``qpolys`` docstring, with N and D built here from their product factors."""
    _, minus, diff_over_w, summ = factor_parts(ctx.s, order)
    num = _qw2_series(ctx.s, order) if kind.startswith("suslov") else minus * 2 if kind == "new_E" else minus
    den = diff_over_w if kind in ("suslov_B", "new_beta") else summ
    return ((eq_exponential_series(ctx, order) * num) / den).coeffs


def family_division(ctx, kind, order):
    """Entries n < order of family ``kind`` in division form on the N and D of ``qpolys._family_parts``, read
    through the module, so that a patched one is seen: the families without their tables or ``psi_rho_sum``."""
    num, den = qpolys._family_parts(ctx.s, kind, order)
    return ((eq_exponential_series(ctx, order) * num) / den).coeffs


# the checks that the multipliers G decide on an audited psi-rho chain, each failing where the audit fails
CHAIN_CHECKS = ("ladders", "eq17", "reflection_B", "eq18", "numbers_agree_Eq10")
POLYNOMIAL_CHECKS = ("connection_F1", "connection_F2", "reflection_beta", "eq16", "translation_B",
                     "translation_E", "eq4_decomposition", "euler_decomposition", "hermite_rep") + CHAIN_CHECKS
NOTES = {  # the registry's notes on these checks
    "eq16": ("stated with an extra (-1)**(n-k); the signless form is the one consistent with the value beta_n at "
             "the reflected node (detected erratum)"),
    "eq4_decomposition": ("the product form of the B-quotient carries the denominator with the opposite sign "
                          "order to its exponential-quotient form (detected erratum)."),
    "hermite_rep": ("prefactor is (q t**2; q**2)_inf; the commonly misprinted (q**2 t**2; q**2)_inf fails at "
                    "degree 2"),
}


def polynomial_check(ctx, name, n_max):
    """The report of registry check ``name``, one of :data:`POLYNOMIAL_CHECKS`, in its polynomial form: the family
    tables of ``build_family`` convolved with the connection coefficients, reflected, or translated by
    ``q_translate`` entry by entry; eq16 as the Suslov Bernoulli table against the Askey-Wilson factorials phi_k =
    (-q**(1/4) z, -q**(1/4)/z; sqrt q)_k of ``qpolys._aw_factorials``, read through the module so that a patched one
    is seen, over (q; q)_k and convolved with the beta numbers; the decompositions as products of the basis quotient
    series of ``lidstone_basis`` with E(eta; w) of :func:`exponential_at`, against E(x; w); (q t**2; q**2)_inf E(x; t)
    against the q-Hermite closed form :func:`hermite_closed_fraction`; the :data:`CHAIN_CHECKS` on the families of
    :func:`family_division`, eq17 against the product form :func:`rho_laurent_product` times the closed-form psi_k,
    convolved with the beta numbers, eq18 as the Hermite table against the Suslov Bernoulli family convolved with
    W_{2k} = q**(k**2+k/2) / (p; p)_{2k+1} and scaled by 2 q**(-n**2/4) (q;q)_n, and numbers_agree_Eq10 as the
    Suslov families evaluated at -eta and the new Euler family at 0, against the number tables."""
    q, p, ns, order = ctx.q, ctx.sqrt_q, range(n_max + 1), n_max + 1

    def convolve(entries, coefs):
        return (PolySeries(entries) * Series(coefs)).coeffs

    def family(kind):
        return family_division(ctx, kind, order) if name in CHAIN_CHECKS else build_family(ctx, kind, n_max)

    big, beta = family("suslov_B"), family("new_beta")
    if name == "connection_F1":
        coefs = [q_pochhammer(-1 / p, q, k) / q_pochhammer(q, q, k) * (-p) ** k for k in ns]
        pairs = zip(ns, beta, convolve(big, coefs))
    elif name == "connection_F2":
        coefs = [q_pochhammer(-p, q, k) / q_pochhammer(q, q, k) for k in ns]
        pairs = zip(ns, big, convolve(beta, coefs))
    elif name == "eq16":
        phi = [f / q_pochhammer(q, q, k) for k, f in enumerate(qpolys._aw_factorials(-ctx.s, p, n_max))]
        pairs = zip(ns, big, convolve(phi, qpolys.build_numbers(ctx, "beta_q", n_max)))
    elif name == "reflection_beta":
        conv = convolve(beta, [q_pochhammer(-1, p, k) / q_pochhammer(p, p, k) for k in ns])
        pairs = [(n, beta[n].reflect(), conv[n] * Fraction(-1) ** n) for n in ns]
    elif name == "translation_B":
        pairs = [(n, q_translate(ctx, b, "minus_eta"), nb) for n, b, nb in zip(ns, big, beta)]
    elif name == "translation_E":
        se, ne = family("suslov_E"), family("new_E")
        pairs = [(n, q_translate(ctx, e, "minus_eta"), e2 / 2) for n, e, e2 in zip(ns, se, ne)]
    elif name == "eq4_decomposition":
        recon = basis_series(ctx, "A", order) * exponential_at(ctx, "eta", order) - basis_series(ctx, "B", order)
        pairs = zip(ns, recon.coeffs, psi_rho_polys(ctx, order))
    elif name == "euler_decomposition":
        recon = basis_series(ctx, "M", order) + basis_series(ctx, "Mtilde", order) * exponential_at(ctx, "eta", order)
        pairs = zip(ns, recon.coeffs, psi_rho_polys(ctx, order))
    elif name == "hermite_rep":
        lhs, psi = eq_exponential_series(ctx, order) * _qw2_series(ctx.s, order), psi_weights(ctx, order)
        pairs = [(n, lhs[n], h * psi[n]) for n, h in enumerate(hermite_closed_fraction(ctx.s, n_max))]
    elif name == "ladders":
        pairs = [(n, aw_derivative(ctx, f[n]), f[n - 1] * ctx.aw_scale)
                 for f in map(family, FAMILY_KINDS) for n in range(1, order)]
    elif name == "eq17":
        products = [rho_laurent_product(ctx.s, k) * psi_weight(ctx, k) for k in ns]
        pairs = zip(ns, beta, convolve(products, qpolys.build_numbers(ctx, "beta_q", n_max)))
    elif name == "reflection_B":
        pairs = [(n, b.reflect(), b * Fraction(-1) ** n) for n, b in zip(ns, big)]
    elif name == "eq18":
        conv = convolve(big, [q ** (n * n // 4) * p ** (n // 2) / q_pochhammer(p, p, n + 1) if n % 2 == 0 else 0
                              for n in ns])
        pairs = [(n, special_poly(ctx, "hermite", n), conv[n] * 2 / psi_weight(ctx, n)) for n in ns]
    elif name == "numbers_agree_Eq10":
        se, ne = family("suslov_E"), family("new_E")
        beta_q, suslov_bq, suslov_eq = (qpolys.build_numbers(ctx, k, n_max)
                                        for k in ("beta_q", "suslov_Bq", "suslov_Eq"))
        pairs = []
        for n in ns:
            b, e = eval_at(ctx, big[n], "minus_eta"), eval_at(ctx, se[n], "minus_eta")
            pairs += [(n, b, beta_q[n]), (n, b, suslov_bq[n]), (n, e, suslov_eq[n]),
                      (n, e, eval_at(ctx, ne[n], "zero") / 2)]
    else:
        raise ValueError(f"no polynomial form of {name!r}")
    return _report(name, n_max, pairs, note=NOTES.get(name, ""))


DECOMPOSITION_PARTS = {  # the registry's parts (a, basis, eta) of each decomposition
    "eq4_decomposition": ((1, "A", True), (-1, "B", False)),
    "euler_decomposition": ((1, "M", False), (1, "Mtilde", True)),
}


def decomposition_by_products(ctx, name, n_max):
    """The report of decomposition check ``name`` on rho coordinates, by the route the registry took before it read
    the shared products: each part of parity p of each multiplier, zero or not, times E(eta; w) by its own Series
    product where the part carries the eta factor, E(eta; w) of :func:`exponential_at`, and each Y_p[t] accumulated as
    a reduced Fraction.  ``BASES`` and the multipliers are read through ``qpolys``, so that a patched one is seen."""
    parts, bases = DECOMPOSITION_PARTS[name], qpolys.BASES
    lo = min(0, *(1 - bases[kind][1] + bases[kind][3] for _, kind, _ in parts))  # the lowest t with a term
    ys = [[Fraction(0)] * (n_max + 2 - p - lo) for p in (0, 1)]  # Y_p[t] at t - lo, for t <= n_max + 1 - p
    for a, kind, eta in parts:
        family, shift, weight, e = bases[kind]
        d, last = shift - e, 2 * ((n_max - e) // 2) + shift
        g = qpolys._multiplier(ctx, family, max(n_max, last) + 1).coeffs
        for p, y in enumerate(ys):
            size = n_max + 1 - p + d
            if size > 0:
                part = Series([g[i] if (i - shift - p) % 2 == 0 and i <= last else 0 for i in range(size)])
                for i, v in enumerate((part * exponential_at(ctx, "eta", size) if eta else part).coeffs):
                    y[i + 1 - d - lo] += a * weight * v
    first = [n_max + 1] * 2
    for p, y in enumerate(ys):
        for n, v in enumerate(y, lo - 1 + p):
            if v != (n == p):
                first[n % 2] = min(first[n % 2], n)
    results = tuple((n, n < first[n % 2]) for n in range(n_max + 1))
    bad = next((n for n, ok in results if not ok), None)
    shown = None
    if bad is not None:
        lhs = qpolys.psi_rho_sum(ctx, [ys[j % 2][bad - j + 1 - lo] for j in range(bad + 2 - lo)])
        shown = {"n": bad, "lhs": qpolys._render_side(lhs), "rhs": qpolys._render_side(qpolys.psi_rho_poly(ctx, bad))}
    return qpolys.IdentityReport(name, n_max, bad is None, results, shown, NOTES.get(name, ""))


def eta_exponential_series(ctx, order):
    """Scalar series of the q-exponential at the node eta, by its product form:
    (-w; sqrt q)_inf / (q w**2; q**2)_inf."""
    plus, _, _, _ = factor_parts(ctx.s, order)
    return plus / _qw2_series(ctx.s, order)


def lidstone_quotients(ctx, kind, order):
    """Plain coefficient series of the four interpolation-basis quotients, by series division.

    A: (q w**2)_inf [E(x;w) - E(x;-w)] / [(-w;p)_inf - (w;p)_inf]   (even)
    B: [(w;p) E(x;w) - (-w;p) E(x;-w)] / [(-w;p)_inf - (w;p)_inf]   (even)
    M: [(w;p) E(x;w) - (-w;p) E(x;-w)] / [(w;p)_inf + (-w;p)_inf]   (odd)
    Mtilde: (q w**2)_inf [E(x;w) + E(x;-w)] / [(-w;p) + (w;p)]      (even)
    """
    plus, minus, diff_over_w, summ = factor_parts(ctx.s, order + 1)
    eqe = eq_exponential_series(ctx, order + 1)
    eqe_neg = scale_arg(eqe, -1)
    if kind == "A":
        num = ((eqe - eqe_neg) * _qw2_series(ctx.s, order + 1)).shift_down()
        return num / diff_over_w
    if kind == "B":
        # the numerator and diff = w * diff_over_w are odd, so w is cancelled from both before dividing
        return (eqe * minus - eqe_neg * plus).shift_down() / diff_over_w
    if kind == "M":
        return (eqe * minus - eqe_neg * plus) / summ
    if kind == "Mtilde":
        return ((eqe + eqe_neg) * _qw2_series(ctx.s, order + 1)) / summ
    raise ValueError(f"unknown basis kind {kind!r}")


def dot_fraction(pairs):
    """sum of a * b over pairs, zero factors skipped, each product added to a running Fraction with
    a gcd at every step; Fraction(0) when every product is zero: the scalar dot that ``fps`` summed
    by before ``qcore._dot`` summed it on integers."""
    acc = None
    for a, b in pairs:
        if a and b:
            term = a * b
            acc = term if acc is None else acc + term
    return Fraction(0) if acc is None else acc


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


def _zp_sub(a, b):
    """a - b for coefficient tuples of any lengths, trailing zeros trimmed."""
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def bp_numbers_recurrence(d, n_max):
    """B_0..B_{n_max} from the triangular system: with d_k = delta_k/[k]_p!
    and b_k = B_k/[k]_p!, b_0 = 1/d_1 and sum_{j<k} b_j d_{k-j} = 0."""
    fact = [q_factorial(k, d.p) for k in range(n_max + 2)]
    dk = [d.delta[k] / fact[k] for k in range(n_max + 2)]
    if dk[1] == 0:
        raise ZeroDivisionError("delta_1 = 0 makes the number recurrence singular")
    b = [Fraction(1) / dk[1]]
    for k in range(2, n_max + 2):
        b.append(-sum((b[j] * dk[k - j] for j in range(k - 1)), Fraction(0)) / dk[1])
    return tuple(b[n] * fact[n] for n in range(n_max + 1))


def solve_difference_bp_sum(f, d):
    """g = sum_n f_n B_{n+1}(z) / [n+1]_p, summed term by term over the polynomials
    B_n(z) = sum_k [n choose k]_p B_{n-k} z**k built from the recurrence numbers."""
    n_max = len(f)
    numbers = bp_numbers_recurrence(d, n_max)
    fact = [q_factorial(k, d.p) for k in range(n_max + 1)]
    out = [Fraction(0)] * (n_max + 1)
    for n, a in enumerate(f):
        scale = Fraction(a) / q_number(n + 1, d.p)
        for k in range(n + 2):
            out[k] += scale * fact[n + 1] / (fact[k] * fact[n + 1 - k]) * numbers[n + 1 - k]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def verify_solution_subtract(f, g, d):
    """Index of the first nonzero coefficient of T g - g - f, the two differences
    taken by tuple subtraction and T by :func:`translate_coeffs_fraction` with
    delta on the basis z**n / [n]_p!."""
    f = tuple(Fraction(c) for c in f) or (Fraction(0),)
    g = tuple(Fraction(c) for c in g) or (Fraction(0),)
    weights = [1 / q_factorial(k, d.p) for k in range(len(g))]
    r = _zp_sub(_zp_sub(translate_coeffs_fraction(g, weights, d.delta), g), f)
    return next((i for i, c in enumerate(r) if c != 0), None)


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
            term = big[2 * k + 1] * (weight * data_eta[k]) - beta[2 * k + 1] * (weight * data0[k])
            recon = recon + term
        return recon
    if kind == "euler":
        tilde = build_family(ctx, "new_E", 2 * K + 1)
        se = build_family(ctx, "suslov_E", 2 * K)
        for k in range(K + 1):
            recon = recon + tilde[2 * k + 1] * (c ** (-2 * k - 1) * data0[k])
            recon = recon + se[2 * k] * (2 * c ** (-2 * k) * data_eta[k])
        return recon
    raise ValueError(f"unknown kind {kind!r}")


def safe_float_mantissa(x):
    """Fraction/int/float to float, falling back past the float range to a 54-bit
    floor of the quotient scaled by ldexp: the conversion before it saturated directly."""
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

    def sinq(k):
        qq = qq_float(q, 2 * k + 1)
        try:
            return q ** (k * (2 * k + 1)) * ((1 - q) * w) ** (2 * k + 1) / qq
        except OverflowError:  # the library's second form, where the power of w alone leaves the float range
            t = (q ** k * (1 - q) * w) ** (2 * k + 1) / qq
            if math.isinf(t):
                raise
            return t

    def sq(k):
        qq = qq_float(rq, 2 * k + 1)
        try:
            return q ** (k * k) * rq ** k * w ** (2 * k + 1) / qq
        except OverflowError:  # the library's second form, where the power of w alone leaves the float range
            t = (rq ** k * w) ** (2 * k + 1) / qq
            if math.isinf(t):
                raise
            return t

    terms = {
        "Sq_eta": sq,
        "Cq_eta": lambda k: q ** (k * k) / rq ** k * w ** (2 * k) / qq_float(rq, 2 * k),
        "Sinq": sinq,
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
    raise LimitError("did not converge in 400 terms")


def smallest_positive_zero_full_scan(kind, q):
    """``qspecial.smallest_positive_zero`` with f evaluated at every grid point from the scan start
    on, as before the scan stepped over the range where the series is proved positive."""
    f = lambda w: _eta_series_value(kind, q, w)
    try:
        if kind == "Sq_eta":
            lo = math.sqrt(sq_lower_bound(q)) * (1 - 1e-12)
            cap = hayman_zero_estimate(3, 0.5, q) / 2.0
        elif kind == "Cq_eta":
            p = math.sqrt(q)
            lo = min(1e-3 * q, math.sqrt((1 - p) * (1 - q) / p) * (1 - 1e-12))
            cap = hayman_zero_estimate(3, -0.5, q) / 2.0
        elif kind == "Sinq":
            lo = 1e-3
            try:
                cap = 10.0 * hayman_zero_estimate(3, 0.5, q * q) / 2.0
            except OverflowError:  # the library's cap where the estimate leaves the float range
                cap = 10.0 * math.sqrt((1 - q * q) * (1 - q ** 3) / q ** 3) / (1 - q)
                if math.isinf(cap):
                    raise
        else:
            raise ValueError(f"unknown kind {kind!r}")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ZeroSearchError(f"{kind} scan bounds at q = {q!r} leave the float range") from exc
    a, b, mid = _scan_and_bisect(f, lo, cap, 1.05)  # no positive range: every grid point from lo is evaluated
    a2, b2, mid2 = _scan_and_bisect(f, lo, cap, 1.01)
    if mid2 < mid * (1 - 1e-6):
        a, b, mid = a2, b2, mid2
    residual = abs(_eta_series_value(kind, q, mid) if kind == "Sinq" else _trig_eta_residual(kind, q, mid))
    bound_check = kind != "Sq_eta" or mid * mid >= sq_lower_bound(q) * (1 - 1e-12)
    return ZeroReport(kind=kind, value=mid, bracket=(a, b), residual=residual, bound_check=bound_check)


def eq_eval(ctx, x, w):
    """The q-exponential at real x, |w| < 1, by its rho-basis series
    sum_n u_n w**n, u_n from ``qspecial.psi_rho_terms``.

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


def basic_trig(ctx, x, w, kind):
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


def jackson_bessel_j2(nu, z, q):
    """Second Jackson q-Bessel function J_nu^(2)(z; q) for z >= 0, around the
    series body ``qspecial._bessel_body`` whose zeros the library finds."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        return 0.0 if nu > 0 else (1.0 if nu == 0 else math.inf)
    pref_num, _ = q_pochhammer_inf(q ** (nu + 1.0), q, 1e-15)
    pref_den, _ = q_pochhammer_inf(q, q, 1e-15)
    return pref_num / pref_den * (z / 2.0) ** nu * _bessel_body(nu, (z / 2.0) ** 2, q)


def entire_fn_poly(ctx, f):
    """The polynomial of a terminating ``lidstone.EntireFn``: sum_j (f_j / psi_j) psi_j rho_j."""
    return psi_rho_sum(ctx, [c / psi for c, psi in zip(f.stream, psi_weights(ctx, len(f.stream)))])


def trig_rho_stream_closed(ctx, kind, w, n_terms):
    """The rho coefficients f_0..f_{n_terms-1} of ``lidstone.trig_rho_stream`` by their closed forms:
      sine:    f_{2n+1} = (-1)**n q**(1/4) q**(n**2+n) w**(2n+1) / (q;q)_{2n+1}
      cosine:  f_{2n}   = (-1)**n q**(n**2) w**(2n) / (q;q)_{2n}
      E_even:  f_{2n}   = psi_{2n} w**(2n), psi_{2n} from :func:`psi_weight`"""
    s, q, w = ctx.s, ctx.q, Fraction(w)
    out = [Fraction(0)] * n_terms
    for m in range(kind == "S", n_terms, 2):
        n = m // 2
        if kind == "S":
            out[m] = Fraction(-1) ** n * s * q ** (n * n + n) * w ** m / q_pochhammer(q, q, m)
        elif kind == "C":
            out[m] = Fraction(-1) ** n * q ** (n * n) * w ** m / q_pochhammer(q, q, m)
        else:
            out[m] = psi_weight(ctx, m) * w ** m
    return tuple(out)


def basic_trig_eta_closed(ctx, w, kind):
    """:func:`basic_trig` at eta, (-q**(-1/2); q)_m and (q; q)_m from their closed forms."""
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
    by back-substitution and rho_j(x) from its product form."""
    c = change_basis_to(ctx, recon, "rho")
    n = max(len(stream), len(c))
    d = [(stream[j] if j < len(stream) else 0) - (c[j] if j < len(c) else 0) for j in range(n)]
    terms = [(dj, rho_laurent_product(ctx.s, j)) for j, dj in enumerate(d) if dj]
    return max((abs(sum((dj * eval_at(ctx, rj, x) for dj, rj in terms), Fraction(0))) for x in grid),
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
def fraction_special_poly(ctx, family, n, a=None):
    """``monomial``, ``rho``, ``hermite`` and ``phi`` members as FractionSymPolys: x**n, rho_n by
    its recurrence, H_n(x|q) by its q-binomial sum and (a e^{i theta}, a e^{-i theta}; q)_n as the
    product of 1 + c**2 - c (z + 1/z) over c = a q**k, k < n."""
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
    if family == "phi":
        out = FractionSymPoly.const(1)
        for k in range(n):
            c = a * q ** k
            out = out * FractionSymPoly([1 + c * c, -c])
        return out
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
