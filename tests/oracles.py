"""Slow reference implementations that the fast paths in ``qlidstone`` are
tested against.  Each one computes its result by the textbook definition,
term by term, with no shared structure; the library versions must agree
with them exactly.
"""

from fractions import Fraction

from qlidstone.qcore import IntegrityError, q_binomial, safe_float
from qlidstone.qpolys import build_family
from qlidstone.symlaurent import SymPoly, aw_derivative, change_basis, eval_at, poly_from_basis, special_poly


def q_translate_hermite(ctx, p, y):
    """E_q^y on the q-Hermite basis:
    E_q^y H_n = sum_m [n choose m]_q H_m g_{n-m}(y) q**((m**2-n**2)/4),
    extended to all polynomials by linearity."""
    h = change_basis(ctx, p, "hermite")
    d = len(h) - 1
    s = ctx.s
    q = ctx.q
    gvals = [eval_at(ctx, special_poly(ctx, "g", j), y) for j in range(d + 1)]
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


def float_terms_scaled(ctx, stream):
    """Combined float Chebyshev coefficients of sum f_k rho_k, each basis
    polynomial scaled by f_k as a SymPoly and every reduced product rounded
    by ``safe_float``."""
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
