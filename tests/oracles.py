"""Slow reference implementations that the fast paths in ``qlidstone`` are
tested against.  Each one computes its result by the textbook definition,
term by term, with no shared structure; the library versions must agree
with them exactly.
"""

from fractions import Fraction

from qlidstone.qcore import q_binomial
from qlidstone.symlaurent import change_basis, eval_at, poly_from_basis, special_poly


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
