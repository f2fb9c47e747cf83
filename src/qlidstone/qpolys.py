"""The four q-Bernoulli / q-Euler polynomial families and their identities.

All four families are generated from quotients of the q-exponential series
by combinations of the factors (+-w; sqrt(q))_inf:

* ``suslov_B``  : w (qw**2; q**2)_inf E(x; w) / [(-w; p)_inf - (w; p)_inf]
* ``new_beta``  : w (w; p)_inf       E(x; w) / [(-w; p)_inf - (w; p)_inf]
* ``suslov_E``  : (qw**2; q**2)_inf  E(x; w) / [(-w; p)_inf + (w; p)_inf]
* ``new_E``     : 2 (w; p)_inf       E(x; w) / [(-w; p)_inf + (w; p)_inf]

with p = sqrt(q).  The Bernoulli denominators vanish at w = 0; the shared
power of w is cancelled before dividing, leaving the constant term
2/(1 - sqrt(q)).  Each family is G(w) E(x; w) with the scalar series
G = N/D of :func:`family_multiplier`, so its entry n is sum_j G_{n-j} psi_j rho_j: the family tables, the
interpolation bases and the expansions are all summed so.  The identity registry checks the cross-relations between
the families exactly, on scalar series of G, on rho coordinates read off G and E(eta; w), or, for the Hermite check,
on the Hermite table against its closed form.  ladders, eq17, reflection_B, eq18 and numbers_agree_Eq10 are decided
on G where the stored audit of the psi-rho chain, :func:`_chain_audit`, holds, and eq16 where the stored audit of its
lemma, :func:`_phi_audit`, holds; a failed audit fails the check.  The products that several checks read are taken
once per s, by :func:`_product`, E(+-eta; w) off the boundary data's eta table.  No series of polynomials is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .qcore import QContext, _dot, correlate, over_common_den, psi_weights, q_factorials, q_pochhammers, table
from .fps import Series, pochhammer_series
from .symlaurent import (SymPoly, _aw_factorials, aw_derivative, eval_at, psi_rho_at_eta, psi_rho_poly, psi_rho_polys,
                         psi_rho_sum, special_poly)

FAMILY_KINDS = ("suslov_B", "new_beta", "suslov_E", "new_E")
# basis -> (family, n - 2k, weight, e): entry k is weight c**(-2k-e) (family entry n), with c the
# ladder scale 2 q**(1/4)/(1-q); A and B span the Bernoulli expansion, M and Mtilde the Euler one
BASES = {
    "A": ("suslov_B", 1, 2, 0),
    "B": ("new_beta", 1, 2, 0),
    "M": ("new_E", 1, 1, 1),
    "Mtilde": ("suslov_E", 0, 2, 0),
}
BASIS_KINDS = tuple(BASES)


# -- scalar building blocks ------------------------------------------------


def _qw2_series(s: Fraction, order: int) -> Series:
    q = s ** 4
    return pochhammer_series(q, 2, q * q, order)  # (q w**2; q**2)_inf


def _family_parts(s: Fraction, kind: str, order: int) -> Tuple[Series, Series]:
    """(N, D) with the generating function of family ``kind`` equal to N(w) E(x; w) / D(w), as in
    the module docstring; D carries ``order`` coefficients, N at least as many."""
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    plus = pochhammer_series(-1, 1, s * s, order + 1)  # (-w; p)_inf
    minus = _at_minus_w(plus)  # (w; p)_inf
    num = _qw2_series(s, order) if kind.startswith("suslov") else minus * 2 if kind == "new_E" else minus
    odd = kind in ("suslov_B", "new_beta")  # D is the odd part of 2 (-w; p)_inf over w, else its even part
    return num, Series([2 * c if m % 2 == odd else 0 for m, c in enumerate(plus.coeffs)][odd:order + odd])


@table
def family_multiplier(s: Fraction, kind: str, order: int) -> Series:
    """The scalar series G = N/D with family generating function G(w) E(x; w), so
    family entry n is sum_j G_{n-j} psi_j rho_j on the rho basis."""
    num, den = _family_parts(s, kind, order)
    return num / den


def family_rho(ctx: QContext, terms, order: int) -> List[Fraction]:
    """r_0..r_{order-1} with sum of a * (family ``kind`` entry n) over the terms
    (kind, n, a), n < order, equal to sum_j r_j psi_j rho_j.

    Family entry n is sum_j G_{n-j} psi_j rho_j with G = :func:`family_multiplier`,
    so r_j = sum over the terms of a G_{n-j}, one :func:`qcore._dot` each.
    """
    gs = [(family_multiplier(ctx.s, kind, order).coeffs, n, a) for kind, n, a in terms if a]
    return [_dot((a, g[n - j]) for g, n, a in gs if j <= n) for j in range(order)]


# -- families ----------------------------------------------------------------


def _multiplier(ctx: QContext, kind: str, order: int) -> Series:
    """:func:`family_multiplier` asked at an even order, as :func:`lidstone_basis` asks it: a registry job
    at an even order n would otherwise build it at n + 1 for the families and again at n + 2 for the bases."""
    return family_multiplier(ctx.s, kind, order + order % 2)


@table
def _family_series(ctx: QContext, kind: str, order: int) -> List[SymPoly]:
    """Entries n < order of family ``kind``, each sum_j G_{n-j} psi_j rho_j by :func:`psi_rho_sum`, with
    G = :func:`family_multiplier`: a list, which the store cuts to a prefix."""
    g = _multiplier(ctx, kind, order).coeffs
    return [psi_rho_sum(ctx, g[n::-1]) for n in range(order)]


def build_family(ctx: QContext, kind: str, n_max: int) -> Tuple[SymPoly, ...]:
    """Family polynomials for indices 0..n_max."""
    return tuple(_family_series(ctx, kind, n_max + 1))


# -- numbers -------------------------------------------------------------------


def build_numbers(ctx: QContext, kind: str, n_max: int) -> Tuple[Fraction, ...]:
    """Number sequences attached to the families.

    ``beta_q`` (the new-Bernoulli family at x = 0, where only rho_0 is
    nonzero) and ``suslov_Bq`` are the multiplier of ``new_beta``, and
    ``suslov_Eq`` that of ``new_E`` / 2, read off their scalar series;
    ``im_Bq`` uses :func:`im_bernoulli_numbers` at base q.
    """
    if kind in ("beta_q", "suslov_Bq"):
        return family_multiplier(ctx.s, "new_beta", n_max + 1).coeffs
    if kind == "suslov_Eq":
        return tuple(c / 2 for c in family_multiplier(ctx.s, "new_E", n_max + 1).coeffs)
    if kind == "im_Bq":
        return im_bernoulli_numbers(ctx.q, n_max)
    raise ValueError(f"unknown number kind {kind!r}")


def im_bernoulli_numbers(q: Fraction, n_max: int) -> Tuple[Fraction, ...]:
    """Numbers B_n(q) = [n]_q! times entry n of :func:`im_bernoulli_quotients`."""
    return tuple(b * f for b, f in zip(im_bernoulli_quotients(q, n_max), q_factorials(n_max, q)))


def im_bernoulli_quotients(q: Fraction, n_max: int) -> Tuple[Fraction, ...]:
    """B_n(q)/[n]_q! for n = 0..n_max: the coefficients of y / (e_q(y/2) E_q(y/2) - 1).

    Needs only integer powers of q, so any rational base works.  The
    denominator expands as sum_{n>=1} (-1; q)_n y**n / (2**n [n]_q!); one
    power of y is cancelled before dividing.  The series is kept per base.
    """
    return _im_bernoulli_series(Fraction(q), n_max + 1).coeffs


@table
def _im_bernoulli_series(q: Fraction, order: int) -> Series:
    poch = q_pochhammers(-1, q, order)
    fact = q_factorials(order, q)
    denom = [poch[n] / (Fraction(2 ** n) * fact[n]) for n in range(1, order + 1)]
    return Series.one(order) / Series(denom)


# -- the two-point interpolation bases -------------------------------------------


def basis_term(kind: str, k: int, c: Fraction, a=1) -> Tuple[str, int, Fraction]:
    """(family, n, a w) with entry k of basis ``kind`` equal to w (family entry n), read off its
    :data:`BASES` row; c is ``ctx.aw_scale``."""
    family, shift, weight, e = BASES[kind]
    return family, 2 * k + shift, a * (weight * c ** (-2 * k - e))


def lidstone_basis(ctx: QContext, kind: str, k_max: int) -> Tuple[SymPoly, ...]:
    """Interpolation-basis polynomials k = 0..k_max, the scaled family entries of :data:`BASES`.

    Each is summed as sum_j r_j psi_j rho_j, r_j from :func:`family_rho`, by
    :func:`symlaurent.psi_rho_sum`, as the expansions are; the tests pin it
    against the family tables and against the defining quotient series.
    """
    if kind not in BASES:
        raise ValueError(f"unknown basis kind {kind!r}")
    c = ctx.aw_scale
    return tuple(psi_rho_sum(ctx, family_rho(ctx, [basis_term(kind, k, c)], 2 * k_max + 2))
                 for k in range(k_max + 1))


def _times_eta(ctx: QContext, coeffs, sign: int) -> Tuple[Fraction, ...]:
    """The coefficients w**m, m < len(coeffs), of S(w) E(sign eta; w) for S(w) = sum_m coeffs[m] w**m: S over one
    denominator and reversed, :func:`qcore.correlate`d with the boundary data's eta table
    :func:`symlaurent.psi_rho_at_eta`, its entry j taken times sign**j."""
    u, du = over_common_den(reversed(coeffs))
    e, de = psi_rho_at_eta(ctx, len(u))
    return correlate(u, [v * sign ** j for j, v in enumerate(e)], du * de, ((len(u) - 1 - m, 1) for m in range(len(u))))


def _at_minus_w(series: Series) -> Series:
    """S(-w): the odd coefficients negated."""
    return Series([-v if m % 2 else v for m, v in enumerate(series.coeffs)])


# -- identity registry ---------------------------------------------------------


def _rho_products(ctx: QContext, n: int) -> List[SymPoly]:
    """[psi_k rho_k for k < n] off the chain, rho_k in its product form z**-k (1 + z**2) (-q**(2-k) z**2; q**2)_{k-1}:
    its factors pair so that rho_{k+2} = rho_k (q**k + q**-k + z**2 + z**-2), from rho_0 = 1 and rho_1 = z + 1/z."""
    q, rho = ctx.q, [SymPoly.const(1), SymPoly([0, 1])]
    for k in range(n - 2):
        rho.append(rho[k] * SymPoly([q ** k + q ** -k, 0, 1]))
    return [r * w for r, w in zip(rho, psi_weights(ctx, n))]


@table
def _chain_audit(ctx: QContext, n: int) -> List[bool]:
    """Verdict j < n holds when P_j = psi_j rho_j is entry j of :func:`_rho_products` (so of degree j and parity j, and
    P_j(0) = [j == 0]), D P_j = c P_{j-1} (D P_0 = 0) and P_j(-eta) D = (-1)**j e_j on the integers e_j / D of the eta
    table :func:`symlaurent.psi_rho_at_eta`."""
    chain, c, (e, d) = psi_rho_polys(ctx, n), ctx.aw_scale, psi_rho_at_eta(ctx, n)
    return [p == r and aw_derivative(ctx, p) == (chain[j - 1] * c if j else 0)
            and eval_at(ctx, p, "minus_eta") * d == (-1) ** j * e[j]
            for j, (p, r) in enumerate(zip(chain, _rho_products(ctx, n)))]


@dataclass
class IdentityReport:
    name: str
    max_n: int
    passed: bool
    results: Tuple[Tuple[int, bool], ...]
    first_failure: Optional[Dict] = None
    note: str = ""


def registry_names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def check_identity(ctx: QContext, name: str, n_max: int) -> IdentityReport:
    """Evaluate both sides of a registered identity exactly for n <= n_max.  A check of :data:`_AUDITS` holds on G
    only where its stored audit does: if the audit fails first at j, every entry n >= j fails, and the first failure
    is entry j, named with the audit, unless an entry below j already fails."""
    try:
        checker = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(_REGISTRY)}") from None
    audit = _AUDITS.get(name)
    bad = next((j for j, ok in enumerate(audit(ctx, n_max + 1)) if not ok), None) if audit else None
    report = checker(ctx, n_max)
    if bad is None:
        return report
    if report.passed or report.first_failure["n"] >= bad:
        report.first_failure = {"n": bad, "audit": audit.__name__[1:]}
    report.passed, report.results = False, tuple((n, ok and n < bad) for n, ok in report.results)
    return report


def _report(name, n_max, pairs, note=""):
    """The report on the pairs (n, lhs, rhs), each compared exactly; the first that differ are shown."""
    results, first = [], None
    for n, lhs, rhs in pairs:
        ok = lhs == rhs
        results.append((n, ok))
        if not ok and first is None:
            first = {"n": n, "lhs": _render_side(lhs), "rhs": _render_side(rhs)}
    return IdentityReport(name, n_max, first is None, tuple(results), first, note)


def _render_side(v):
    if isinstance(v, SymPoly):
        return [str(c) for c in v.to_monomial()][::-1]
    return str(v)


def _series_report(ctx, name, n_max, lhs, rhs, sign=1, note=""):
    """The report :func:`_report` gives on entries n <= n_max of the families lhs(w) E(x; w) and rhs(w) E(x; w),
    for scalar series lhs and rhs (Series or coefficient lists), entry n taken as sign**n sum_j S_{n-j} psi_j rho_j.
    The entries n agree exactly when the series agree through w**n, so only the first entries that differ are
    summed, to be shown."""
    bad = next((m for m in range(n_max + 1) if lhs[m] != rhs[m]), n_max + 1)

    def entry(series):
        return psi_rho_sum(ctx, [v * sign ** bad for v in series[bad::-1]])

    first = None if bad > n_max else {"n": bad, "lhs": _render_side(entry(lhs)), "rhs": _render_side(entry(rhs))}
    return IdentityReport(name, n_max, first is None, tuple((n, n < bad) for n in range(n_max + 1)), first, note)


def _binomial_series(a, base, z, order: int) -> Series:
    """sum_k (a; base)_k / (base; base)_k (z w)**k, by the q-binomial theorem (a z w; base)_inf / (z w; base)_inf.
    Term k is term k - 1 times (1 - a base**i) z / (1 - base**(i+1)), i = k - 1: with a = an/ad, base = bn/bd
    and z = zn/zd, the one Fraction (ad bd**i - an bn**i) bd zn / ((bd**(i+1) - bn**(i+1)) ad zd)."""
    (an, ad), (bn, bd), (zn, zd) = (Fraction(x).as_integer_ratio() for x in (a, base, z))
    out, ai, di, bi, ci = [Fraction(1)], an, ad, bn, bd  # an bn**i, ad bd**i, bn**(i+1), bd**(i+1)
    for _ in range(order - 1):
        out.append(out[-1] * Fraction((di - ai) * bd * zn, (ci - bi) * ad * zd))
        ai, di, bi, ci = ai * bn, di * bd, bi * bn, ci * bd
    return Series(out)


@table
def _product(ctx: QContext, kind: str, order: int) -> List[Fraction]:
    """Coefficients w**m, m < order, of a product that several checks read, taken once per s and kind:
    G_B E(-eta; w) for suslov_B (translation_B, numbers_agree_Eq10 and eq4_decomposition) and G_sE E(-eta; w) for
    suslov_E (translation_E, numbers_agree_Eq10 and euler_decomposition), each by :func:`_times_eta`, and the Series
    product G_beta c, c_k = (-p; q)_k / (q; q)_k, for new_beta (connection_F2 and eq16).  Each reader asks order
    n_max + 1, so one job builds each product once."""
    if not order:  # a Series has at least one coefficient
        return []
    g = _multiplier(ctx, kind, order)
    if kind == "new_beta":
        return list((g * _binomial_series(-ctx.sqrt_q, ctx.q, 1, order)).coeffs)
    return list(_times_eta(ctx, g.coeffs[:order], -1))


@table
def _phi_audit(ctx: QContext, n: int) -> List[bool]:
    """Verdict k < n holds when phi_k / (q; q)_k = sum_j c_{k-j} psi_j rho_j, the lemma of eq16, with the Askey-Wilson
    factorial phi_k = (-q**(1/4) z, -q**(1/4)/z; sqrt q)_k and c_k = (-p; q)_k / (q; q)_k; summed by psi_rho_sum."""
    q, p = ctx.q, ctx.sqrt_q
    phi, qq, c = _aw_factorials(-ctx.s, p, n), q_pochhammers(q, q, n), _binomial_series(-p, q, 1, n).coeffs
    return [phi[k] / qq[k] == psi_rho_sum(ctx, c[k::-1]) for k in range(n)]


def _check_connection_f1(ctx, n_max):
    # beta_n = sum_k B_{n-k} c_k, c_k = (-1/p; q)_k (-p)**k / (q; q)_k: G_beta = G_B c
    p, order = ctx.sqrt_q, n_max + 1
    rhs = _multiplier(ctx, "suslov_B", order) * _binomial_series(-1 / p, ctx.q, -p, order)
    return _series_report(ctx, "connection_F1", n_max, _multiplier(ctx, "new_beta", order), rhs)


def _check_connection_f2(ctx, n_max):
    # B_n = sum_k beta_{n-k} c_k, c_k = (-p; q)_k / (q; q)_k: G_B = G_beta c
    order = n_max + 1
    return _series_report(ctx, "connection_F2", n_max, _multiplier(ctx, "suslov_B", order),
                          _product(ctx, "new_beta", order))


def _check_reflection_b(ctx, n_max):
    # on the audited chain P_j(-x) = (-1)**j P_j(x), and the P_j, of degree j, are independent: entry n = sum_j G_{n-j}
    # P_j has B_n(-x) = (-1)**n B_n(x) exactly when G_B(-w) = G_B(w) through w**n, on entries taken with sign (-1)**n
    g = _multiplier(ctx, "suslov_B", n_max + 1)
    return _series_report(ctx, "reflection_B", n_max, _at_minus_w(g), g, sign=-1)


def _check_reflection_beta(ctx, n_max):
    # beta_n(-x) = (-1)**n sum_k beta_{n-k}(x) c_k, c_k = (-1; p)_k / (p; p)_k; as rho_j(-x) = (-1)**j rho_j(x),
    # that is G_beta(-w) = G_beta(w) c(w), on entries taken with the sign (-1)**n
    order = n_max + 1
    g = _multiplier(ctx, "new_beta", order)
    return _series_report(ctx, "reflection_beta", n_max, _at_minus_w(g), g * _binomial_series(-1, ctx.sqrt_q, 1, order),
                          sign=-1)


def _check_eq16(ctx, n_max):
    # B_n = sum_k beta_{n-k} phi_k / (q; q)_k, phi_k = (-q**(1/4) z, -q**(1/4)/z; sqrt q)_k.  On the audited lemma
    # phi_k / (q; q)_k = sum_j c_{k-j} P_j with c_0 = 1 and phi_k of degree k, so P_k is of degree k and the P_j are
    # independent whatever the chain audit finds: entry n holds exactly when G_B = G_beta c through w**n
    order = n_max + 1
    note = ("stated with an extra (-1)**(n-k); the signless form is the one "
            "consistent with the value beta_n at the reflected node (detected erratum)")
    return _series_report(ctx, "eq16", n_max, _multiplier(ctx, "suslov_B", order), _product(ctx, "new_beta", order),
                          note=note)


def _check_eq17(ctx, n_max):
    # beta_n(x) = sum_k beta_{n-k} psi_k rho_k(x) with rho_k in its product form: both sides sum the beta numbers
    # G_beta, the family over the chain, so they agree where the chain audit finds the chain equal to the product form
    return IdentityReport("eq17", n_max, True, tuple((n, True) for n in range(n_max + 1)))


def _eq18_weights(s: Fraction, order: int) -> List[Fraction]:
    """[W_0, ..., W_{order-1}], W_{2k} = q**(k**2+k/2) / (p; p)_{2k+1} and W_odd = 0, p = sqrt(q): with p = a/b, the
    Fraction a**(2k**2+k) b**(2k+1) / prod_{i<=2k+1} (b**i - a**i), its denominator a running product."""
    a, b = s.numerator ** 2, s.denominator ** 2
    out, den, ai, bi = [], 1, 1, 1
    for n in range(order):
        ai, bi = ai * a, bi * b
        den *= bi - ai
        out.append(Fraction(a ** (n * n // 2 + n // 2) * bi, den) if n % 2 == 0 else Fraction(0))
    return out


def _check_eq18(ctx, n_max):
    # H_n(x|q) = 2 q**(-n**2/4) (q;q)_n sum_k W_{2k} B_{n-2k}, W of :func:`_eq18_weights`.  Times psi_n, both sides are
    # sums over the chain P_j = psi_j rho_j: of Q = (q t**2; q**2)_inf on the left (the Hermite table is that sum over
    # psi_n), and of 2 W G_B on the right.  On the audited chain the P_j, of degree j, are independent, so entry n holds
    # exactly when 2 W G_B = Q through w**n; the first entry that differs is shown as H_n against the right side
    order = n_max + 1
    rhs, q = Series(_eq18_weights(ctx.s, order)) * _multiplier(ctx, "suslov_B", order) * 2, _qw2_series(ctx.s, order)
    bad = next((n for n in range(order) if rhs[n] != q[n]), order)
    first = None if bad == order else {
        "n": bad, "lhs": _render_side(special_poly(ctx, "hermite", bad)),
        "rhs": _render_side(psi_rho_sum(ctx, rhs.coeffs[bad::-1]) / psi_weights(ctx, bad + 1)[bad])}
    return IdentityReport("eq18", n_max, first is None, tuple((n, n < bad) for n in range(order)), first)


def _check_q_square(ctx, n_max):
    # With r = sqrt(q) (exact here since q = s**4): the Suslov and new
    # Bernoulli numbers at base q equal B_n(r) 2**(n-1) (1-r) / (r; r)_n
    # where B_n(r) are the e/E-generated numbers at base r.
    r = ctx.sqrt_q
    suslov = build_numbers(ctx, "suslov_Bq", n_max)
    beta = build_numbers(ctx, "beta_q", n_max)
    imb = im_bernoulli_numbers(r, n_max)
    rr = q_pochhammers(r, r, n_max)
    pairs = []
    for n in range(n_max + 1):
        rhs = imb[n] * Fraction(2) ** (n - 1) * (1 - r) / rr[n]
        pairs.append((n, suslov[n], rhs))
        pairs.append((n, beta[n], rhs))
    return _report("q_square_relation", n_max, pairs)


def _check_translation_b(ctx, n_max):
    # E_q^{-eta} multiplies G(w) E(x; w) by E(-eta; w): G_B(w) E(-eta; w) = G_beta(w)
    order = n_max + 1
    return _series_report(ctx, "translation_B", n_max, _product(ctx, "suslov_B", order),
                          _multiplier(ctx, "new_beta", order))


def _check_translation_e(ctx, n_max):
    # G_sE(w) E(-eta; w) = G_nE(w) / 2
    order = n_max + 1
    return _series_report(ctx, "translation_E", n_max, _product(ctx, "suslov_E", order),
                          _multiplier(ctx, "new_E", order) * Fraction(1, 2))


def _check_numbers_agree(ctx, n_max):
    # B_n(-eta) = beta_n = suslov_Bq_n and E_n(-eta) = suslov_Eq_n = new E_n(0) / 2.  On the audited chain family
    # entry n is (G E(-eta; w))_n at -eta and G_n at 0
    order = n_max + 1
    big, se = (_product(ctx, kind, order) for kind in ("suslov_B", "suslov_E"))
    ne = _multiplier(ctx, "new_E", order).coeffs
    beta, suslov, evals = (build_numbers(ctx, k, n_max) for k in ("beta_q", "suslov_Bq", "suslov_Eq"))
    sides = (big, beta), (big, suslov), (se, evals), (se, [v / 2 for v in ne])
    return _report("numbers_agree_Eq10", n_max, [(n, a[n], b[n]) for n in range(order) for a, b in sides])


def _check_ladders(ctx, n_max):
    # entry n of each family is sum_j G_{n-j} P_j on the chain P_j = psi_j rho_j, so the audited D P_0 = 0 and
    # D P_j = c P_{j-1} give D (entry n) = c (entry n-1) for every G
    return IdentityReport("ladders", n_max, True, tuple((n, True) for _ in FAMILY_KINDS for n in range(1, n_max + 1)))


def _dot_is(pairs, target: int) -> bool:
    """Whether sum c v over the pairs (c, v), c an integer and v a Fraction or an integer, equals the integer target:
    one exact integer test over the product of the denominators, with no gcd."""
    num, den = 0, 1
    for c, v in pairs:
        num, den = num * v.denominator + c * v.numerator * den, den * v.denominator
    return num == target * den


def _decomposition_report(ctx, name, n_max, parts, note=""):
    """The report :func:`_report` gives on entries n <= n_max of sum a F(w) Q_X(w) over the parts (a, X, eta),
    F = E(eta; w) if eta else 1, against E(x; w); Q_X = sum_k c**(2k+e) X_k w**(2k+e) is basis X's quotient series.

    By X's :data:`BASES` row (family, shift, weight, e), coordinate j of Q_X (its coefficient of psi_j rho_j) is
    weight w**(j-d) G^[shift+j](w), with d = shift - e and G^[p] the part of parity p of the family multiplier G.
    So coordinate j of the sum is w**(j-1) Y_{j%2}(w), Y_p = sum a F weight w**(1-d) G^[shift+p], and entry n,
    sum_j Y_{j%2}[n-j+1] psi_j rho_j, is psi_n rho_n when each Y_p[t] it reads is [t == 1].  A wrong Y_p[t] fails
    the entries n = t-1+p, t+1+p, ..., so each parity of n fails from its first wrong entry on.

    An all-zero part adds nothing and is skipped.  Where G^[shift+p] is G itself through w**(size-1) (G has no odd
    coefficient there, as G_B and G_sE have none), G(w) E(eta; w) is the stored :func:`_product` G E(-eta; w) at -w,
    asked at the order n_max + 1 that the translations ask; any other part is taken times E(eta; w) by
    :func:`_times_eta`.  Each Y_p[t] is held as its terms (c, v) and decided by :func:`_dot_is`; the Fractions Y_p[t]
    are formed, and the first failing entry summed, only to show a failure."""
    lo = min(0, *(1 - BASES[kind][1] + BASES[kind][3] for _, kind, _ in parts))  # the lowest t with a term
    terms = [[[] for _ in range(n_max + 2 - p - lo)] for p in (0, 1)]  # Y_p[t] = sum c v over terms[p][t - lo]
    for a, kind, eta in parts:
        family, shift, weight, e = BASES[kind]
        d, last = shift - e, 2 * ((n_max - e) // 2) + shift  # last: the family entry of the last basis entry read
        g = _multiplier(ctx, family, max(n_max, last) + 1).coeffs
        for p, y in enumerate(terms):
            size = n_max + 1 - p + d  # Y_p[t] reads the terms w**i of F G^[shift+p] at i = t - 1 + d < size
            part = [g[i] if (i - shift - p) % 2 == 0 and i <= last else 0 for i in range(size)]
            if not any(part):
                continue
            sign = 1
            if eta and family != "new_beta" and tuple(part) == g[:size]:  # new_beta's product slot holds G_beta c
                part, sign = _product(ctx, family, max(size, n_max + 1))[:size], -1
            elif eta:
                part = _times_eta(ctx, part, 1)
            for i, v in enumerate(part):
                if v:
                    y[i + 1 - d - lo].append((a * weight * sign ** i, v))
    first = [n_max + 1] * 2  # the first failing entry of each parity
    for p, y in enumerate(terms):
        for n, pairs in enumerate(y, lo - 1 + p):  # Y_p[t] is read first by entry n = t - 1 + p, and t == 1 is n == p
            if not _dot_is(pairs, n == p):
                first[n % 2] = min(first[n % 2], n)
    results = tuple((n, n < first[n % 2]) for n in range(n_max + 1))
    bad = next((n for n, ok in results if not ok), None)
    shown = None
    if bad is not None:
        ys = [[sum((c * v for c, v in pairs), Fraction(0)) for pairs in y] for y in terms]
        lhs = psi_rho_sum(ctx, [ys[j % 2][bad - j + 1 - lo] for j in range(bad + 2 - lo)])
        shown = {"n": bad, "lhs": _render_side(lhs), "rhs": _render_side(psi_rho_poly(ctx, bad))}
    return IdentityReport(name, n_max, bad is None, results, shown, note)


def _check_eq4_decomposition(ctx, n_max):
    # - sum_k b_k(x) y**(2k) + E(eta; y) sum_k a_k(x) y**(2k) == E(x; y)
    note = ("the product form of the B-quotient carries the denominator with the opposite sign order to "
            "its exponential-quotient form (detected erratum).")
    return _decomposition_report(ctx, "eq4_decomposition", n_max, ((1, "A", True), (-1, "B", False)), note)


def _check_euler_decomposition(ctx, n_max):
    # m-quotient(y) + E(eta; y) * mtilde-quotient(y) == E(x; y); the odd
    # quotient pairs with the plain series and the even one with the eta
    # factor (the variable placement in the two-series statement).
    return _decomposition_report(ctx, "euler_decomposition", n_max, ((1, "M", False), (1, "Mtilde", True)))


def _hermite_closed(s: Fraction, n_max: int) -> List[SymPoly]:
    """[H_0, ..., H_{n_max}] by the closed form H_n(x|q) = sum_{k<=n/2} [n k]_q e_{n-2k} (the middle term once).
    With q = a/b, [n k]_q = N_{n,k} / b**(k(n-k)) for the integers of the q-Pascal rule
    N_{n,k} = N_{n-1,k-1} b**(n-k) + a**k N_{n-1,k}; row n is put over b**(m(n-m)), m = n // 2, and reduced once."""
    a, b = s.numerator ** 4, s.denominator ** 4
    ap, bp = [a ** k for k in range(n_max + 1)], [b ** k for k in range(n_max + 1)]
    row, out = [1], []
    for n in range(n_max + 1):
        if n:
            row = [1] + [row[k - 1] * bp[n - k] + ap[k] * row[k] for k in range(1, n)] + [1]
        nums, scale = [0] * (n + 1), 1
        for k in range(n // 2, -1, -1):  # N_{n,k} b**((m-k)(n-m-k)): the power steps by b**(n-2k-1) as k falls
            if 2 * k < n - 1:
                scale *= bp[n - 2 * k - 1]
            nums[n - 2 * k] = row[k] * scale
        out.append(SymPoly._canonical(nums, scale))
    return out


def _check_hermite_rep(ctx, n_max):
    # (q t**2; q**2)_inf E(x; t) = sum q**(n**2/4)/(q;q)_n H_n(x|q) t**n: the Hermite table holds H_n = L_n / psi_n,
    # with L_n = sum_j Q_{n-j} psi_j rho_j the left side's entry n for Q = (q t**2; q**2)_inf, so entry n holds when
    # the table agrees with the q-binomial closed form; where they differ the pair (L_n, psi_n H_n) is shown
    psi, pairs = psi_weights(ctx, n_max + 1), []
    for n, c in enumerate(_hermite_closed(ctx.s, n_max)):
        h = special_poly(ctx, "hermite", n)
        pairs.append((n, h, c) if h == c else (n, h * psi[n], c * psi[n]))
    note = "prefactor is (q t**2; q**2)_inf; the commonly misprinted (q**2 t**2; q**2)_inf fails at degree 2"
    return _report("hermite_rep", n_max, pairs, note=note)


_REGISTRY = {
    "connection_F1": _check_connection_f1,
    "connection_F2": _check_connection_f2,
    "reflection_B": _check_reflection_b,
    "reflection_beta": _check_reflection_beta,
    "eq16": _check_eq16,
    "eq17": _check_eq17,
    "eq18": _check_eq18,
    "q_square_relation": _check_q_square,
    "translation_B": _check_translation_b,
    "translation_E": _check_translation_e,
    "numbers_agree_Eq10": _check_numbers_agree,
    "ladders": _check_ladders,
    "eq4_decomposition": _check_eq4_decomposition,
    "euler_decomposition": _check_euler_decomposition,
    "hermite_rep": _check_hermite_rep,
}
# the checks decided on G, each with the stored audit that makes G decide it
_AUDITS = {"eq16": _phi_audit, **dict.fromkeys(("ladders", "eq17", "reflection_B", "eq18", "numbers_agree_Eq10"),
                                               _chain_audit)}
