"""The four q-Bernoulli / q-Euler polynomial families and their identities.

All four families are generated from quotients of the q-exponential series
by combinations of the factors (+-w; sqrt(q))_inf:

* ``suslov_B``  : w (qw**2; q**2)_inf E(x; w) / [(-w; p)_inf - (w; p)_inf]
* ``new_beta``  : w (w; p)_inf       E(x; w) / [(-w; p)_inf - (w; p)_inf]
* ``suslov_E``  : (qw**2; q**2)_inf  E(x; w) / [(-w; p)_inf + (w; p)_inf]
* ``new_E``     : 2 (w; p)_inf       E(x; w) / [(-w; p)_inf + (w; p)_inf]

with p = sqrt(q).  The Bernoulli denominators vanish at w = 0; the shared
power of w is cancelled before dividing, leaving the constant term
2/(1 - sqrt(q)).  Generating functions are the ground truth for every
boundary-value claim; the identity registry checks the cross-relations
between the families exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .qcore import IntegrityError, QContext, psi_weights, q_factorials, q_pochhammers, table
from .fps import (
    Series,
    eq_exponential_series,
    euler_factor_series,
    pochhammer_series,
    scale_arg,
)
from .symlaurent import SymPoly, eval_at, aw_derivative, psi_rho_sum, q_translate, special_poly

FAMILY_KINDS = ("suslov_B", "new_beta", "suslov_E", "new_E")
NUMBER_KINDS = ("beta_q", "suslov_Bq", "im_Bq", "suslov_Eq")
BASIS_KINDS = ("A", "B", "M", "Mtilde")


@dataclass(frozen=True)
class PolyFamilyTable:
    kind: str
    entries: Tuple[SymPoly, ...]
    s: Fraction


@dataclass(frozen=True)
class NumberTable:
    kind: str
    values: Tuple[Fraction, ...]


# -- scalar building blocks ------------------------------------------------


def _factor_parts(s: Fraction, order: int):
    """(plus, minus, diff_over_w, summ) for the (+-w; sqrt q)_inf factors,
    each carrying exactly ``order`` coefficients."""
    p = s * s
    plus = euler_factor_series(-1, p, order + 1)   # (-w; p)_inf
    minus = euler_factor_series(+1, p, order + 1)  # (w; p)_inf
    diff_over_w = (plus - minus).shift_down()
    summ = (plus + minus).truncate(order)
    return plus.truncate(order), minus.truncate(order), diff_over_w, summ


_denominator_parts = table(_factor_parts)


@table
def _qw2_series(s: Fraction, order: int) -> Series:
    q = s ** 4
    return pochhammer_series(q, 2, q * q, order)  # (q w**2; q**2)_inf


@table
def family_multiplier(s: Fraction, kind: str, order: int) -> Series:
    """The scalar series G with family generating function G(w) E(x; w), so
    family entry n is sum_j G_{n-j} psi_j rho_j on the rho basis."""
    # G is all that an expansion keeps of the factors, so they are not memoized here
    _, minus, diff_over_w, summ = _factor_parts(s, order)
    if kind == "suslov_B":
        return _qw2_series(s, order) / diff_over_w
    if kind == "new_beta":
        return minus / diff_over_w
    if kind == "suslov_E":
        return _qw2_series(s, order) / summ
    if kind == "new_E":
        return (minus * 2) / summ
    raise ValueError(f"unknown family kind {kind!r}")


def eta_exponential_series(ctx: QContext, order: int) -> Series:
    """Scalar series of the q-exponential at the node eta:
    (-w; sqrt q)_inf / (q w**2; q**2)_inf."""
    plus, _, _, _ = _denominator_parts(ctx.s, order)
    return plus / _qw2_series(ctx.s, order)


def family_rho(ctx: QContext, terms, order: int) -> List[Fraction]:
    """r_0..r_{order-1} with sum of a * (family ``kind`` entry n) over the terms
    (kind, n, a), n < order, equal to sum_j r_j psi_j rho_j.

    Family entry n is sum_j G_{n-j} psi_j rho_j with G = :func:`family_multiplier`,
    so r_j = sum over the terms of a G_{n-j}: each r_j is summed on integer
    numerators over one common denominator and reduced once.
    """
    parts = [[] for _ in range(order)]  # (numerator, denominator) of each product a G_{n-j}
    for kind, n, a in terms:
        if a == 0:
            continue
        g = family_multiplier(ctx.s, kind, order)
        for j in range(n + 1):
            gv = g[n - j]
            if gv != 0:
                parts[j].append((a.numerator * gv.numerator, a.denominator * gv.denominator))
    out = []
    for products in parts:
        den = lcm(*(d for _, d in products))
        out.append(Fraction(sum(x * (den // d) for x, d in products), den))
    return out


# -- families ----------------------------------------------------------------


@table
def _family_series(ctx: QContext, kind: str, order: int) -> Series:
    plus, minus, diff_over_w, summ = _denominator_parts(ctx.s, order)
    eqe = eq_exponential_series(ctx, order)
    if kind == "suslov_B":
        return (_qw2_series(ctx.s, order) * eqe) / diff_over_w
    if kind == "new_beta":
        return (minus * eqe) / diff_over_w
    if kind == "suslov_E":
        return (_qw2_series(ctx.s, order) * eqe) / summ
    if kind == "new_E":
        return (minus * eqe * 2) / summ
    raise ValueError(f"unknown family kind {kind!r}")


def build_family(ctx: QContext, kind: str, n_max: int) -> PolyFamilyTable:
    """Table of family polynomials for indices 0..n_max."""
    series = _family_series(ctx, kind, n_max + 1)
    entries = tuple(_as_poly(c) for c in series.coeffs)
    return PolyFamilyTable(kind=kind, entries=entries, s=ctx.s)


def _as_poly(c) -> SymPoly:
    return c if isinstance(c, SymPoly) else SymPoly.const(c)


def _convolve(entries, coefs) -> Tuple[SymPoly, ...]:
    """Cauchy product sum_k entries[n-k] coefs[k] for every n, as polynomials."""
    return tuple(_as_poly(c) for c in (Series(entries) * Series(coefs)).coeffs)


# -- numbers -------------------------------------------------------------------


def build_numbers(ctx: QContext, kind: str, n_max: int) -> NumberTable:
    """Number sequences attached to the families.

    ``beta_q`` comes from the new-Bernoulli family at x = 0 and is
    cross-checked exactly against its scalar generating function;
    ``suslov_Bq`` and ``suslov_Eq`` come from their scalar generating
    functions, the multipliers of ``new_beta`` and of ``new_E`` / 2;
    ``im_Bq`` uses :func:`im_bernoulli_numbers` at base q.
    """
    if kind == "beta_q":
        fam = build_family(ctx, "new_beta", n_max)
        vals = tuple(eval_at(ctx, p, "zero") for p in fam.entries)
        direct = family_multiplier(ctx.s, "new_beta", n_max + 1)
        if tuple(direct.coeffs) != vals:
            raise IntegrityError("beta numbers: family evaluation disagrees with the scalar series")
        return NumberTable(kind=kind, values=vals)
    if kind == "suslov_Bq":
        return NumberTable(kind, tuple(family_multiplier(ctx.s, "new_beta", n_max + 1).coeffs))
    if kind == "suslov_Eq":
        return NumberTable(kind, tuple(c / 2 for c in family_multiplier(ctx.s, "new_E", n_max + 1).coeffs))
    if kind == "im_Bq":
        return NumberTable(kind, im_bernoulli_numbers(ctx.q, n_max))
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


@table
def _lidstone_quotients(ctx: QContext, kind: str, order: int) -> Series:
    """Plain coefficient series of the four interpolation-basis quotients.

    A: (q w**2)_inf [E(x;w) - E(x;-w)] / [(-w;p)_inf - (w;p)_inf]   (even)
    B: [(w;p) E(x;w) - (-w;p) E(x;-w)] / [(-w;p)_inf - (w;p)_inf]   (even)
    M: [(w;p) E(x;w) - (-w;p) E(x;-w)] / [(w;p)_inf + (-w;p)_inf]   (odd)
    Mtilde: (q w**2)_inf [E(x;w) + E(x;-w)] / [(-w;p) + (w;p)]      (even)
    """
    plus, minus, diff_over_w, summ = _denominator_parts(ctx.s, order + 1)
    eqe = eq_exponential_series(ctx, order + 1)
    eqe_neg = scale_arg(eqe, -1)
    if kind == "A":
        num = (_qw2_series(ctx.s, order + 1) * (eqe - eqe_neg)).shift_down()
        return num / diff_over_w
    if kind == "B":
        # the numerator and diff = w * diff_over_w are odd, so w is cancelled from both before dividing
        return (minus * eqe - plus * eqe_neg).shift_down() / diff_over_w
    if kind == "M":
        return (minus * eqe - plus * eqe_neg) / summ
    if kind == "Mtilde":
        return (_qw2_series(ctx.s, order + 1) * (eqe + eqe_neg)) / summ
    raise ValueError(f"unknown basis kind {kind!r}")


def lidstone_basis(ctx: QContext, kind: str, k_max: int) -> Tuple[SymPoly, ...]:
    """Interpolation-basis polynomials k = 0..k_max, scaled family entries
    with c the ladder scale 2 q**(1/4)/(1-q):

    A_k = 2 c**(-2k) suslov_B_{2k+1}      B_k = 2 c**(-2k) new_beta_{2k+1}
    M_k = c**(-2k-1) new_E_{2k+1}         Mtilde_k = 2 c**(-2k) suslov_E_{2k}

    Each is summed as sum_j r_j psi_j rho_j, r_j from :func:`family_rho`, by
    :func:`symlaurent.psi_rho_sum`, as the expansions are; the tests pin it
    against the family tables and against the defining quotient series.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    c = ctx.aw_scale
    order = 2 * k_max + 2
    if kind == "M":
        terms = [("new_E", 2 * k + 1, c ** (-2 * k - 1)) for k in range(k_max + 1)]
    elif kind == "Mtilde":
        terms = [("suslov_E", 2 * k, 2 * c ** (-2 * k)) for k in range(k_max + 1)]
    else:
        family = "suslov_B" if kind == "A" else "new_beta"
        terms = [(family, 2 * k + 1, 2 * c ** (-2 * k)) for k in range(k_max + 1)]
    return tuple(psi_rho_sum(ctx, family_rho(ctx, [term], order)) for term in terms)


def hermite_from_bernoulli(ctx: QContext, n: int) -> SymPoly:
    """Rebuild H_n(x|q) from the Suslov Bernoulli family via
    H_n = 2 q**(-n**2/4) (q;q)_n sum_k q**(k**2+k/2) B_{n-2k} / (p; p)_{2k+1},
    p = sqrt(q).  Must equal the explicit Hermite polynomial exactly."""
    return _hermite_from_bernoulli_table(ctx, n)[n]


def _hermite_from_bernoulli_table(ctx: QContext, n_max: int) -> Tuple[SymPoly, ...]:
    # the sum over k is one Cauchy product of B with w, w_{2k} = q**(k**2+k/2)/(p; p)_{2k+1}
    s, q = ctx.s, ctx.q
    p = s * s
    fam = build_family(ctx, "suslov_B", n_max)
    pp = q_pochhammers(p, p, n_max + 1)
    qq = q_pochhammers(q, q, n_max)
    w = [s ** (n * n + n) / pp[n + 1] if n % 2 == 0 else 0 for n in range(n_max + 1)]
    conv = _convolve(fam.entries, w)
    return tuple(h * (2 * s ** (-n * n) * qq[n]) for n, h in enumerate(conv))


# -- identity registry ---------------------------------------------------------


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
    """Evaluate both sides of a registered identity exactly for n <= n_max."""
    try:
        checker = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(_REGISTRY)}") from None
    return checker(ctx, n_max)


def _report(name, n_max, pairs, note=""):
    results = []
    first = None
    for n, lhs, rhs in pairs:
        ok = lhs == rhs
        results.append((n, ok))
        if not ok and first is None:
            first = {
                "n": n,
                "lhs": _render_side(lhs),
                "rhs": _render_side(rhs),
            }
    return IdentityReport(
        name=name,
        max_n=n_max,
        passed=first is None,
        results=tuple(results),
        first_failure=first,
        note=note,
    )


def _render_side(v):
    if isinstance(v, SymPoly):
        return [str(c) for c in v.to_monomial()][::-1]
    return str(v)


def _check_connection_f1(ctx, n_max):
    q = ctx.q
    big = build_family(ctx, "suslov_B", n_max)
    beta = build_family(ctx, "new_beta", n_max)
    num, qq = q_pochhammers(-1 / ctx.sqrt_q, q, n_max), q_pochhammers(q, q, n_max)
    coefs = [num[k] / qq[k] * (-ctx.sqrt_q) ** k for k in range(n_max + 1)]
    rhs = _convolve(big.entries, coefs)
    return _report("connection_F1", n_max, zip(range(n_max + 1), beta.entries, rhs))


def _check_connection_f2(ctx, n_max):
    q = ctx.q
    big = build_family(ctx, "suslov_B", n_max)
    beta = build_family(ctx, "new_beta", n_max)
    num, qq = q_pochhammers(-ctx.sqrt_q, q, n_max), q_pochhammers(q, q, n_max)
    coefs = [num[k] / qq[k] for k in range(n_max + 1)]
    rhs = _convolve(beta.entries, coefs)
    return _report("connection_F2", n_max, zip(range(n_max + 1), big.entries, rhs))


def _check_reflection_b(ctx, n_max):
    big = build_family(ctx, "suslov_B", n_max)
    return _report("reflection_B", n_max, [(n, p.reflect(), p * Fraction(-1) ** n) for n, p in enumerate(big.entries)])


def _check_reflection_beta(ctx, n_max):
    p = ctx.sqrt_q
    beta = build_family(ctx, "new_beta", n_max)
    num, pp = q_pochhammers(-1, p, n_max), q_pochhammers(p, p, n_max)
    coefs = [num[k] / pp[k] for k in range(n_max + 1)]
    conv = _convolve(beta.entries, coefs)
    pairs = [(n, beta.entries[n].reflect(), conv[n] * Fraction(-1) ** n) for n in range(n_max + 1)]
    return _report("reflection_beta", n_max, pairs)


def _check_eq16(ctx, n_max):
    # product factors ((-q**(1/4) z, -q**(1/4)/z; sqrt q)_k as SymPolys
    s = ctx.s
    p = s * s
    big = build_family(ctx, "suslov_B", n_max)
    betaq = build_numbers(ctx, "beta_q", n_max).values
    phi = [SymPoly.const(1)]
    for k in range(n_max):
        c = s * p ** k
        phi.append(phi[-1] * SymPoly([1 + c * c, c]))
    qq = q_pochhammers(ctx.q, ctx.q, n_max)
    rhs = _convolve([f / qq[k] for k, f in enumerate(phi)], betaq)
    note = (
        "stated with an extra (-1)**(n-k); the signless form is the one "
        "consistent with the value beta_n at the reflected node (detected erratum)"
    )
    return _report("eq16", n_max, zip(range(n_max + 1), big.entries, rhs), note=note)


def _check_eq17(ctx, n_max):
    beta = build_family(ctx, "new_beta", n_max)
    betaq = build_numbers(ctx, "beta_q", n_max).values
    rhs = _convolve(eq_exponential_series(ctx, n_max + 1).coeffs, betaq)
    return _report("eq17", n_max, zip(range(n_max + 1), beta.entries, rhs))


def _check_eq18(ctx, n_max):
    rebuilt = _hermite_from_bernoulli_table(ctx, n_max)
    return _report("eq18", n_max, [(n, special_poly(ctx, "hermite", n), rebuilt[n]) for n in range(n_max + 1)])


def _check_q_square(ctx, n_max):
    # With r = sqrt(q) (exact here since q = s**4): the Suslov and new
    # Bernoulli numbers at base q equal B_n(r) 2**(n-1) (1-r) / (r; r)_n
    # where B_n(r) are the e/E-generated numbers at base r.
    r = ctx.sqrt_q
    suslov = build_numbers(ctx, "suslov_Bq", n_max).values
    beta = build_numbers(ctx, "beta_q", n_max).values
    imb = im_bernoulli_numbers(r, n_max)
    rr = q_pochhammers(r, r, n_max)
    pairs = []
    for n in range(n_max + 1):
        rhs = imb[n] * Fraction(2) ** (n - 1) * (1 - r) / rr[n]
        pairs.append((n, suslov[n], rhs))
        pairs.append((n, beta[n], rhs))
    return _report("q_square_relation", n_max, pairs)


def _check_translation_b(ctx, n_max):
    big = build_family(ctx, "suslov_B", n_max)
    beta = build_family(ctx, "new_beta", n_max)
    pairs = [(n, q_translate(ctx, p, "minus_eta"), b) for n, (p, b) in enumerate(zip(big.entries, beta.entries))]
    return _report("translation_B", n_max, pairs)


def _check_translation_e(ctx, n_max):
    se = build_family(ctx, "suslov_E", n_max)
    ne = build_family(ctx, "new_E", n_max)
    pairs = [(n, q_translate(ctx, p, "minus_eta"), e / 2) for n, (p, e) in enumerate(zip(se.entries, ne.entries))]
    return _report("translation_E", n_max, pairs)


def _check_numbers_agree(ctx, n_max):
    # Suslov-at-minus-eta equals new-at-zero equals the scalar series;
    # likewise for the Euler companions.
    big = build_family(ctx, "suslov_B", n_max)
    beta_vals = build_numbers(ctx, "beta_q", n_max).values
    suslov_vals = build_numbers(ctx, "suslov_Bq", n_max).values
    se = build_family(ctx, "suslov_E", n_max)
    ne = build_family(ctx, "new_E", n_max)
    evals = build_numbers(ctx, "suslov_Eq", n_max).values
    pairs = []
    for n in range(n_max + 1):
        at_meta = eval_at(ctx, big.entries[n], "minus_eta")
        pairs.append((n, at_meta, beta_vals[n]))
        pairs.append((n, at_meta, suslov_vals[n]))
        e_meta = eval_at(ctx, se.entries[n], "minus_eta")
        pairs.append((n, e_meta, evals[n]))
        pairs.append((n, e_meta, eval_at(ctx, ne.entries[n], "zero") / 2))
    return _report("numbers_agree_Eq10", n_max, pairs)


def _check_ladders(ctx, n_max):
    c = ctx.aw_scale
    pairs = []
    for kind in FAMILY_KINDS:
        entries = build_family(ctx, kind, n_max).entries
        pairs += [(n, aw_derivative(ctx, entries[n]), entries[n - 1] * c) for n in range(1, n_max + 1)]
    return _report("ladders", n_max, pairs)


def _check_eq4_decomposition(ctx, n_max):
    # - sum_k b_k(x) y**(2k) + E(eta; y) sum_k a_k(x) y**(2k) == E(x; y)
    order = n_max + 1
    a_q = _lidstone_quotients(ctx, "A", order)
    b_q = _lidstone_quotients(ctx, "B", order)
    eta = eta_exponential_series(ctx, order)
    recon = eta * a_q - b_q
    target = eq_exponential_series(ctx, order)
    pairs = [(n, _as_poly(recon[n]), _as_poly(target[n])) for n in range(order)]
    note = (
        "B-quotient implemented in the exponential-quotient form; the "
        "equivalent product form carries the denominator with the opposite "
        "sign order (detected erratum)."
    )
    return _report("eq4_decomposition", n_max, pairs, note=note)


def _check_euler_decomposition(ctx, n_max):
    # m-quotient(y) + E(eta; y) * mtilde-quotient(y) == E(x; y); the odd
    # quotient pairs with the plain series and the even one with the eta
    # factor (the variable placement in the two-series statement).
    order = n_max + 1
    m_q = _lidstone_quotients(ctx, "M", order)
    mt_q = _lidstone_quotients(ctx, "Mtilde", order)
    eta = eta_exponential_series(ctx, order)
    recon = m_q + eta * mt_q
    target = eq_exponential_series(ctx, order)
    pairs = [(n, _as_poly(recon[n]), _as_poly(target[n])) for n in range(order)]
    return _report("euler_decomposition", n_max, pairs)


def _check_hermite_rep(ctx, n_max):
    # (q t**2; q**2)_inf * E(x; t) = sum q**(n**2/4)/(q;q)_n H_n(x|q) t**n
    order = n_max + 1
    q = ctx.q
    pref = pochhammer_series(q, 2, q * q, order)
    lhs = pref * eq_exponential_series(ctx, order)
    psi = psi_weights(ctx, order)
    pairs = [(n, _as_poly(lhs[n]), special_poly(ctx, "hermite", n) * psi[n]) for n in range(order)]
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
