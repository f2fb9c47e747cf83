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
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .qcore import IntegrityError, QContext, q_factorial, q_pochhammer
from .fps import (
    Series,
    eq_exponential_series,
    euler_factor_series,
    pochhammer_series,
    scale_arg,
)
from .symlaurent import SymPoly, eval_at, aw_derivative, q_translate, special_poly

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


@lru_cache(maxsize=None)
def _denominator_parts(s: Fraction, order: int):
    """(plus, minus, diff_over_w, summ) for the (+-w; sqrt q)_inf factors,
    each carrying exactly ``order`` coefficients."""
    p = s * s
    plus = euler_factor_series(-1, p, order + 1)   # (-w; p)_inf
    minus = euler_factor_series(+1, p, order + 1)  # (w; p)_inf
    diff_over_w = (plus - minus).shift_down()
    summ = (plus + minus).truncate(order)
    return plus.truncate(order), minus.truncate(order), diff_over_w, summ


@lru_cache(maxsize=None)
def _qw2_series(s: Fraction, order: int) -> Series:
    q = s ** 4
    return pochhammer_series(q, 2, q * q, order)  # (q w**2; q**2)_inf


def eta_exponential_series(ctx: QContext, order: int) -> Series:
    """Scalar series of the q-exponential at the node eta:
    (-w; sqrt q)_inf / (q w**2; q**2)_inf."""
    plus, _, _, _ = _denominator_parts(ctx.s, order)
    return plus / _qw2_series(ctx.s, order)


# -- families ----------------------------------------------------------------


@lru_cache(maxsize=None)
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


# -- numbers -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _beta_number_series(s: Fraction, order: int) -> Series:
    """(w; sqrt q)_inf / ([(-w; sqrt q)_inf - (w; sqrt q)_inf]/w)."""
    _, minus, diff_over_w, _ = _denominator_parts(s, order)
    return minus / diff_over_w


@lru_cache(maxsize=None)
def _suslov_e_number_series(s: Fraction, order: int) -> Series:
    _, minus, _, summ = _denominator_parts(s, order)
    return minus / summ


def build_numbers(ctx: QContext, kind: str, n_max: int) -> NumberTable:
    """Number sequences attached to the families.

    ``beta_q`` comes from the new-Bernoulli family at x = 0 and is
    cross-checked exactly against its scalar generating function;
    ``suslov_Bq`` and ``suslov_Eq`` come from their scalar generating
    functions; ``im_Bq`` uses :func:`im_bernoulli_numbers` at base q.
    """
    if kind == "beta_q":
        fam = build_family(ctx, "new_beta", n_max)
        vals = tuple(eval_at(ctx, p, "zero") for p in fam.entries)
        direct = _beta_number_series(ctx.s, n_max + 1)
        if tuple(direct.coeffs) != vals:
            raise IntegrityError("beta numbers: family evaluation disagrees with the scalar series")
        return NumberTable(kind=kind, values=vals)
    if kind == "suslov_Bq":
        return NumberTable(kind, tuple(_beta_number_series(ctx.s, n_max + 1).coeffs))
    if kind == "suslov_Eq":
        return NumberTable(kind, tuple(_suslov_e_number_series(ctx.s, n_max + 1).coeffs))
    if kind == "im_Bq":
        return NumberTable(kind, im_bernoulli_numbers(ctx.q, n_max))
    raise ValueError(f"unknown number kind {kind!r}")


def im_bernoulli_numbers(q: Fraction, n_max: int) -> Tuple[Fraction, ...]:
    """Numbers B_n(q) generated by y / (e_q(y/2) E_q(y/2) - 1), scaled by [n]_q!.

    Needs only integer powers of q, so any rational base works.  The
    denominator expands as sum_{n>=1} (-1; q)_n y**n / (2**n [n]_q!); one
    power of y is cancelled before dividing.
    """
    q = Fraction(q)
    order = n_max + 1
    denom = []
    for n in range(1, order + 1):
        denom.append(q_pochhammer(-1, q, n) / (Fraction(2 ** n) * q_factorial(n, q)))
    quotient = Series.one(order) / Series(denom)
    return tuple(quotient[n] * q_factorial(n, q) for n in range(order))


# -- the two-point interpolation bases -------------------------------------------


@lru_cache(maxsize=None)
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
        num = minus * eqe - plus * eqe_neg
        return _div_odd(num, diff_over_w)
    if kind == "M":
        return (minus * eqe - plus * eqe_neg) / summ
    if kind == "Mtilde":
        return (_qw2_series(ctx.s, order + 1) * (eqe + eqe_neg)) / summ
    raise ValueError(f"unknown basis kind {kind!r}")


def _div_odd(num: Series, diff_over_w: Series) -> Series:
    # numerator is odd and the denominator diff = w * diff_over_w is odd,
    # so cancel w from both before dividing
    return num.shift_down() / diff_over_w


def lidstone_basis(ctx: QContext, kind: str, k_max: int) -> Tuple[SymPoly, ...]:
    """Interpolation-basis polynomials, built two ways and cross-checked.

    Route one scales the family tables: A_k = 2 c**(-2k) B_{2k+1}-type with
    c the ladder scale 2 q**(1/4)/(1-q); route two extracts coefficients of
    the defining quotient series directly.  A mismatch raises
    IntegrityError carrying the first differing index.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    c = ctx.aw_scale
    order = 2 * k_max + 2
    if kind == "M":
        fam = build_family(ctx, "new_E", 2 * k_max + 1)
        scaled = tuple(fam.entries[2 * k + 1] * c ** (-2 * k - 1) for k in range(k_max + 1))
        direct_series = _lidstone_quotients(ctx, kind, order)
        direct = tuple(_as_poly(direct_series[2 * k + 1]) * c ** (-2 * k - 1) for k in range(k_max + 1))
    else:
        if kind == "A":
            fam = build_family(ctx, "suslov_B", 2 * k_max + 1)
            scaled = tuple(fam.entries[2 * k + 1] * (2 * c ** (-2 * k)) for k in range(k_max + 1))
        elif kind == "B":
            fam = build_family(ctx, "new_beta", 2 * k_max + 1)
            scaled = tuple(fam.entries[2 * k + 1] * (2 * c ** (-2 * k)) for k in range(k_max + 1))
        else:  # Mtilde
            fam = build_family(ctx, "suslov_E", 2 * k_max)
            scaled = tuple(fam.entries[2 * k] * (2 * c ** (-2 * k)) for k in range(k_max + 1))
        direct_series = _lidstone_quotients(ctx, kind, order)
        direct = tuple(_as_poly(direct_series[2 * k]) * c ** (-2 * k) for k in range(k_max + 1))
    for k, (p1, p2) in enumerate(zip(scaled, direct)):
        if p1 != p2:
            raise IntegrityError(f"basis {kind}: construction routes differ first at index {k}")
    return scaled


def hermite_from_bernoulli(ctx: QContext, n: int) -> SymPoly:
    """Rebuild H_n(x|q) from the Suslov Bernoulli family via
    H_n = 2 q**(-n**2/4) (q;q)_n sum_k q**(k**2+k/2) B_{n-2k} / (p; p)_{2k+1},
    p = sqrt(q).  Must equal the explicit Hermite polynomial exactly."""
    s, q = ctx.s, ctx.q
    p = s * s
    fam = build_family(ctx, "suslov_B", n)
    acc = SymPoly.zero()
    for k in range(n // 2 + 1):
        w = s ** (4 * k * k + 2 * k) / q_pochhammer(p, p, 2 * k + 1)
        acc = acc + fam.entries[n - 2 * k] * w
    return acc * (2 * s ** (-n * n) * q_pochhammer(q, q, n))


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
    pairs = []
    for n in range(n_max + 1):
        rhs = SymPoly.zero()
        for k in range(n + 1):
            coef = (
                q_pochhammer(-1 / ctx.sqrt_q, q, k)
                / q_pochhammer(q, q, k)
                * (-ctx.sqrt_q) ** k
            )
            rhs = rhs + big.entries[n - k] * coef
        pairs.append((n, beta.entries[n], rhs))
    return _report("connection_F1", n_max, pairs)


def _check_connection_f2(ctx, n_max):
    q = ctx.q
    big = build_family(ctx, "suslov_B", n_max)
    beta = build_family(ctx, "new_beta", n_max)
    pairs = []
    for n in range(n_max + 1):
        rhs = SymPoly.zero()
        for k in range(n + 1):
            coef = q_pochhammer(-ctx.sqrt_q, q, k) / q_pochhammer(q, q, k)
            rhs = rhs + beta.entries[n - k] * coef
        pairs.append((n, big.entries[n], rhs))
    return _report("connection_F2", n_max, pairs)


def _check_reflection_b(ctx, n_max):
    big = build_family(ctx, "suslov_B", n_max)
    pairs = []
    for n in range(n_max + 1):
        lhs = big.entries[n].reflect()
        rhs = big.entries[n] * Fraction(-1) ** n
        pairs.append((n, lhs, rhs))
    return _report("reflection_B", n_max, pairs)


def _check_reflection_beta(ctx, n_max):
    p = ctx.sqrt_q
    beta = build_family(ctx, "new_beta", n_max)
    pairs = []
    for n in range(n_max + 1):
        lhs = beta.entries[n].reflect()
        rhs = SymPoly.zero()
        for k in range(n + 1):
            coef = q_pochhammer(-1, p, k) / q_pochhammer(p, p, k)
            rhs = rhs + beta.entries[n - k] * coef
        rhs = rhs * Fraction(-1) ** n
        pairs.append((n, lhs, rhs))
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
    pairs = []
    q = ctx.q
    for n in range(n_max + 1):
        rhs = SymPoly.zero()
        for k in range(n + 1):
            coef = betaq[n - k] / q_pochhammer(q, q, k)
            rhs = rhs + phi[k] * coef
        pairs.append((n, big.entries[n], rhs))
    note = (
        "stated with an extra (-1)**(n-k); the signless form is the one "
        "consistent with the value beta_n at the reflected node (detected erratum)"
    )
    return _report("eq16", n_max, pairs, note=note)


def _check_eq17(ctx, n_max):
    beta = build_family(ctx, "new_beta", n_max)
    betaq = build_numbers(ctx, "beta_q", n_max).values
    q = ctx.q
    pairs = []
    for n in range(n_max + 1):
        rhs = SymPoly.zero()
        for k in range(n + 1):
            coef = betaq[n - k] * ctx.s ** (k * k) / q_pochhammer(q, q, k)
            rhs = rhs + special_poly(ctx, "rho", k) * coef
        pairs.append((n, beta.entries[n], rhs))
    return _report("eq17", n_max, pairs)


def _check_eq18(ctx, n_max):
    pairs = []
    for n in range(n_max + 1):
        pairs.append((n, special_poly(ctx, "hermite", n), hermite_from_bernoulli(ctx, n)))
    return _report("eq18", n_max, pairs)


def _check_q_square(ctx, n_max):
    # With r = sqrt(q) (exact here since q = s**4): the Suslov and new
    # Bernoulli numbers at base q equal B_n(r) 2**(n-1) (1-r) / (r; r)_n
    # where B_n(r) are the e/E-generated numbers at base r.
    r = ctx.sqrt_q
    suslov = build_numbers(ctx, "suslov_Bq", n_max).values
    beta = build_numbers(ctx, "beta_q", n_max).values
    imb = im_bernoulli_numbers(r, n_max)
    pairs = []
    for n in range(n_max + 1):
        rhs = imb[n] * Fraction(2) ** (n - 1) * (1 - r) / q_pochhammer(r, r, n)
        pairs.append((n, suslov[n], rhs))
        pairs.append((n, beta[n], rhs))
    return _report("q_square_relation", n_max, pairs)


def _check_translation_b(ctx, n_max):
    big = build_family(ctx, "suslov_B", n_max)
    beta = build_family(ctx, "new_beta", n_max)
    pairs = []
    for n in range(n_max + 1):
        lhs = q_translate(ctx, big.entries[n], "minus_eta")
        pairs.append((n, lhs, beta.entries[n]))
    return _report("translation_B", n_max, pairs)


def _check_translation_e(ctx, n_max):
    se = build_family(ctx, "suslov_E", n_max)
    ne = build_family(ctx, "new_E", n_max)
    pairs = []
    for n in range(n_max + 1):
        lhs = q_translate(ctx, se.entries[n], "minus_eta")
        pairs.append((n, lhs, ne.entries[n] * Fraction(1, 2)))
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
        fam = build_family(ctx, kind, n_max)
        for n in range(1, n_max + 1):
            lhs = aw_derivative(ctx, fam.entries[n])
            rhs = fam.entries[n - 1] * c
            pairs.append((n, lhs, rhs))
    return _report("ladders", n_max, pairs)


def _check_eq4_decomposition(ctx, n_max):
    # - sum_k b_k(x) y**(2k) + E(eta; y) sum_k a_k(x) y**(2k) == E(x; y)
    order = n_max + 1
    a_q = _lidstone_quotients(ctx, "A", order)
    b_q = _lidstone_quotients(ctx, "B", order)
    eta = eta_exponential_series(ctx, order)
    recon = eta * a_q - b_q
    target = eq_exponential_series(ctx, order)
    pairs = []
    for n in range(order):
        pairs.append((n, _as_poly(recon[n]), _as_poly(target[n])))
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
    pairs = []
    for n in range(order):
        pairs.append((n, _as_poly(recon[n]), _as_poly(target[n])))
    return _report("euler_decomposition", n_max, pairs)


def _check_hermite_rep(ctx, n_max):
    # (q t**2; q**2)_inf * E(x; t) = sum q**(n**2/4)/(q;q)_n H_n(x|q) t**n
    order = n_max + 1
    q = ctx.q
    pref = pochhammer_series(q, 2, q * q, order)
    lhs = pref * eq_exponential_series(ctx, order)
    pairs = []
    from .fps import psi_weight

    for n in range(order):
        rhs = special_poly(ctx, "hermite", n) * psi_weight(ctx, n)
        pairs.append((n, _as_poly(lhs[n]), rhs))
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
