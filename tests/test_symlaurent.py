import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (FractionSymPoly, fraction_change_basis, poly_from_basis, psi_weight, q_translate_hermite,
                     q_translate_rho, rho_laurent_product, rho_values, translate_weights)
from qlidstone import qcore
from qlidstone.qcore import QContext, clear_tables, psi_weights, q_number
from qlidstone.qpolys import build_family
from qlidstone.symlaurent import (
    SymPoly,
    aw_derivative,
    change_basis,
    eval_at,
    psi_rho_at_eta,
    psi_rho_poly,
    psi_rho_polys,
    psi_rho_sum,
    q_translate,
    special_poly,
)

small_fracs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3))


def _held(s):
    """The (table name, *key) slots the table store holds for s."""
    return set(qcore._store.get(qcore._key(s), {}))
coeff_lists = st.lists(small_fracs, min_size=1, max_size=6)


# -- representation ---------------------------------------------------------


def test_monomial_roundtrip_simple():
    p = SymPoly.from_monomial([Fraction(1, 2), 0, 1])  # x^2 + 1/2
    assert SymPoly.from_monomial(p.to_monomial()) == p
    assert p.degree == 2


@settings(max_examples=50, deadline=None)
@given(coeff_lists)
def test_monomial_roundtrip(mono):
    p = SymPoly.from_monomial(mono)
    back = p.to_monomial()
    assert SymPoly.from_monomial(back) == p


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists, small_fracs)
def test_mul_matches_pointwise(a, b, v):
    ctx = QContext(Fraction(1, 2))
    pa, pb = SymPoly(a), SymPoly(b)
    prod = pa * pb
    assert eval_at(ctx, prod, v) == eval_at(ctx, pa, v) * eval_at(ctx, pb, v)


def test_special_polys(ctx_half):
    ctx = ctx_half
    q = ctx.q
    assert special_poly(ctx, "rho", 0) == SymPoly.const(1)
    rho2 = special_poly(ctx, "rho", 2)
    assert rho2.coeffs == (Fraction(2), Fraction(0), Fraction(1))
    assert rho2.to_monomial() == (Fraction(0), Fraction(0), Fraction(4))  # 4x^2
    h2 = special_poly(ctx, "hermite", 2)
    assert h2.to_monomial() == (q - 1, Fraction(0), Fraction(4))  # 4x^2 - 1 + q
    a = Fraction(1, 3)
    phi1 = special_poly(ctx, "phi", 1, a)
    assert phi1.to_monomial() == (1 + a * a, -2 * a)
    with pytest.raises(ValueError):
        special_poly(ctx, "phi", 2)
    with pytest.raises(ValueError):
        special_poly(ctx, "g", 3)  # q**(n**2/4) rho_n is no longer a family


def test_rho_vanishes_at_zero(ctx):
    # the (1 + z^2) factor kills z = i, so every rho_n (n >= 1) vanishes at x = 0
    for n in range(1, 12):
        assert eval_at(ctx, special_poly(ctx, "rho", n), "zero") == 0


def test_eval_at_points(ctx_half):
    ctx = ctx_half
    rho1 = special_poly(ctx, "rho", 1)
    assert eval_at(ctx, rho1, "eta") == ctx.s + 1 / ctx.s
    assert eval_at(ctx, rho1, "minus_eta") == -(ctx.s + 1 / ctx.s)
    assert eval_at(ctx, special_poly(ctx, "rho", 2), "zero") == 0
    assert eval_at(ctx, SymPoly.const(1), "eta") == 1
    assert eval_at(ctx, SymPoly.const(1), Fraction(7, 13)) == 1


@settings(max_examples=50, deadline=None)
@given(coeff_lists, small_fracs)
def test_eval_matches_monomial_horner(coeffs, v):
    ctx = QContext(Fraction(1, 2))
    p = SymPoly(coeffs)
    horner = Fraction(0)
    for c in reversed(p.to_monomial()):
        horner = horner * v + c
    assert eval_at(ctx, p, v) == horner


# -- the divided-difference operator ------------------------------------------


def test_derivative_of_x(ctx):
    x = special_poly(ctx, "monomial", 1)
    assert aw_derivative(ctx, x) == SymPoly.const(1)


def test_derivative_rho2(ctx_half):
    ctx = ctx_half
    lhs = aw_derivative(ctx, special_poly(ctx, "rho", 2))
    factor = 2 * ctx.sqrt_q ** -1 * (1 + ctx.q)
    assert lhs == special_poly(ctx, "rho", 1) * factor


def test_rho_ladder(ctx):
    q = ctx.q
    s2 = ctx.s ** 2
    for n in range(1, 13):
        lhs = aw_derivative(ctx, special_poly(ctx, "rho", n))
        rhs = special_poly(ctx, "rho", n - 1) * (2 * s2 ** (1 - n) * q_number(n, q))
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fracs, min_size=1, max_size=9),
       st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29)]))
def test_ladder_on_random_rho_combinations(r, s):
    # D sum_n r_n rho_n = sum_n c r_{n+1} psi_n / psi_{n+1} rho_n, c = aw_scale
    ctx = QContext(s)
    psi = psi_weights(ctx, len(r))
    lhs = aw_derivative(ctx, poly_from_basis(ctx, "rho", r))
    rhs = poly_from_basis(ctx, "rho", [ctx.aw_scale * r[n + 1] * psi[n] / psi[n + 1] for n in range(len(r) - 1)])
    assert lhs == rhs


def test_derivative_representation_independent(ctx_half):
    # x * rho_n multiplied in the symmetric basis vs rebuilt from monomials
    ctx = ctx_half
    for n in range(5):
        p = special_poly(ctx, "monomial", 1) * special_poly(ctx, "rho", n)
        p2 = SymPoly.from_monomial(p.to_monomial())
        assert aw_derivative(ctx, p) == aw_derivative(ctx, p2)


def test_derivative_drops_degree(ctx_half):
    p = special_poly(ctx_half, "hermite", 7)
    for k in range(1, 8):
        assert aw_derivative(ctx_half, p, k).degree == 7 - k
    assert aw_derivative(ctx_half, p, 8).is_zero()


# -- basis conversion -----------------------------------------------------------


def test_change_basis_examples(ctx_half):
    ctx = ctx_half
    x2 = special_poly(ctx, "monomial", 2)
    # rho_2 = 4x^2 exactly, so x^2 = rho_2 / 4 with no constant term
    assert change_basis(ctx, x2) == (0, 0, Fraction(1, 4))
    rho3 = special_poly(ctx, "rho", 3)
    assert change_basis(ctx, rho3) == (0, 0, 0, 1)
    assert change_basis(ctx, SymPoly.zero()) == (0,)
    h2 = special_poly(ctx, "hermite", 2)
    assert h2.to_monomial() == (ctx.q - 1, 0, 4)


@settings(max_examples=30, deadline=None)
@given(coeff_lists)
def test_change_basis_roundtrip(coeffs):
    ctx = QContext(Fraction(1, 2))
    p = SymPoly(coeffs)
    assert poly_from_basis(ctx, "rho", change_basis(ctx, p)) == p
    assert SymPoly.from_monomial(p.to_monomial()) == p


taylor_bases = st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(17, 29), Fraction(9, 10), Fraction(1, 31)])
degree_0_to_20 = st.tuples(st.lists(small_fracs, max_size=20), small_fracs.filter(bool)).map(lambda t: t[0] + [t[1]])


@settings(max_examples=60, deadline=None)
@given(taylor_bases, degree_0_to_20)
def test_change_basis_matches_back_substitution(s, coeffs):
    # degrees 0-20: r_k = psi_k c**-k [D^k p](0) against back-substitution from the top degree
    ctx = QContext(s)
    got = change_basis(ctx, SymPoly(coeffs))
    assert got == fraction_change_basis(ctx, FractionSymPoly(coeffs), "rho")
    assert all(type(c) is Fraction for c in got)


def test_change_basis_of_suslov_E_matches_back_substitution():
    ctx = QContext(Fraction(5, 17))
    for n, entry in enumerate(build_family(ctx, "suslov_E", 16)):
        assert change_basis(ctx, entry) == fraction_change_basis(ctx, FractionSymPoly(entry.coeffs), "rho"), n



# -- translation ------------------------------------------------------------------


def test_translate_by_zero_is_identity(ctx):
    for n in range(6):
        p = special_poly(ctx, "hermite", n)
        assert q_translate(ctx, p, "zero") == p
    mixed = SymPoly([Fraction(1, 3), Fraction(2), Fraction(-1, 7)])
    assert q_translate(ctx, mixed, "zero") == mixed


@settings(max_examples=25, deadline=None)
@given(coeff_lists, coeff_lists, small_fracs, small_fracs)
def test_translate_linearity(a, b, alpha, beta):
    ctx = QContext(Fraction(1, 2))
    pa, pb = SymPoly(a), SymPoly(b)
    lhs = q_translate(ctx, pa * alpha + pb * beta, "minus_eta")
    rhs = q_translate(ctx, pa, "minus_eta") * alpha + q_translate(ctx, pb, "minus_eta") * beta
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_fracs, min_size=1, max_size=21),
    st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(17, 29), Fraction(9, 10), Fraction(19, 20)]),
    st.one_of(st.sampled_from(["zero", "eta", "minus_eta"]), small_fracs),
)
def test_translate_matches_hermite_oracle(coeffs, s, y):
    # the q-Taylor series against the product formula on the rho and on the q-Hermite basis
    ctx = QContext(s)
    p = SymPoly(coeffs)
    got = q_translate(ctx, p, y)
    assert got == q_translate_rho(ctx, p, y)
    assert got == q_translate_hermite(ctx, p, y)


@pytest.mark.parametrize("s", [Fraction(5, 17), Fraction(23, 29)])
def test_translate_matches_rho_oracle_on_suslov_families(s):
    ctx = QContext(s)
    for family in ("suslov_B", "suslov_E"):
        for n, p in enumerate(build_family(ctx, family, 16)):
            for y in ("eta", "minus_eta", Fraction(-4, 3)):
                assert q_translate(ctx, p, y) == q_translate_rho(ctx, p, y), (family, n, y)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(17, 29), Fraction(1, 31)])
def test_translate_weights_closed_form(s):
    ctx = QContext(s)
    for y in ("zero", "eta", "minus_eta", Fraction(-7, 5)):
        want = [psi_weight(ctx, k) * eval_at(ctx, special_poly(ctx, "rho", k), y) / ctx.aw_scale ** k
                for k in range(14)]
        assert translate_weights(ctx, y, 14) == want, y


def test_translation_and_the_rho_family_hold_no_table_of_their_own():
    # q_translate reads the D chain and the psi-rho stream, and rho_n is the chain's psi_n rho_n over psi_n
    ctx = QContext(Fraction(8, 33))
    p = SymPoly([Fraction(1, 3), 2, Fraction(-1, 7), 5, 1])
    points = ("zero", "eta", "minus_eta", Fraction(5, 3))
    clear_tables()
    got = [q_translate(ctx, p, y) for y in points]
    assert _held(ctx.s) == set()
    rho = special_poly(ctx, "rho", 7)
    assert _held(ctx.s) == {("_psi_stream",), ("_psi_rho_chain", 1)}
    assert got == [q_translate_rho(ctx, p, y) for y in points]
    assert rho == rho_laurent_product(ctx.s, 7)


def test_the_rho_family_survives_edits_to_the_lists_of_its_tables():
    # rho_n reads psi_n and psi_n rho_n from the tables that psi_weights and psi_rho_polys hand out
    ctx = QContext(Fraction(6, 13))
    clear_tables()
    want = [special_poly(ctx, "rho", n) for n in range(6)]
    weights, polys = psi_weights(ctx, 6), psi_rho_polys(ctx, 6)
    weights[3], polys[3] = Fraction(99), SymPoly([7])
    weights.append(Fraction(1))
    polys.append(SymPoly([1]))
    assert [special_poly(ctx, "rho", n) for n in range(7)] == want + [rho_laurent_product(ctx.s, 6)]
    assert psi_weights(ctx, 6)[3] == psi_weight(ctx, 3)


def test_translate_unknown_point_raises(ctx_half):
    with pytest.raises(ValueError):
        q_translate(ctx_half, SymPoly([1, 2]), "one")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(9, 10)]), st.integers(0, 30))
def test_rho_matches_laurent_product_oracle(s, n):
    assert special_poly(QContext(s), "rho", n) == rho_laurent_product(s, n)


def test_cold_rho_does_not_recurse_deeply():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)  # a recursion on n would need n/2 = 40 levels
    try:
        rho = special_poly(QContext(Fraction(1, 3)), "rho", 80)
    finally:
        sys.setrecursionlimit(limit)
    assert rho.degree == 80 and rho.coeffs[-1] == 1


def test_reflection():
    p = SymPoly([Fraction(1), Fraction(2), Fraction(3)])
    r = p.reflect()
    assert r.coeffs == (Fraction(1), Fraction(-2), Fraction(3))
    assert r.reflect() == p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(9, 10), Fraction(1, 31)]),
       st.one_of(st.sampled_from(["zero", "eta", "minus_eta"]),
                 st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=50)),
       st.integers(0, 20))
def test_rho_values_match_eval_at(s, y, n):
    # against the product form, which shares no step with the recurrence rho_values reads
    ctx = QContext(s)
    assert rho_values(ctx, y, n) == [eval_at(ctx, rho_laurent_product(s, j), y) for j in range(n)]


@pytest.mark.parametrize("y", ["zero", "eta", "minus_eta", Fraction(-7, 5)])
def test_rho_values_returns_a_copy(y):
    ctx = QContext(Fraction(5, 13))
    table = rho_values(ctx, y, 6)
    want = list(table)
    table[1] = Fraction(99)
    table.append(Fraction(1))
    assert rho_values(ctx, y, 6) == want
    assert rho_values(ctx, y, 9)[:6] == want


def test_rho_values_unknown_point_raises(ctx_half):
    with pytest.raises(ValueError):
        rho_values(ctx_half, "one", 3)


# -- the psi_j rho_j tables ------------------------------------------------------------


def _psi_rho_prefixes(ctx, sizes):
    # each prefix of both tables, the eta values as Fractions (the common denominator
    # is that of the longest prefix built so far)
    out = []
    for n in sizes:
        nums, den = psi_rho_at_eta(ctx, n)
        out.append((psi_rho_polys(ctx, n), [Fraction(e, den) for e in nums]))
    return out


def test_psi_rho_tables_agree_in_rising_and_falling_order():
    ctx = QContext(Fraction(5, 23))
    sizes = [0, 1, 2, 5, 9, 16, 23]
    clear_tables()
    rising = _psi_rho_prefixes(ctx, sizes)
    clear_tables()
    psi_rho_poly(ctx, 14)  # one parity ahead of the other
    falling = _psi_rho_prefixes(ctx, sizes[::-1])[::-1]
    assert rising == falling
    polys, at_eta = rising[-1]
    assert polys == [special_poly(ctx, "rho", j) * psi_weight(ctx, j) for j in range(23)]
    assert at_eta == [psi_weight(ctx, j) * eval_at(ctx, special_poly(ctx, "rho", j), "eta") for j in range(23)]


def test_psi_rho_tables_return_copies():
    ctx = QContext(Fraction(6, 19))
    want_polys, want_eta = psi_rho_polys(ctx, 8), psi_rho_at_eta(ctx, 8)
    polys = psi_rho_polys(ctx, 8)
    polys[0] = SymPoly.zero()
    polys.append(SymPoly.const(1))
    nums, _ = psi_rho_at_eta(ctx, 8)
    nums[0] = 99
    nums.append(1)
    assert psi_rho_polys(ctx, 8) == want_polys
    assert psi_rho_polys(ctx, 11)[:8] == want_polys
    assert psi_rho_at_eta(ctx, 8) == want_eta


def test_psi_rho_tables_are_keyed_on_s_alone():
    ctx = QContext(Fraction(8, 35))
    clear_tables()
    for n in (4, 11, 2):
        psi_rho_polys(ctx, n)
        psi_rho_polys(ctx, n + 1)
        psi_rho_at_eta(ctx, n + 3)
    # one table per chain, and at eta one table over its denominator, whatever the orders asked
    assert _held(ctx.s) == {("_psi_rho_chain", 0), ("_psi_rho_chain", 1), ("psi_rho_at_eta",)}


def test_psi_rho_poly_negative_index_raises(ctx_half):
    with pytest.raises(ValueError):
        psi_rho_poly(ctx_half, -1)


def test_psi_rho_sum_skips_zero_coefficients():
    ctx = QContext(Fraction(7, 29))
    clear_tables()
    coeffs = [0, Fraction(1, 3), 0, Fraction(-2, 5), 0, 0, 0, Fraction(4, 9)]
    got = psi_rho_sum(ctx, coeffs)
    assert _held(ctx.s) == {("_psi_rho_chain", 1)}  # only the odd j were built
    entries, _ = qcore._store[qcore._key(ctx.s)][("_psi_rho_chain", 1)]
    assert len(entries) == 4
    assert got == poly_from_basis(ctx, "rho", [a * psi_weight(ctx, j) for j, a in enumerate(coeffs)])
