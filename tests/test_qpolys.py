from fractions import Fraction

import pytest

from oracles import lidstone_basis_rho, poly_from_basis
from qlidstone.qcore import QContext, psi_weights, q_number, q_pochhammer
from qlidstone.qpolys import (
    BASIS_KINDS,
    _factor_parts,
    _lidstone_quotients,
    FAMILY_KINDS,
    build_family,
    family_multiplier,
    build_numbers,
    check_identity,
    hermite_from_bernoulli,
    im_bernoulli_numbers,
    lidstone_basis,
    registry_names,
)
from qlidstone.symlaurent import SymPoly, aw_derivative, eval_at, special_poly

# -- families -------------------------------------------------------------


def test_family_degrees(ctx):
    for kind in FAMILY_KINDS:
        table = build_family(ctx, kind, 6)
        for n, p in enumerate(table.entries):
            assert p.degree == n, (kind, n)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(17, 29)])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_entries_from_the_multiplier(s, kind):
    # entry n of the family G(w) E(x; w) is sum_j G_{n-j} psi_j rho_j
    ctx = QContext(s)
    g = family_multiplier(s, kind, 13)
    psi = psi_weights(ctx, 13)
    table = build_family(ctx, kind, 12)
    for n in range(13):
        assert poly_from_basis(ctx, "rho", [g[n - j] * psi[j] for j in range(n + 1)]) == table.entries[n], n


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(13, 27)])
@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_lidstone_basis_matches_the_rho_basis_assembly(s, kind):
    ctx = QContext(s)
    assert lidstone_basis(ctx, kind, 6) == lidstone_basis_rho(ctx, kind, 6)


def test_family_multiplier_unknown_kind_raises():
    with pytest.raises(ValueError):
        family_multiplier(Fraction(1, 2), "suslov_Q", 4)


def test_new_beta_low_entries(ctx):
    table = build_family(ctx, "new_beta", 2)
    # the 0-entry is the constant (1 - sqrt q)/2
    assert table.entries[0] == SymPoly.const((1 - ctx.sqrt_q) / 2)
    assert eval_at(ctx, table.entries[1], "zero") == Fraction(-1, 2)


def test_family_ladders(ctx):
    c = ctx.aw_scale
    for kind in FAMILY_KINDS:
        table = build_family(ctx, kind, 10)
        for n in range(1, 11):
            assert aw_derivative(ctx, table.entries[n]) == table.entries[n - 1] * c, (kind, n)


# -- numbers --------------------------------------------------------------


def test_beta_number_facts(ctx):
    vals = build_numbers(ctx, "beta_q", 12).values
    rq = ctx.sqrt_q
    assert vals[0] == (1 - rq) / 2
    assert vals[1] == Fraction(-1, 2)
    assert vals[2] == rq / (2 * (1 - rq ** 3))
    for n in range(1, 6):
        assert vals[2 * n + 1] == 0
        # signs track the e/E-family numbers: (-1)**(n-1) beta_2n > 0
        assert (Fraction(-1) ** (n - 1) * vals[2 * n]) > 0


def test_im_number_facts():
    q = Fraction(1, 4)
    vals = im_bernoulli_numbers(q, 8)
    assert vals[0] == 1
    assert vals[1] == Fraction(-1, 2)
    assert vals[2] == q * q_number(2, q) / (4 * q_number(3, q))
    assert vals[4] == -(q ** 4) / 16 * q_pochhammer(-q, q, 2) * q_number(2, q) / (q_number(3, q) * q_number(5, q))
    for n in range(1, 4):
        assert vals[2 * n + 1] == 0
        assert (Fraction(-1) ** (n - 1) * vals[2 * n]) > 0


def test_im_numbers_from_context_base(ctx_half):
    table = build_numbers(ctx_half, "im_Bq", 6)
    assert table.values == im_bernoulli_numbers(ctx_half.q, 6)


# -- interpolation bases ------------------------------------------------------


def test_basis_boundary_values(ctx):
    A = lidstone_basis(ctx, "A", 5)
    B = lidstone_basis(ctx, "B", 5)
    for k in range(6):
        assert eval_at(ctx, A[k], "zero") == 0
        assert eval_at(ctx, B[k], "eta") == 0
    diff = A[0] - B[0]
    assert diff.is_constant() and diff.constant_value() == 1
    # A_0 is x/eta, not the constant 1 (the generating functions win)
    assert A[0].to_monomial() == (0, 1 / ctx.eta)
    assert eval_at(ctx, B[0], "zero") == -1


def test_basis_second_derivative_ladders(ctx_half):
    ctx = ctx_half
    for kind in ("A", "B", "M", "Mtilde"):
        basis = lidstone_basis(ctx, kind, 4)
        for k in range(1, 5):
            assert aw_derivative(ctx, basis[k], 2) == basis[k - 1], (kind, k)


# basis kind -> (family, index offset, scale exponent, factor): basis k is
# factor * c**(-2k - exponent) * (family entry 2k + offset), and it is
# c**(-2k - exponent) * (quotient coefficient 2k + exponent)
_BASIS_FROM_FAMILY = {
    "A": ("suslov_B", 1, 0, 2),
    "B": ("new_beta", 1, 0, 2),
    "M": ("new_E", 1, 1, 1),
    "Mtilde": ("suslov_E", 0, 0, 2),
}


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(9, 23)])
@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_basis_pins_both_construction_routes(kind, s):
    # route one scales the family tables; route two reads the coefficients of
    # the defining quotient series, whose A and B numerators have w cancelled
    ctx = QContext(s)
    c = ctx.aw_scale
    k_max = 6
    family, offset, exponent, factor = _BASIS_FROM_FAMILY[kind]
    table = build_family(ctx, family, 2 * k_max + 1).entries
    quotient = _lidstone_quotients(ctx, kind, 2 * k_max + 2)
    basis = lidstone_basis(ctx, kind, k_max)
    assert len(basis) == k_max + 1
    for k, b in enumerate(basis):
        scale = c ** (-2 * k - exponent)
        assert b == table[2 * k + offset] * (factor * scale), (kind, k, "family")
        coeff = quotient[2 * k + exponent]
        coeff = coeff if isinstance(coeff, SymPoly) else SymPoly.const(coeff)
        assert b == coeff * scale, (kind, k, "quotient")
    for K in range(k_max):
        assert lidstone_basis(ctx, kind, K) == basis[:K + 1]


def test_basis_scaled_vs_family(ctx_half):
    ctx = ctx_half
    c = ctx.aw_scale
    A = lidstone_basis(ctx, "A", 3)
    big = build_family(ctx, "suslov_B", 7)
    for k in range(4):
        assert A[k] == big.entries[2 * k + 1] * (2 * c ** (-2 * k))
    M = lidstone_basis(ctx, "M", 3)
    tilde = build_family(ctx, "new_E", 7)
    for k in range(4):
        assert M[k] == tilde.entries[2 * k + 1] * c ** (-2 * k - 1)


def test_decomposition_identities(ctx):
    assert check_identity(ctx, "eq4_decomposition", 10).passed
    assert check_identity(ctx, "euler_decomposition", 10).passed


# -- identity registry ----------------------------------------------------------


@pytest.mark.parametrize("name", registry_names())
def test_registry_passes(ctx, name):
    report = check_identity(ctx, name, 8)
    assert report.passed, report.first_failure


def test_unknown_identity_raises(ctx_half):
    with pytest.raises(ValueError):
        check_identity(ctx_half, "no_such_identity", 3)


def test_identity_report_failure_payload(ctx_half):
    # a deliberately broken comparison exercises the failure rendering
    from qlidstone.qpolys import _report

    bad = _report("demo", 1, [(0, SymPoly.const(1), SymPoly.const(2))])
    assert not bad.passed
    assert bad.first_failure["n"] == 0
    assert bad.first_failure["lhs"] == ["1"]
    assert bad.first_failure["rhs"] == ["2"]


def test_hermite_from_bernoulli(ctx):
    for n in range(9):
        assert hermite_from_bernoulli(ctx, n) == special_poly(ctx, "hermite", n)


def test_translations(ctx):
    from qlidstone.symlaurent import q_translate

    big = build_family(ctx, "suslov_B", 6)
    beta = build_family(ctx, "new_beta", 6)
    se = build_family(ctx, "suslov_E", 6)
    ne = build_family(ctx, "new_E", 6)
    for n in range(7):
        assert q_translate(ctx, big.entries[n], "minus_eta") == beta.entries[n]
        assert q_translate(ctx, se.entries[n], "minus_eta") == ne.entries[n] * Fraction(1, 2)


def test_number_cross_relations(ctx):
    # value of the big family at the reflected node equals the small numbers
    big = build_family(ctx, "suslov_B", 6)
    beta_vals = build_numbers(ctx, "beta_q", 6).values
    for n in range(7):
        assert eval_at(ctx, big.entries[n], "minus_eta") == beta_vals[n]


def test_q_square_relation_spot(ctx_half):
    # same content as the registry entry, pinned on one value
    r = ctx_half.sqrt_q
    suslov = build_numbers(ctx_half, "suslov_Bq", 4).values
    imb = im_bernoulli_numbers(r, 4)
    for n in range(5):
        assert suslov[n] == imb[n] * Fraction(2) ** (n - 1) * (1 - r) / q_pochhammer(r, r, n)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(17, 29)])
def test_suslov_e_numbers_are_half_the_new_e_multiplier(s):
    # the series (w; p)_inf / [(-w; p)_inf + (w; p)_inf] they were read off before, by itself
    _, minus, _, summ = _factor_parts(s, 14)
    for n in (0, 1, 2, 7, 13):
        assert build_numbers(QContext(s), "suslov_Eq", n).values == (minus / summ).coeffs[:n + 1]
