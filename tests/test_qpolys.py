from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (basis_series, binomial_series_fraction, factor_parts, lidstone_basis_rho, lidstone_quotients,
                     poly_from_basis, polynomial_check, q_pochhammer)
from qlidstone import cli, qpolys
from qlidstone.qcore import QContext, clear_tables, psi_weights, q_number
from qlidstone.qpolys import (
    BASIS_KINDS,
    FAMILY_KINDS,
    build_family,
    family_multiplier,
    build_numbers,
    check_identity,
    im_bernoulli_numbers,
    lidstone_basis,
    registry_names,
)
from qlidstone.symlaurent import SymPoly, aw_derivative, eval_at

# -- families -------------------------------------------------------------


def test_family_degrees(ctx):
    for kind in FAMILY_KINDS:
        table = build_family(ctx, kind, 6)
        for n, p in enumerate(table):
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
        assert poly_from_basis(ctx, "rho", [g[n - j] * psi[j] for j in range(n + 1)]) == table[n], n


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
    assert table[0] == SymPoly.const((1 - ctx.sqrt_q) / 2)
    assert eval_at(ctx, table[1], "zero") == Fraction(-1, 2)


def test_family_ladders(ctx):
    c = ctx.aw_scale
    for kind in FAMILY_KINDS:
        table = build_family(ctx, kind, 10)
        for n in range(1, 11):
            assert aw_derivative(ctx, table[n]) == table[n - 1] * c, (kind, n)


# -- numbers --------------------------------------------------------------


def test_beta_numbers_build_no_polynomial_table(capsys):
    # entry n of new_beta at x = 0, where only rho_0 is nonzero, is the multiplier coefficient G_n;
    # the family table read at 0 stays the reference
    clear_tables()
    ctx = QContext(Fraction(3, 5))
    vals = build_numbers(ctx, "beta_q", 16)
    assert cli.main(["numbers", "--kind", "beta", "--s", "2/3", "--order", "12"]) == 0
    assert qpolys._family_series.cache_info()[:2] == (0, 0)
    assert vals == tuple(eval_at(ctx, p, "zero") for p in build_family(ctx, "new_beta", 16))
    assert qpolys._family_series.cache_info()[:2] == (0, 1)


def test_beta_number_facts(ctx):
    vals = build_numbers(ctx, "beta_q", 12)
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
    assert table == im_bernoulli_numbers(ctx_half.q, 6)


# -- interpolation bases ------------------------------------------------------


def test_basis_boundary_values(ctx):
    A = lidstone_basis(ctx, "A", 5)
    B = lidstone_basis(ctx, "B", 5)
    for k in range(6):
        assert eval_at(ctx, A[k], "zero") == 0
        assert eval_at(ctx, B[k], "eta") == 0
    diff = A[0] - B[0]
    assert diff == 1
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
    table = build_family(ctx, family, 2 * k_max + 1)
    quotient = lidstone_quotients(ctx, kind, 2 * k_max + 2)
    basis = lidstone_basis(ctx, kind, k_max)
    assert len(basis) == k_max + 1
    for k, b in enumerate(basis):
        scale = c ** (-2 * k - exponent)
        assert b == table[2 * k + offset] * (factor * scale), (kind, k, "family")
        assert b == quotient[2 * k + exponent] * scale, (kind, k, "quotient")
    for K in range(k_max):
        assert lidstone_basis(ctx, kind, K) == basis[:K + 1]
    # the bases as the series sum_k c**(2k+e) (entry k) w**(2k+e), whose rho coordinates the decomposition
    # checks read, are the quotient series, coefficient by coefficient
    assert basis_series(ctx, kind, 2 * k_max + 2) == quotient.truncate(2 * k_max + 2)


def test_basis_scaled_vs_family(ctx_half):
    ctx = ctx_half
    c = ctx.aw_scale
    A = lidstone_basis(ctx, "A", 3)
    big = build_family(ctx, "suslov_B", 7)
    for k in range(4):
        assert A[k] == big[2 * k + 1] * (2 * c ** (-2 * k))
    M = lidstone_basis(ctx, "M", 3)
    tilde = build_family(ctx, "new_E", 7)
    for k in range(4):
        assert M[k] == tilde[2 * k + 1] * c ** (-2 * k - 1)


def test_decomposition_identities(ctx):
    assert check_identity(ctx, "eq4_decomposition", 10).passed
    assert check_identity(ctx, "euler_decomposition", 10).passed


@pytest.fixture
def cleared():
    clear_tables()
    yield
    clear_tables()  # no table built on a wrong basis outlives the test


def _fails(ctx, name, reference=True):
    # the report on rho coordinates is the polynomial form's, first failure and all, where that form can be built
    report = check_identity(ctx, name, 8)
    assert not reference or repr(report) == repr(polynomial_check(ctx, name, 8))
    return not report.passed and report.first_failure is not None


def test_decompositions_fail_on_a_wrong_basis(ctx_threefifths, monkeypatch, cleared):
    # the checks read the BASES rows, the multipliers and the eta table that the expansions use
    ctx = ctx_threefifths
    monkeypatch.setitem(qpolys.BASES, "B", ("new_beta", 1, 1, 0))
    assert _fails(ctx, "eq4_decomposition")
    monkeypatch.undo()
    clear_tables()
    monkeypatch.setitem(qpolys.BASES, "A", ("new_beta", 1, 2, 0))
    assert _fails(ctx, "eq4_decomposition")
    monkeypatch.undo()
    clear_tables()
    monkeypatch.setitem(qpolys.BASES, "M", ("new_E", 1, 2, 1))
    assert _fails(ctx, "euler_decomposition")
    monkeypatch.undo()
    clear_tables()
    # entry k = Mtilde family entry 2k + 2: lidstone_basis reads past its multiplier, so there is no polynomial form
    monkeypatch.setitem(qpolys.BASES, "Mtilde", ("suslov_E", 2, 2, 0))
    assert _fails(ctx, "euler_decomposition", reference=False)
    monkeypatch.undo()
    clear_tables()
    parts = qpolys._family_parts

    def doubled(s, kind, order):
        num, den = parts(s, kind, order)
        return (num * 2 if kind == "suslov_E" else num), den

    monkeypatch.setattr(qpolys, "_family_parts", doubled)
    assert _fails(ctx, "euler_decomposition")
    monkeypatch.undo()
    clear_tables()
    at_eta = qpolys.psi_rho_at_eta

    def perturbed(ctx, n):  # E_0(eta) moved off 1 in the integer table
        e, d = at_eta(ctx, n)
        return [e[0] + 1] + e[1:], d

    monkeypatch.setattr(qpolys, "psi_rho_at_eta", perturbed)
    # the polynomial form takes its own E(eta; w), off the chain, and holds
    for name in ("eq4_decomposition", "euler_decomposition"):
        assert _fails(ctx, name, reference=False) and polynomial_check(ctx, name, 8).passed


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=40),
       st.fractions(min_value=-5, max_value=5, max_denominator=40).filter(lambda b: abs(b) != 1),
       st.fractions(min_value=-5, max_value=5, max_denominator=40), st.integers(1, 26))
@example(Fraction(-5, 3), Fraction(9, 25), Fraction(-3, 5), 26)  # connection_F1 at s = 3/5
@example(Fraction(1, 3), Fraction(0), Fraction(2), 26)
@example(Fraction(0), Fraction(7, 2), Fraction(0), 26)
def test_binomial_series_matches_the_fraction_chain(a, base, z, order):
    assert repr(qpolys._binomial_series(a, base, z, order)) == repr(binomial_series_fraction(a, base, z, order))


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


def test_translations(ctx):
    from qlidstone.symlaurent import q_translate

    big = build_family(ctx, "suslov_B", 6)
    beta = build_family(ctx, "new_beta", 6)
    se = build_family(ctx, "suslov_E", 6)
    ne = build_family(ctx, "new_E", 6)
    for n in range(7):
        assert q_translate(ctx, big[n], "minus_eta") == beta[n]
        assert q_translate(ctx, se[n], "minus_eta") == ne[n] * Fraction(1, 2)


def test_number_cross_relations(ctx):
    # value of the big family at the reflected node equals the small numbers
    big = build_family(ctx, "suslov_B", 6)
    beta_vals = build_numbers(ctx, "beta_q", 6)
    for n in range(7):
        assert eval_at(ctx, big[n], "minus_eta") == beta_vals[n]


def test_q_square_relation_spot(ctx_half):
    # same content as the registry entry, pinned on one value
    r = ctx_half.sqrt_q
    suslov = build_numbers(ctx_half, "suslov_Bq", 4)
    imb = im_bernoulli_numbers(r, 4)
    for n in range(5):
        assert suslov[n] == imb[n] * Fraction(2) ** (n - 1) * (1 - r) / q_pochhammer(r, r, n)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(17, 29)])
def test_suslov_e_numbers_are_half_the_new_e_multiplier(s):
    # the series (w; p)_inf / [(-w; p)_inf + (w; p)_inf] they were read off before, by itself
    _, minus, _, summ = factor_parts(s, 14)
    for n in (0, 1, 2, 7, 13):
        assert build_numbers(QContext(s), "suslov_Eq", n) == (minus / summ).coeffs[:n + 1]
