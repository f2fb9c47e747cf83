"""The registry on the family multipliers G: each family is G(w) E(x; w), its table is summed from G, the
connection, reflection and translation checks compare scalar series, and the decomposition and Hermite checks
compare rho coordinates, and ladders, eq17, reflection_B, eq18 and numbers_agree_Eq10 are decided on G where the
stored audit of the psi-rho chain holds, and eq16 where the stored audit of its phi lemma holds; a failed audit fails
the checks that read it.  The decompositions read the shared products G E(-eta; w), each one correlation with the
integer eta table.  The Hermite table is summed on the chain, and hermite_rep compares it with the q-binomial closed
form.  Their references are the division form (N E)/D, the polynomial form of each check, the decompositions'
own-product route, a Series product with E(+-eta; w) evaluated off the chain and the Fraction closed form of the
q-Hermite polynomials, in ``oracles``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import CHAIN_CHECKS, POLYNOMIAL_CHECKS, family_quotient, hermite_closed_fraction, polynomial_check
from qlidstone import cli, qcore, qpolys, symlaurent
from qlidstone.fps import Series
from qlidstone.qcore import QContext, clear_tables, psi_weights
from qlidstone.qpolys import FAMILY_KINDS, _render_side, build_family, check_identity, family_multiplier, registry_names
from qlidstone.symlaurent import SymPoly, special_poly

PINNED_BASES = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(13, 27), Fraction(24, 25))
REPORT_BASES = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(24, 25))


@pytest.fixture
def cleared():
    clear_tables()
    yield
    clear_tables()  # no table built under a mutation outlives the test


@pytest.mark.parametrize("s", PINNED_BASES)
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_families_equal_the_division_form(s, kind):
    ctx = QContext(s)
    assert build_family(ctx, kind, 24) == family_quotient(ctx, kind, 25)


@pytest.mark.parametrize("name", POLYNOMIAL_CHECKS)
def test_scalar_and_polynomial_forms_give_the_same_reports(name):
    for s in REPORT_BASES:
        for n in (0, 1, 2, 9, 16):
            assert repr(check_identity(QContext(s), name, n)) == repr(polynomial_check(QContext(s), name, n))


def _failing(ctx, names=POLYNOMIAL_CHECKS):
    return {name for name in names if not check_identity(ctx, name, 8).passed}


def _assert_chain_reports(ctx):
    for name in CHAIN_CHECKS:
        assert repr(check_identity(ctx, name, 8)) == repr(polynomial_check(ctx, name, 8)), name


# the checks that a changed even coefficient of each multiplier fails (reflection_B reads the odd ones of G_B)
READERS = {
    "suslov_B": {"connection_F1", "connection_F2", "eq16", "translation_B", "eq4_decomposition", "eq18",
                 "numbers_agree_Eq10"},
    "new_beta": {"connection_F1", "connection_F2", "reflection_beta", "eq16", "translation_B", "eq4_decomposition",
                 "numbers_agree_Eq10"},
    "suslov_E": {"translation_E", "euler_decomposition", "numbers_agree_Eq10"},
    "new_E": {"translation_E", "euler_decomposition", "numbers_agree_Eq10"},
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_doubled_numerator_coefficient_fails_the_checks_that_read_it(kind, monkeypatch, cleared):
    parts = qpolys._family_parts

    def doubled(s, k, order):
        num, den = parts(s, k, order)
        if k == kind and num.order > 2:  # coefficient 2 is nonzero in every N
            num = Series(num.coeffs[:2] + (2 * num[2],) + num.coeffs[3:])
        return num, den

    monkeypatch.setattr(qpolys, "_family_parts", doubled)
    ctx = QContext(Fraction(3, 5))
    assert _failing(ctx) == READERS[kind]
    for name in POLYNOMIAL_CHECKS:  # the failing reports too, first failure and all
        report = check_identity(ctx, name, 8)
        assert repr(report) == repr(polynomial_check(ctx, name, 8))
        assert report.passed or report.first_failure["n"] >= 2  # G is unchanged below w**2


@pytest.mark.parametrize("kind", ["new_beta", "new_E"])
def test_a_basis_read_without_eta_fails_one_parity_of_entries(kind, monkeypatch, cleared):
    # B and M enter their decompositions with no factor E(eta; w), so a wrong multiplier coefficient reaches
    # every other entry only; each parity of n is judged apart, as in the polynomial form
    parts = qpolys._family_parts

    def wrong(s, k, order):
        num, den = parts(s, k, order)
        return (Series(num.coeffs[:4] + (num[4] + Fraction(1, 3),) + num.coeffs[5:]) if k == kind else num), den

    monkeypatch.setattr(qpolys, "_family_parts", wrong)
    ctx = QContext(Fraction(3, 5))
    name = "eq4_decomposition" if kind == "new_beta" else "euler_decomposition"
    report = check_identity(ctx, name, 9)
    assert repr(report) == repr(polynomial_check(ctx, name, 9))
    assert [n for n, ok in report.results if not ok] == list(range(report.first_failure["n"], 10, 2))


def test_a_wrong_connection_coefficient_fails_the_checks_that_read_it(monkeypatch, cleared):
    # the phi audit reads c too, so it fails from k = 3, and eq16 with it
    binomial = qpolys._binomial_series

    def wrong(a, base, z, order):
        c = binomial(a, base, z, order).coeffs
        return Series(c[:3] + (c[3] + 1,) + c[4:]) if len(c) > 3 else Series(c)

    monkeypatch.setattr(qpolys, "_binomial_series", wrong)
    assert _failing(QContext(Fraction(3, 5))) == {"connection_F1", "connection_F2", "reflection_beta", "eq16"}
    _assert_chain_reports(QContext(Fraction(3, 5)))


def test_an_odd_multiplier_coefficient_fails_reflection_b_from_its_entry(monkeypatch, cleared):
    # G_B(-w) = G_B(w) first fails at w**3, so entries 3, 4, ... fail, and entry 3 is summed to be shown
    parts = qpolys._family_parts

    def odd(s, k, order):
        num, den = parts(s, k, order)
        return (Series(num.coeffs[:3] + (num[3] + Fraction(1, 3),) + num.coeffs[4:]) if k == "suslov_B" else num), den

    monkeypatch.setattr(qpolys, "_family_parts", odd)
    ctx = QContext(Fraction(3, 5))
    report = check_identity(ctx, "reflection_B", 8)
    assert repr(report) == repr(polynomial_check(ctx, "reflection_B", 8))
    assert [n for n, ok in report.results if not ok] == list(range(3, 9))


def test_a_flipped_eta_sign_fails_the_translations(monkeypatch, cleared):
    # G E(-eta; w) taken as G E(eta; w): numbers_agree_Eq10 reads the families at -eta off that product too, on the
    # audited chain, and the decompositions read G E(eta; w) as that product at -w
    times_eta = qpolys._times_eta
    monkeypatch.setattr(qpolys, "_times_eta", lambda ctx, coeffs, sign: times_eta(ctx, coeffs, 1))
    assert _failing(QContext(Fraction(3, 5))) == {"translation_B", "translation_E", "numbers_agree_Eq10",
                                                  "eq4_decomposition", "euler_decomposition"}


def _flip_eta_value(monkeypatch):
    # e_3 of the registry's eta table negated, so psi_3 rho_3(eta) is: the chain is sound, but the audit cannot vouch
    # for E(-eta; w) past w**2
    at_eta = qpolys.psi_rho_at_eta

    def flipped(ctx, n):
        e, d = at_eta(ctx, n)
        return [-v if j == 3 else v for j, v in enumerate(e)], d

    monkeypatch.setattr(qpolys, "psi_rho_at_eta", flipped)


def _double_divided_difference(monkeypatch):
    # D doubled on degree 4: D P_4 = c P_3 fails
    derivative = qpolys.aw_derivative

    def wrong(ctx, p, k=1):
        d = derivative(ctx, p, k)
        return d * 2 if p.degree == 4 else d

    monkeypatch.setattr(qpolys, "aw_derivative", wrong)


def _step_chain(monkeypatch, j0, step):
    steps = symlaurent._psi_rho_steps
    monkeypatch.setattr(symlaurent, "_psi_rho_steps",
                        lambda s: (step(*abe) if j == j0 else abe for j, abe in enumerate(steps(s), 2)))


def _double_b4(monkeypatch):
    # B_4 doubled changes psi_4 rho_4 but not its value at 0, so the beta numbers stand; P_4 is no longer the product
    # form, and the phi lemma, summed on the chain, fails with it
    _step_chain(monkeypatch, 4, lambda A, B, E: (A, 2 * B, E))


def _shift_p2(monkeypatch):
    # A_2 + E_2 shifts P_2 by 1: D P_2 = c P_1 still holds, and the eta stream, stepped alike, agrees with the chain,
    # so only the product form of rho_2 tells; the phi lemma fails with it
    _step_chain(monkeypatch, 2, lambda A, B, E: (A + E, B, E))


def _double_phi_factor(monkeypatch):
    # the factor taking phi_2 to phi_3 doubled: only the phi lemma reads it
    factorials = qpolys._aw_factorials
    monkeypatch.setattr(qpolys, "_aw_factorials",
                        lambda a, base, n: [f * 2 if k >= 3 else f for k, f in enumerate(factorials(a, base, n))])


def _shift_c3(monkeypatch):
    # c_3 + 1 in every q-binomial series: the connections and reflection_beta read it on G, and the phi lemma too
    binomial = qpolys._binomial_series

    def wrong(a, base, z, order):
        c = binomial(a, base, z, order).coeffs
        return Series(c[:3] + (c[3] + 1,) + c[4:]) if len(c) > 3 else Series(c)

    monkeypatch.setattr(qpolys, "_binomial_series", wrong)


AUDIT_READERS = {"chain_audit": CHAIN_CHECKS, "phi_audit": ("eq16",)}
# mutation -> ({audit: its first failing verdict}, the checks that fail at s = 3/5 through n = 8)
AUDIT_FAULTS = {
    "eta_value": (_flip_eta_value, {"chain_audit": 3},
                  {"translation_B", "translation_E", "eq4_decomposition", "euler_decomposition", *CHAIN_CHECKS}),
    "divided_difference": (_double_divided_difference, {"chain_audit": 4}, set(CHAIN_CHECKS)),
    "b4_doubled": (_double_b4, {"chain_audit": 4, "phi_audit": 4},
                   {"eq16", "translation_B", "translation_E", "eq4_decomposition", "euler_decomposition", "hermite_rep",
                    *CHAIN_CHECKS}),
    "p2_shifted": (_shift_p2, {"chain_audit": 2, "phi_audit": 2},
                   {"eq16", "translation_B", "translation_E", "eq4_decomposition", "euler_decomposition", "hermite_rep",
                    *CHAIN_CHECKS}),
    "phi_factor": (_double_phi_factor, {"phi_audit": 3}, {"eq16"}),
    "c3_shifted": (_shift_c3, {"phi_audit": 3}, {"connection_F1", "connection_F2", "reflection_beta", "eq16"}),
}


@pytest.mark.parametrize("fault", AUDIT_FAULTS)
def test_a_failed_audit_fails_every_check_that_reads_it(fault, monkeypatch, cleared):
    # each check reading the failed audit passes below its first failing verdict j, fails at every entry n >= j, and
    # names the audit; no check reaches a family table
    def refuse(*args):
        raise AssertionError("a family table was reached")

    mutate, first_bad, failing = AUDIT_FAULTS[fault]
    mutate(monkeypatch)
    for name in ("build_family", "_family_series"):
        monkeypatch.setattr(qpolys, name, refuse)
    ctx = QContext(Fraction(3, 5))
    for audit in AUDIT_READERS:
        verdicts = getattr(qpolys, "_" + audit)(ctx, 9)
        assert (verdicts.index(False) == first_bad[audit]) if audit in first_bad else all(verdicts), audit
    assert _failing(ctx, registry_names()) == failing
    for audit, j in first_bad.items():
        for name in AUDIT_READERS[audit]:
            report = check_identity(ctx, name, 8)
            assert report.first_failure == {"n": j, "audit": audit}, name
            assert report.note == oracles.NOTES.get(name, ""), name
            assert {n for n, ok in report.results if not ok} == set(range(j, 9)), name
            assert check_identity(ctx, name, j - 1).passed, name


def test_an_entry_failing_below_the_failed_verdict_is_shown_first(monkeypatch, cleared):
    # G_B coefficient 2 doubled fails eq18 from entry 2, and e_3 negated in the eta table fails the chain audit at 3:
    # entry 2 is shown as the polynomial form shows it, and the entries from 2 on fail
    parts = qpolys._family_parts

    def doubled(s, k, order):
        num, den = parts(s, k, order)
        return (Series(num.coeffs[:2] + (2 * num[2],) + num.coeffs[3:]) if k == "suslov_B" else num), den

    monkeypatch.setattr(qpolys, "_family_parts", doubled)
    _flip_eta_value(monkeypatch)
    ctx = QContext(Fraction(3, 5))
    report = check_identity(ctx, "eq18", 8)
    assert repr(report) == repr(polynomial_check(ctx, "eq18", 8))
    assert report.first_failure["n"] == 2 and [n for n, ok in report.results if not ok] == list(range(2, 9))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_family_table_with_g_reversed_fails_no_check(kind, monkeypatch, cleared):
    # no check reads a family table, so a wrong table of any kind is caught by the division form alone
    # (test_families_equal_the_division_form)
    series = qpolys._family_series

    def reversed_g(ctx, k, order):  # entry n summed as sum_j G_j psi_j rho_j
        g = qpolys._multiplier(ctx, k, order).coeffs
        return [qpolys.psi_rho_sum(ctx, g[:n + 1]) for n in range(order)] if k == kind else series(ctx, k, order)

    monkeypatch.setattr(qpolys, "_family_series", reversed_g)
    ctx = QContext(Fraction(3, 5))
    assert build_family(ctx, kind, 8) != family_quotient(ctx, kind, 9)
    assert _failing(ctx, registry_names()) == set()
    _assert_chain_reports(ctx)


def test_a_dropped_psi_rho_term_fails_the_checks_that_sum_entries(monkeypatch, cleared):
    psi_rho_sum = qpolys.psi_rho_sum
    monkeypatch.setattr(qpolys, "psi_rho_sum", lambda ctx, coeffs: psi_rho_sum(ctx, [0, *coeffs[1:]]))
    ctx = QContext(Fraction(3, 5))
    assert all(build_family(ctx, kind, 8) != family_quotient(ctx, kind, 9) for kind in FAMILY_KINDS)
    assert _failing(ctx, registry_names()) == {"eq16"}  # its phi audit fails; the Hermite table sums in symlaurent
    _assert_chain_reports(ctx)


def test_the_scalar_checks_build_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial route was taken")

    for module, name in ((symlaurent, "q_translate"), (qpolys, "build_family"), (qpolys, "_family_series")):
        monkeypatch.setattr(module, name, refuse)
    for s in (Fraction(1, 2), Fraction(17, 29)):
        for name in POLYNOMIAL_CHECKS:
            assert all(check_identity(QContext(s), name, n).passed for n in (0, 1, 2, 9, 12)), (s, name)


def test_the_chain_checks_read_no_family_table_while_they_pass(monkeypatch):
    # the chain checks are decided on the audited psi-rho chain and the multipliers G, and sum no entry
    def refuse(*args):
        raise AssertionError("a family table or a sum of entries was reached")

    for name in ("build_family", "_family_series", "psi_rho_sum"):
        monkeypatch.setattr(qpolys, name, refuse)
    for s in (Fraction(1, 2), Fraction(17, 29)):
        for name in CHAIN_CHECKS:
            assert all(check_identity(QContext(s), name, n).passed for n in (0, 1, 2, 9, 12)), (s, name)


def test_the_coordinate_checks_sum_no_passing_entry(monkeypatch):
    # the decompositions read the multipliers, not the bases, and sum an entry only to show it failing; the
    # Hermite check compares the Hermite table, summed on the chain by symlaurent, with the closed form
    def refuse(*args):
        raise AssertionError("a polynomial route was taken")

    for name in ("lidstone_basis", "build_family", "_family_series", "psi_rho_sum"):
        monkeypatch.setattr(qpolys, name, refuse)
    for s in (Fraction(1, 2), Fraction(17, 29)):
        for name in ("eq4_decomposition", "euler_decomposition", "hermite_rep"):
            assert all(check_identity(QContext(s), name, n).passed for n in (0, 1, 2, 9, 12)), (s, name)


# s with numerator and denominator up to 40, and tiny and near-1 bases
BASES_DRAWN = st.one_of(st.integers(2, 40).flatmap(lambda d: st.integers(1, d - 1).map(lambda p: Fraction(p, d))),
                        st.sampled_from([Fraction(1, 10 ** 6), Fraction(1, 997), Fraction(996, 997),
                                         Fraction(10 ** 6 - 1, 10 ** 6)]))


@settings(max_examples=30, deadline=None)
@given(BASES_DRAWN, st.integers(0, 30))
def test_the_chain_audit_holds_on_a_correct_build(s, n):
    # so a correct build never fails a chain check on its audit
    assert all(qpolys._chain_audit(QContext(s), n + 1))


@settings(max_examples=30, deadline=None)
@given(BASES_DRAWN, st.integers(0, 30))
def test_the_phi_audit_holds_on_a_correct_build(s, n):
    # so a correct build never fails eq16 on its audit
    assert all(qpolys._phi_audit(QContext(s), n + 1))


@settings(max_examples=40, deadline=None)
@given(BASES_DRAWN, st.integers(0, 30))
def test_the_hermite_table_agrees_with_both_closed_forms(s, n):
    # the table summed on the psi-rho chain, the integer q-Pascal rows of hermite_rep and the Fraction closed form
    table = [special_poly(QContext(s), "hermite", m) for m in range(n + 1)]
    assert table == qpolys._hermite_closed(s, n) == hermite_closed_fraction(s, n)


def test_a_wrong_q_coefficient_in_the_hermite_sum_fails_hermite_rep(monkeypatch, cleared):
    # the Hermite table summed with Q_2 + 1/3: hermite_rep holds it against the closed form from entry 2 on; eq18,
    # decided on 2 W G_B = Q, reads no table while it passes
    def wrong_table(s, n):
        ctx, qs = QContext(s), list(oracles._qw2_series(s, n + 3).coeffs)
        qs[2] += Fraction(1, 3)
        return [symlaurent.psi_rho_sum(ctx, qs[m::-1]) / psi for m, psi in enumerate(psi_weights(ctx, n))]

    monkeypatch.setattr(symlaurent, "_hermite_table", wrong_table)
    ctx = QContext(Fraction(3, 5))
    assert _failing(ctx, registry_names()) == {"hermite_rep"}
    report = check_identity(ctx, "hermite_rep", 8)
    assert [n for n, ok in report.results if not ok] == list(range(2, 9))
    assert report.first_failure["lhs"] == _render_side(wrong_table(ctx.s, 3)[2] * psi_weights(ctx, 3)[2])


def test_a_closed_form_off_by_one_factor_fails_hermite_rep(monkeypatch, cleared):
    # [3 1]_q = (1 - q**3) / (1 - q) taken over one more factor 1 - q: entry 3 alone fails, shown as L_3 against
    # psi_3 times the wrong closed form
    closed = qpolys._hermite_closed

    def off(s, n_max):
        out = closed(s, n_max)
        if n_max >= 3:
            coeffs = list(out[3].coeffs)
            coeffs[1] /= 1 - s ** 4
            out[3] = SymPoly(coeffs)
        return out

    monkeypatch.setattr(qpolys, "_hermite_closed", off)
    ctx = QContext(Fraction(3, 5))
    assert _failing(ctx, registry_names()) == {"hermite_rep"}
    report = check_identity(ctx, "hermite_rep", 8)
    psi = psi_weights(ctx, 4)[3]
    assert [n for n, ok in report.results if not ok] == [3]
    assert report.first_failure == {"n": 3, "lhs": _render_side(special_poly(ctx, "hermite", 3) * psi),
                                    "rhs": _render_side(off(ctx.s, 3)[3] * psi)}


@pytest.mark.parametrize("order", [10, 11])
def test_identities_build_each_multiplier_once(order, capsys, cleared):
    assert cli.main(["identities", "--all", "--s", "3/5", "--order", str(order)]) == 0
    capsys.readouterr()
    assert family_multiplier.cache_info().misses == 4


def test_identities_build_no_family_table_and_each_audit_once(capsys, cleared):
    # every chain check reads the one chain audit, eq16 the phi audit too, and the two checks that share each of the
    # three Series products read it from the product table
    assert cli.main(["identities", "--all", "--s", "3/5", "--order", "10"]) == 0
    capsys.readouterr()
    assert qpolys._family_series.cache_info().misses == 0
    tables = qpolys._chain_audit, qpolys._phi_audit, qpolys._product
    assert [table.cache_info().misses for table in tables] == [1, 1, 3]
    assert not [slot for slot in qcore._store[qcore._key(Fraction(3, 5))] if slot[0] == "_family_series"]


def test_identities_take_four_series_products_and_two_eta_correlations(monkeypatch, capsys, cleared):
    # G_B E(-eta; w), G_sE E(-eta; w) and G_beta c are each taken once: the first two, correlations with the eta
    # table, are read by the translations, numbers_agree_Eq10 and the decompositions, the third, a Series product, by
    # connection_F2 and eq16; connection_F1, reflection_beta and eq18 take one Series product each, and no all-zero
    # part is multiplied
    mul, times_eta, products, signs = Series.__mul__, qpolys._times_eta, [], []

    def counted(self, other):
        products.extend([other] if isinstance(other, Series) else [])
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(qpolys, "_times_eta",
                        lambda ctx, coeffs, sign: signs.append(sign) or times_eta(ctx, coeffs, sign))
    assert cli.main(["identities", "--all", "--s", "3/5", "--order", "10"]) == 0
    capsys.readouterr()
    assert len(products) == 4 and signs == [-1, -1]


# -- the decompositions on the shared products, against the route that took its own --------------------------------

DECOMPOSITIONS = tuple(oracles.DECOMPOSITION_PARTS)


def _assert_product_route_reports(ctx, names=DECOMPOSITIONS, ns=(0, 1, 2, 3, 8, 9)):
    # the failing reports too, first failure and all
    for name in names:
        for n in ns:
            report = check_identity(ctx, name, n)
            assert repr(report) == repr(oracles.decomposition_by_products(ctx, name, n)), (name, n)


def _spy_products(monkeypatch):
    kinds, product = [], qpolys._product
    monkeypatch.setattr(qpolys, "_product", lambda ctx, kind, order: kinds.append(kind) or product(ctx, kind, order))
    return kinds


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 30).flatmap(lambda d: st.integers(1, d - 1).map(lambda p: Fraction(p, d))),
                 st.sampled_from([Fraction(20, 21), Fraction(29, 30)])),
       st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.fractions(max_denominator=50)), max_size=40),
       st.sampled_from([1, -1]))
@example(Fraction(20, 21), [], 1)
@example(Fraction(20, 21), [], -1)
@example(Fraction(20, 21), [0, -3, 0, Fraction(-5, 7)] * 10, -1)
@example(Fraction(20, 21), [Fraction(2, 3), 0, 0, -1, 7] * 8, 1)
@example(Fraction(3, 5), [0] * 40, -1)
def test_times_eta_is_the_series_product_with_e_at_plus_or_minus_eta(s, coeffs, sign):
    # the correlation with the integer eta table, against a Series product with E(sign eta; w) evaluated off the chain
    ctx = QContext(s)
    point = "eta" if sign > 0 else "minus_eta"
    want = (Series(coeffs) * oracles.exponential_at(ctx, point, len(coeffs))).coeffs if coeffs else ()
    assert repr(qpolys._times_eta(ctx, coeffs, sign)) == repr(want)


@settings(max_examples=30, deadline=None)
@given(BASES_DRAWN, st.integers(0, 30))
def test_the_decompositions_report_as_the_product_route(s, n):
    ctx = QContext(s)
    for name in DECOMPOSITIONS:
        assert repr(check_identity(ctx, name, n)) == repr(oracles.decomposition_by_products(ctx, name, n))


def test_an_odd_g_b_coefficient_sends_eq4_to_its_own_product(monkeypatch, cleared):
    # G_B gains w**3: from order 3 on neither parity part of A is G_B itself, so neither reads the stored G_B E(-eta)
    parts = qpolys._family_parts

    def odd(s, k, order):
        num, den = parts(s, k, order)
        return (Series(num.coeffs[:3] + (num[3] + Fraction(1, 3),) + num.coeffs[4:]) if k == "suslov_B" else num), den

    monkeypatch.setattr(qpolys, "_family_parts", odd)
    ctx = QContext(Fraction(3, 5))
    kinds = _spy_products(monkeypatch)
    assert not check_identity(ctx, "eq4_decomposition", 8).passed and kinds == []
    _assert_product_route_reports(ctx, ["eq4_decomposition"])


@pytest.mark.parametrize("kind, row", [("A", ("suslov_B", 1, 3, 0)), ("A", ("suslov_B", 0, 2, 0)),
                                       ("A", ("suslov_B", 3, 2, 0)), ("Mtilde", ("suslov_E", 0, -2, 0)),
                                       ("Mtilde", ("suslov_E", 2, 2, 0)), ("Mtilde", ("suslov_E", 1, 2, 0))])
def test_a_changed_row_of_an_eta_basis_reports_as_the_product_route(kind, row, monkeypatch, cleared):
    monkeypatch.setitem(qpolys.BASES, kind, row)
    ctx = QContext(Fraction(3, 5))
    name = "eq4_decomposition" if kind == "A" else "euler_decomposition"
    kinds = _spy_products(monkeypatch)
    assert not check_identity(ctx, name, 8).passed and kinds  # G is even, so the stored product is read
    _assert_product_route_reports(ctx, [name])


@pytest.mark.parametrize("kind, factor", [("suslov_E", 3), ("new_beta", 2)])
def test_a_changed_multiplier_coefficient_reports_as_the_product_route(kind, factor, monkeypatch, cleared):
    # coefficient 2 of N: G_sE stays even and is read through the stored product; G_beta enters B with no eta factor
    parts = qpolys._family_parts

    def changed(s, k, order):
        num, den = parts(s, k, order)
        return (Series(num.coeffs[:2] + (factor * num[2],) + num.coeffs[3:]) if k == kind else num), den

    monkeypatch.setattr(qpolys, "_family_parts", changed)
    ctx = QContext(Fraction(3, 5))
    name = "euler_decomposition" if kind == "suslov_E" else "eq4_decomposition"
    assert not check_identity(ctx, name, 8).passed
    _assert_product_route_reports(ctx, [name])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.one_of(st.fractions(max_denominator=60), st.integers(-4, 4))),
                max_size=4),
       st.sampled_from([0, 1]), st.sampled_from([None, 1, -1]))
@example([], 0, None)
@example([], 1, None)
@example([(0, Fraction(1, 3)), (0, Fraction(-2, 7))], 0, None)
@example([(-1, Fraction(1, 2)), (3, Fraction(1, 2))], 1, None)
@example([(2, Fraction(1, 6)), (-1, Fraction(1, 3))], 0, None)
def test_the_integer_entry_test_agrees_with_fraction_sums(pairs, target, balance):
    # balance appends the term (c, v) that brings the sum to the target, so that equality is drawn often
    if balance:
        pairs = pairs + [(balance, (target - sum((c * v for c, v in pairs), Fraction(0))) * balance)]
    assert qpolys._dot_is(pairs, target) == (sum((c * v for c, v in pairs), Fraction(0)) == target)
