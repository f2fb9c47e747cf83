import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (aw_boundary_data_iterated, aw_boundary_data_translated, entire_fn_poly, exact_grid_residual,
                     expansion_reconstruction_families, expansion_reconstruction_rho, psi_rho_values, q_factorial,
                     q_pochhammer, trig_rho_stream_closed)
from qlidstone import cli, lidstone, qpolys
from qlidstone.qcore import IntegrityError, LimitError, QContext, psi_weights, safe_float
from qlidstone.qspecial import refine_zero_exact
from qlidstone.lidstone import (
    DEFAULT_GRID,
    EntireFn,
    aw_boundary_data,
    bernoulli_expansion,
    counterexample_report,
    euler_expansion,
    residual_on_grid,
    trig_rho_stream,
)
from qlidstone.symlaurent import SymPoly, change_basis, eval_at, special_poly


# -- streams and the growth statistic ----------------------------------------


def test_polynomial_streams_have_tau_zero(ctx_half):
    ctx = ctx_half
    f = EntireFn.from_poly(ctx, special_poly(ctx, "rho", 3))
    assert f.stream == (0, 0, 0, 1)
    assert bernoulli_expansion(ctx, f, 2).tau_estimate == 0.0
    f2 = EntireFn.from_poly(ctx, special_poly(ctx, "monomial", 2))
    assert f2.stream == (0, 0, Fraction(1, 4))


def test_tau_of_cosine_truncation(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 40)
    assert abs(bernoulli_expansion(ctx_half, f, 1).tau_estimate - 0.3) < 0.03


# -- trig streams carry their quotients ------------------------------------------

TRIG_S = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(20, 21))
TRIG_W = (Fraction(3, 10), Fraction(-2, 5), Fraction(0), refine_zero_exact(QContext(Fraction(20, 21)), "Sq_eta", 120))


@pytest.mark.parametrize("s", TRIG_S)
@pytest.mark.parametrize("kind", ["S", "C", "E_even"])
def test_trig_streams_equal_their_closed_forms_and_carry_their_quotients(s, kind):
    ctx = QContext(s)
    for w in TRIG_W:
        for n_terms in (0, 1, 2, 17, 40):
            f = trig_rho_stream(ctx, kind, w, n_terms)
            assert f.stream == trig_rho_stream_closed(ctx, kind, w, n_terms), (w, n_terms)
            assert list(f.quotients(ctx)) == lidstone._over_psi(ctx, f.stream), (w, n_terms)


def test_kept_quotients_are_outside_the_fields(ctx_half):
    # equality, hash, repr and the rendered report see the stream only; replace() drops the quotients
    f = trig_rho_stream(ctx_half, "S", Fraction(3, 10), 12)
    g = EntireFn.from_stream(f.stream)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g) and cli._fmt(f) == cli._fmt(g)
    assert list(dataclasses.replace(f).quotients(ctx_half)) == lidstone._over_psi(ctx_half, f.stream)


@pytest.mark.parametrize("kind", ["S", "C", "E_even"])
def test_a_trig_stream_at_another_base_forms_its_quotients(kind):
    # built at s = 1/2, expanded at 3/5: the kept quotients are not those at 3/5, so they are formed
    ctx = QContext(Fraction(3, 5))
    f = trig_rho_stream(QContext(Fraction(1, 2)), kind, Fraction(3, 10), 20)
    g = EntireFn.from_stream(f.stream)
    for engine in (bernoulli_expansion, euler_expansion):
        assert repr(engine(ctx, f, 6)) == repr(engine(ctx, g, 6))
    assert residual_on_grid(ctx, f, SymPoly.zero(), DEFAULT_GRID) == residual_on_grid(ctx, g, SymPoly.zero(),
                                                                                     DEFAULT_GRID)


def test_trig_streams_divide_nothing_by_psi(monkeypatch):
    # every quotient of a trig stream is read off the stream, never formed, and every report equals
    # that of its copy, whose quotients are formed; the zero polynomial's one rho coordinate is 0,
    # which residual_on_grid still divides, so only a nonzero coefficient is refused
    ctx = QContext(Fraction(19, 20))
    streams = [trig_rho_stream(ctx, kind, Fraction(3, 10), 24) for kind in ("S", "C", "E_even")]

    def reports():
        for f in streams:
            yield from (repr(engine(ctx, f, 8)) for engine in (bernoulli_expansion, euler_expansion))
            yield residual_on_grid(ctx, f, SymPoly.zero(), DEFAULT_GRID)
        yield from (repr(counterexample_report(ctx, kind, n_terms=30, K=2)) for kind in ("bernoulli", "euler"))

    want = list(reports())
    assert [repr(bernoulli_expansion(ctx, EntireFn.from_stream(f.stream), 8)) for f in streams] == want[0:9:3]

    def refuse(ctx, coeffs):
        if any(coeffs):
            raise AssertionError("a quotient was formed by division")
        return [Fraction(0)] * len(coeffs)

    monkeypatch.setattr(lidstone, "_over_psi", refuse)
    assert list(reports()) == want


@pytest.mark.parametrize("kind", ["S", "C", "E_even"])
def test_a_negative_term_count_raises(ctx_half, kind):
    # it gave an empty stream, whose expansion reported residual 0.0
    with pytest.raises(ValueError, match="n_terms must be >= 0, got -1"):
        trig_rho_stream(ctx_half, kind, Fraction(3, 10), -1)


# -- boundary data ---------------------------------------------------------------


def test_constant_boundary_data(ctx_half):
    f = EntireFn.from_poly(ctx_half, SymPoly.const(1))
    d0, deta = aw_boundary_data(ctx_half, f, 2, "bernoulli")
    assert d0 == (1, 0, 0) and deta == (1, 0, 0)
    od0, odeta = aw_boundary_data(ctx_half, f, 2, "euler")
    assert od0 == (0, 0, 0) and odeta == (1, 0, 0)


def _phi_even_data(ctx, n, a, K):
    # closed forms for the even-order data of phi_{2n}(.; a) at both nodes
    q, s = ctx.q, ctx.s
    d0, deta = [], []
    for k in range(K + 1):
        if k <= n:
            pref = (2 * a) ** (2 * k) * s ** (4 * k * k - 2 * k) \
                * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k, q)
            v0 = pref * q_pochhammer(-a * a * q ** (2 * k), q * q, 2 * n - 2 * k)
            veta = pref
            b = a * q ** k
            for j in range(2 * n - 2 * k):
                veta *= (1 - b * q ** j * s) * (1 - b * q ** j / s)
        else:
            v0 = veta = Fraction(0)
        d0.append(v0)
        deta.append(veta)
    return tuple(d0), tuple(deta)


def _phi_odd_data_at_zero(ctx, n, a, K):
    q, s = ctx.q, ctx.s
    out = []
    for k in range(K + 1):
        if k <= n - 1:
            pref = -(2 * a) ** (2 * k + 1) * s ** (4 * k * k + 2 * k) \
                * q_factorial(2 * n, q) / q_factorial(2 * n - 2 * k - 1, q)
            out.append(pref * q_pochhammer(-a * a * q ** (2 * k + 1), q * q, 2 * n - 2 * k - 1))
        else:
            out.append(Fraction(0))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1, 3)])
def test_phi_boundary_data_closed_forms(ctx, n, a):
    f = EntireFn.from_poly(ctx, special_poly(ctx, "phi", 2 * n, a))
    d0, deta = aw_boundary_data(ctx, f, n, "bernoulli")
    c0, ceta = _phi_even_data(ctx, n, a, n)
    assert d0 == c0
    assert deta == ceta
    od0, odeta = aw_boundary_data(ctx, f, n, "euler")
    assert od0 == _phi_odd_data_at_zero(ctx, n, a, n)
    assert odeta == ceta


def test_even_function_has_zero_odd_data(ctx_half):
    f = trig_rho_stream(ctx_half, "E_even", Fraction(1, 4), 12)
    od0, _ = aw_boundary_data(ctx_half, f, 3, "euler")
    assert all(v == 0 for v in od0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(17, 29)]),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=50), min_size=1, max_size=12),
       st.integers(0, 7), st.sampled_from(["bernoulli", "euler"]))
def test_boundary_data_match_iterated_oracle(s, stream, K, scheme):
    ctx = QContext(s)
    got = aw_boundary_data(ctx, EntireFn.from_stream(stream), K, scheme)
    assert got == aw_boundary_data_iterated(ctx, stream, K, scheme)
    assert all(isinstance(v, Fraction) for v in got[0] + got[1])  # rendered as "num/den", also past the stream


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5)]),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=50), min_size=24, max_size=32),
       st.integers(0, 3), st.sampled_from(["bernoulli", "euler"]))
def test_boundary_data_of_long_streams_match_iterated_oracle(s, stream, K, scheme):
    # E_q^eta f at order 2k reads every f_n with n >= 2k, so a translate of a
    # stream cut after the orders used would differ only here
    ctx = QContext(s)
    assert aw_boundary_data(ctx, EntireFn.from_stream(stream), K, scheme) == \
        aw_boundary_data_iterated(ctx, stream, K, scheme)


BOUNDARY_S = [Fraction(1, 17), Fraction(3, 5), Fraction(24, 25)]


@pytest.mark.parametrize("s", BOUNDARY_S)
@pytest.mark.parametrize("scheme", ["bernoulli", "euler"])
def test_boundary_data_match_the_translate_route(s, scheme):
    # every K = 0..14 against streams of length 0..40, shorter than 2K + 2 included; the
    # data at K are the first K + 1 of those at K = 14.  The quotients f_j / psi_j are
    # small rationals, as those of the basic sine and cosine are.
    ctx = QContext(s)
    stream = [Fraction((-1) ** j * (2 * j + 1), 3 * j + 7) * psi for j, psi in enumerate(psi_weights(ctx, 40))]
    for n in (0, 1, 2, 3, 4, 7, 10, 15, 16, 17, 22, 28, 29, 30, 31, 39, 40):
        want0, want_eta = aw_boundary_data_translated(ctx, stream[:n], 14, scheme)
        f = EntireFn.from_stream(stream[:n])
        for K in range(15):
            assert aw_boundary_data(ctx, f, K, scheme) == (want0[:K + 1], want_eta[:K + 1]), (n, K)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(BOUNDARY_S),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=50), max_size=40),
       st.integers(0, 14), st.sampled_from(["bernoulli", "euler"]))
def test_boundary_data_match_both_old_routes(s, stream, K, scheme):
    ctx = QContext(s)
    got = aw_boundary_data(ctx, EntireFn.from_stream(stream), K, scheme)
    assert got == aw_boundary_data_translated(ctx, stream, K, scheme)
    assert got == aw_boundary_data_iterated(ctx, stream, K, scheme)


def test_a_stream_keeps_the_quotients_it_forms(ctx_half, monkeypatch):
    # the first expansion at s forms the quotients once; a second at the same s, of either scheme, reads them
    f = EntireFn.from_stream(trig_rho_stream(ctx_half, "C", Fraction(1, 3), 14).stream)
    calls = []
    over_psi = lidstone._over_psi
    monkeypatch.setattr(lidstone, "_over_psi", lambda ctx, coeffs: calls.append(ctx.s) or over_psi(ctx, coeffs))
    first = bernoulli_expansion(ctx_half, f, 6)
    assert calls == [ctx_half.s]
    assert repr(bernoulli_expansion(ctx_half, f, 6)) == repr(first)
    euler_expansion(ctx_half, f, 6)
    assert calls == [ctx_half.s]
    assert f.quotients(QContext(Fraction(3, 5))) == f.quotients(QContext(Fraction(3, 5)))  # formed at 3/5
    assert calls == [ctx_half.s, Fraction(3, 5)]


# -- expansions -------------------------------------------------------------------


def test_bernoulli_exact_on_rho2(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "rho", 2))
    rep = bernoulli_expansion(ctx_half, f, 1)
    assert rep.exact
    assert rep.residual == 0
    assert rep.reconstruction == special_poly(ctx_half, "rho", 2)


def test_bernoulli_exact_on_phi4(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "phi", 4, Fraction(1, 2)))
    rep = bernoulli_expansion(ctx_half, f, 2)
    assert rep.residual == 0


def test_euler_exact_on_constant(ctx_half):
    f = EntireFn.from_poly(ctx_half, SymPoly.const(1))
    rep = euler_expansion(ctx_half, f, 0)
    assert rep.residual == 0
    assert rep.reconstruction == SymPoly.const(1)


def test_euler_exact_on_phi2(ctx_half):
    f = EntireFn.from_poly(ctx_half, special_poly(ctx_half, "phi", 2, Fraction(1, 2)))
    rep = euler_expansion(ctx_half, f, 1)
    assert rep.residual == 0


@pytest.mark.parametrize("family,param", [("rho", None), ("monomial", None), ("phi", Fraction(1, 2))])
def test_polynomial_exactness_small(ctx, family, param):
    for n in range(5):
        p = special_poly(ctx, family, n, param)
        f = EntireFn.from_poly(ctx, p)
        K = (n + 1) // 2
        assert bernoulli_expansion(ctx, f, K).residual == 0
        assert euler_expansion(ctx, f, K).residual == 0


def test_value_at_zero_consistency(ctx_half):
    # the beta-side terms are not individually zero at x=0 but combine to f(0)
    ctx = ctx_half
    p = special_poly(ctx, "phi", 4, Fraction(1, 3))
    rep = bernoulli_expansion(ctx, EntireFn.from_poly(ctx, p), 2)
    assert eval_at(ctx, rep.reconstruction, "zero") == eval_at(ctx, p, "zero")


def test_higher_K_keeps_exactness(ctx_half):
    ctx = ctx_half
    p = special_poly(ctx, "monomial", 3)
    rep = bernoulli_expansion(ctx, EntireFn.from_poly(ctx, p), 5)
    assert rep.residual == 0


def test_undershooting_K_leaves_residual(ctx_half):
    # every undershot truncation misses the top boundary datum; the
    # residual only vanishes once K covers ceil(deg/2)
    ctx = ctx_half
    f = EntireFn.from_poly(ctx, special_poly(ctx, "monomial", 6))
    for K in range(3):
        assert bernoulli_expansion(ctx, f, K).residual != 0
    assert bernoulli_expansion(ctx, f, 3).residual == 0


@pytest.mark.parametrize("engine", [bernoulli_expansion, euler_expansion])
def test_a_polynomial_is_reproduced_exactly_when_its_degree_is_at_most_2k_plus_1(ctx, engine):
    for K in range(4):
        for d in range(2 * K + 4):
            f = EntireFn.from_poly(ctx, special_poly(ctx, "phi", d, Fraction(1, 3)))
            assert (engine(ctx, f, K).residual == 0) == (d <= 2 * K + 1), (K, d)


@pytest.mark.parametrize("table, key, row", [
    (lidstone.SCHEMES, "bernoulli", lidstone.SCHEMES["bernoulli"]._replace(at_zero=("B", 1))),  # a flipped sign
    (qpolys.BASES, "M", ("new_E", 1, 2, 1)),  # weight 2 for 1
])
def test_a_wrong_expansion_of_a_polynomial_raises(ctx_threefifths, monkeypatch, table, key, row):
    # each scheme reproduces every polynomial of degree <= 2K+1, so a residual there is a bug
    ctx = ctx_threefifths
    f = EntireFn.from_poly(ctx, special_poly(ctx, "phi", 5, Fraction(1, 3)))
    assert bernoulli_expansion(ctx, f, 2).residual == euler_expansion(ctx, f, 2).residual == 0
    monkeypatch.setitem(table, key, row)
    with pytest.raises(IntegrityError):
        (bernoulli_expansion if key == "bernoulli" else euler_expansion)(ctx, f, 2)


def test_stream_convergence_fast(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 24)
    rep = bernoulli_expansion(ctx_half, f, 12)
    assert not rep.exact
    assert rep.residual < 1e-10
    assert rep.status == "ok"
    assert rep.cap == 1.0  # the sine-node zero exceeds one for this base


def test_residual_empty_grid_is_zero(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 12)
    rep = bernoulli_expansion(ctx_half, f, 6)
    assert residual_on_grid(ctx_half, rep.fn, rep.reconstruction, []) == 0.0


def test_residual_recompute_matches_report(ctx_half):
    f = trig_rho_stream(ctx_half, "C", Fraction(3, 10), 16)
    rep = bernoulli_expansion(ctx_half, f, 8)
    assert residual_on_grid(ctx_half, rep.fn, rep.reconstruction, DEFAULT_GRID) == rep.residual


def test_reproduced_stream_reports_zero_residual(ctx_half):
    # the README example: K = 10 reproduces the 11-term stream exactly, so f - recon is 0 on the rho basis
    coeffs = ["1", "0", "-1/2", "0", "1/24", "0", "-1/720", "0", "1/40320", "0", "-1/3628800"]
    rep = euler_expansion(ctx_half, EntireFn.from_stream([Fraction(c) for c in coeffs]), 10)
    assert not rep.exact
    assert isinstance(rep.residual, float) and rep.residual.hex() == (0.0).hex()


@pytest.mark.parametrize("engine", [bernoulli_expansion, euler_expansion])
def test_quotient_past_the_float_range_keeps_tau_and_residual_finite(engine):
    # at s = 1/17, f_16 / psi_16 = 1 / psi_16 exceeds the float range while psi_16 rho_16(x) is tiny;
    # tau and the residual were Infinity, and are now formed from the quotient as m 2**e
    ctx = QContext(Fraction(1, 17))
    f = EntireFn.from_stream([0] * 16 + [1])
    rep = engine(ctx, f, 0)
    u = f.stream[16] / psi_weights(ctx, 17)[16]
    tau = math.exp((math.log(u.numerator) - math.log(u.denominator)) / 16)
    assert rep.tau_estimate == pytest.approx(tau, rel=1e-12)
    exact = exact_grid_residual(ctx, f.stream, rep.reconstruction, DEFAULT_GRID)
    assert rep.residual == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("stream, message", [
    ([0] * 17 + [1], "the grid residual leaves the float range"),  # |f(1)| is about 2e315
    ([0, 10 ** 400], "the growth statistic tau leaves the float range"),
])
def test_values_past_the_float_range_raise(stream, message):
    # s = 1/17, f_17 = 1, K = 0 is the case a random stream drew, then an fsum error on -inf + inf
    for engine in (bernoulli_expansion, euler_expansion):
        with pytest.raises(LimitError, match=message):
            engine(QContext(Fraction(1, 17)), EntireFn.from_stream(stream), 0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(19, 20)]),
       st.sampled_from(["C", "S", "E_even"]),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3, 2), max_denominator=20),
       st.integers(0, 8), st.integers(1, 30), st.sampled_from([bernoulli_expansion, euler_expansion]))
def test_stream_residual_matches_exact_rho_difference(s, kind, w, K, n_terms, engine):
    # per grid point |f - recon| = |sum_j v_j u_j(x)|, v_j = float(d_j / psi_j), u_j = psi_j rho_j(x):
    # within 4 n ulps of sum_j |v_j u_j| of the exact rational sum_j d_j rho_j(x)
    ctx = QContext(s)
    f = trig_rho_stream(ctx, kind, w, n_terms)
    rep = engine(ctx, f, K)
    c = change_basis(ctx, rep.reconstruction)
    n = max(len(f.stream), len(c))
    pad = lambda xs: list(xs) + [0] * (n - len(xs))
    v = [safe_float((fj - cj) / psi) for fj, cj, psi in zip(pad(f.stream), pad(c), psi_weights(ctx, n))]
    values = []
    for x in DEFAULT_GRID:
        new = residual_on_grid(ctx, f, rep.reconstruction, [x])
        exact = exact_grid_residual(ctx, f.stream, rep.reconstruction, [x])
        scale = sum(abs(vj * uj) for vj, uj in zip(v, psi_rho_values(ctx, float(x), n)))
        assert abs(Fraction(new) - exact) <= 4 * n * 2 ** -53 * scale, x
        values.append(new)
    assert rep.residual == max(values)


def test_growth_metadata_note(ctx_half):
    import math

    from qlidstone.lidstone import growth_condition_note

    lnq_inv = -math.log(float(ctx_half.q))
    f = EntireFn.from_stream([1, 1], growth_order=lnq_inv)
    assert "admissible" in growth_condition_note(ctx_half, f)
    f_hot = EntireFn.from_stream([1, 1], growth_order=3 * lnq_inv)
    assert "exceeds" in growth_condition_note(ctx_half, f_hot)
    f_edge = EntireFn.from_stream([1, 1], growth_order=2 * lnq_inv, growth_type=0.1)
    assert "admissible" in growth_condition_note(ctx_half, f_edge)
    assert "no declared" in growth_condition_note(ctx_half, EntireFn.from_stream([1]))


def test_counterexample_small():
    # tiny version of the inexpandability reproduction (fast base)
    ctx = QContext(Fraction(19, 20))
    rep = counterexample_report(ctx, "euler", n_terms=30, K=2)
    assert rep.max_data < 1e-10
    assert rep.function_norm > 1e-2
    assert "warning" in rep.expansion.status


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29)]),
       st.sampled_from(["bernoulli", "euler"]),
       st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20),
                min_size=1, max_size=16),
       st.booleans(),
       st.integers(0, 8))
def test_reconstruction_matches_family_table_oracle(s, kind, coeffs, as_poly, K):
    ctx = QContext(s)
    if as_poly:  # a random polynomial, entered through its rho coefficients
        f = EntireFn.from_poly(ctx, SymPoly(coeffs))
    else:
        f = EntireFn.from_stream(coeffs)
    engine = bernoulli_expansion if kind == "bernoulli" else euler_expansion
    report = engine(ctx, f, K, grid=())
    want = expansion_reconstruction_families(ctx, kind, K, report.data_at_zero, report.data_at_eta)
    assert report.reconstruction == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([Fraction(1, 17), Fraction(13, 27), Fraction(24, 25)]),
       st.sampled_from(["bernoulli", "euler"]),
       st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20), max_size=30),
       st.booleans(),
       st.integers(0, 12))
@example(Fraction(1, 17), "bernoulli", [Fraction(0)] * 17 + [Fraction(1)], False, 0)  # residual about 2**1039
def test_reconstruction_matches_the_rho_basis_assembly(s, kind, coeffs, polynomial, K):
    # sum_j r_j psi_j rho_j over the psi_j rho_j table equals the r_j psi_j assembled on the rho basis;
    # a terminating stream's exact residual equals max |f - recon| from the assembled f, and a
    # stream's grid residual is finite exactly when its exact value is inside the float range
    ctx = QContext(s)
    f = EntireFn.from_stream(coeffs, polynomial=polynomial)
    engine = bernoulli_expansion if kind == "bernoulli" else euler_expansion
    report = engine(ctx, f, K, grid=())
    assert report.reconstruction == expansion_reconstruction_rho(ctx, kind, K, report.data_at_zero,
                                                                 report.data_at_eta)
    grid = DEFAULT_GRID[::5]
    if polynomial:
        diff = report.reconstruction - entire_fn_poly(ctx, f)
        assert report.residual == Fraction(max(abs(n) for n in diff.nums), diff.den)
    elif exact_grid_residual(ctx, f.stream, report.reconstruction, grid) >= 2 ** 1024:
        with pytest.raises(LimitError, match="the grid residual leaves the float range"):
            engine(ctx, f, K, grid=grid)
    else:
        assert math.isfinite(engine(ctx, f, K, grid=grid).residual)
