import ast
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (basic_trig, basic_trig_eta_closed, eq_eval, eq_exponential_series, eta_series_sign_exact,
                     eta_series_sign_termwise, eta_series_value_closed, jackson_bessel_j2, psi_weight,
                     psi_rho_values, rho_laurent_product, smallest_positive_zero_full_scan)
from qlidstone import qspecial
from qlidstone.qcore import LimitError, QContext, q_pochhammer_inf
from qlidstone.symlaurent import eval_at
from qlidstone.qspecial import (
    ZeroSearchError,
    _bisect,
    _scan_and_bisect,
    _eta_series_sign,
    _eta_series_sign_ball,
    _eta_series_value,
    hayman_zero_estimate,
    jackson_bessel_zeros,
    positive_zeros,
    refine_zero_exact,
    smallest_positive_zero,
    sq_lower_bound,
)


@pytest.fixture(scope="module")
def ctx():
    return QContext(Fraction(1, 2))


def test_eq_eval_trivials(ctx):
    assert eq_eval(ctx, 0.37, 0.0) == 1.0
    assert eq_eval(ctx, 0.0, 0.3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        eq_eval(ctx, 0.2, 1.0)


def test_eq_eval_eta_product_form(ctx):
    # s = 19/20, w = 0.9 needs about 130 terms
    for ctx, w in [(ctx, 0.3), (QContext(Fraction(19, 20)), 0.9)]:
        q = float(ctx.q)
        lhs = eq_eval(ctx, float(ctx.eta), w)
        num, _ = q_pochhammer_inf(-w, math.sqrt(q))
        den, _ = q_pochhammer_inf(q * w * w, q * q)
        assert lhs == pytest.approx(num / den, rel=1e-10)
        num2, _ = q_pochhammer_inf(-w, q)
        den2, _ = q_pochhammer_inf(math.sqrt(q) * w, q)
        assert lhs == pytest.approx(num2 / den2, rel=1e-10)


def test_eq_eval_matches_exact_partial_sum(ctx):
    # float series vs the rational series evaluated exactly and rounded
    w = Fraction(1, 5)
    x = Fraction(2, 5)
    e = eq_exponential_series(ctx, 21)
    exact = sum((eval_at(ctx, e[n], x) * w ** n for n in range(21)), Fraction(0))
    assert eq_eval(ctx, 0.4, 0.2) == pytest.approx(float(exact), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(17, 29), Fraction(19, 20)]),
       st.fractions(min_value=-1, max_value=1, max_denominator=100), st.integers(0, 60))
@example(Fraction(19, 20), Fraction(1, 1000), 8)  # q**0 + q**0 + 4x**2 - 2 would cancel here
def test_psi_rho_values_match_exact(s, x, n):
    # every factor of the recurrence is nonnegative: a few ulps per step, relative to u_j itself
    ctx = QContext(s)
    got = psi_rho_values(ctx, float(x), n)
    assert len(got) == n
    # the exact side is the closed-form psi_j times the product-form rho_j, which share no step with u_j
    for j, u in enumerate(got):
        want = psi_weight(ctx, j) * eval_at(ctx, rho_laurent_product(s, j), x)
        if abs(want) > 2 ** -1000:  # below that, u_j leaves the normal float range
            assert abs(Fraction(u) - want) <= 4 * (j + 1) * 2 ** -53 * abs(want), j
        else:
            assert abs(u) < 2 ** -999, j


def test_qspecial_imports_nothing_from_symlaurent():
    # the float evaluators stay off the exact polynomials
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "qlidstone" / "qspecial.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert imported and not [name for name in imported if "symlaurent" in name]


def test_basic_trig_at_zero_argument(ctx):
    assert basic_trig(ctx, 0.7, 0.0, "S") == 0.0
    assert basic_trig(ctx, 0.7, 0.0, "C") == 1.0


def test_trig_splits_complex_exponential(ctx):
    for x in (-0.9, 0.1, 0.8):
        w = 0.4
        z = eq_eval(ctx, x, complex(0, w))
        assert z.real == pytest.approx(basic_trig(ctx, x, w, "C"), abs=1e-12)
        assert z.imag == pytest.approx(basic_trig(ctx, x, w, "S"), abs=1e-12)


def test_eta_series_positive_below_bound():
    q = 0.25
    bound = math.sqrt(sq_lower_bound(q))
    for frac in (0.3, 0.7, 0.99):
        assert _eta_series_value("Sq_eta", q, frac * bound) > 0


def test_jackson_bessel_trivial():
    assert jackson_bessel_j2(0.5, 0.0, 0.25) == 0.0


def test_jackson_bessel_vs_eta_sine():
    # the sine at the eta node is a q-Bessel function in disguise:
    # S(eta; w) (-qw^2; q^2)_inf (q^(1/2); q)_inf / (q; q)_inf = w^(1/2) J_{1/2}(2w; q)
    q, w = 0.25, 0.2
    pref, _ = q_pochhammer_inf(-q * w * w, q * q)
    sine = _eta_series_value("Sq_eta", q, w) / pref  # S at the eta node
    poch_half, _ = q_pochhammer_inf(math.sqrt(q), q)
    poch_q, _ = q_pochhammer_inf(q, q)
    lhs = sine * pref * poch_half / poch_q
    rhs = math.sqrt(w) * jackson_bessel_j2(0.5, 2 * w, q)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_hayman_estimate():
    q = 0.25
    assert hayman_zero_estimate(1, 0.5, q) == pytest.approx(2 * 4 * q ** 0.25)
    assert hayman_zero_estimate(4, 0.5, q) / hayman_zero_estimate(3, 0.5, q) == pytest.approx(1 / q)
    with pytest.raises(ValueError):
        hayman_zero_estimate(0, 0.5, q)


def test_hayman_estimate_brackets_true_zero():
    q = 0.25
    zeros = jackson_bessel_zeros(0.5, q, 4)
    for m in (3, 4):
        est = hayman_zero_estimate(m, 0.5, q)
        assert 0.5 * est < zeros[m - 1] < 1.5 * est


def test_smallest_zero_sq(ctx):
    q = 0.25
    rep = smallest_positive_zero("Sq_eta", q)
    assert rep.value ** 2 >= sq_lower_bound(q) * (1 - 1e-12)
    assert rep.value >= 2.291
    assert rep.bound_check
    assert rep.residual < 1e-12
    assert rep.bracket[0] < rep.value < rep.bracket[1]
    assert rep.bracket[1] - rep.bracket[0] < 1e-12 * rep.value


def test_smallest_zero_cq_below_sq():
    q = 0.25
    ws = smallest_positive_zero("Sq_eta", q).value
    wc = smallest_positive_zero("Cq_eta", q).value
    assert 0 < wc < ws


def test_bessel_zero_interlacing():
    q = 0.25
    zs = jackson_bessel_zeros(0.5, q, 3)
    zc = jackson_bessel_zeros(-0.5, q, 3)
    assert zc[0] < zs[0] < zc[1] < zs[1] < zc[2] < zs[2]


def test_eta_zeros_match_bessel_zeros():
    # w-zeros of the eta-node sine are half the J_{1/2} z-zeros
    q = 0.25
    ws = positive_zeros("Sq_eta", q, 2)
    zs = jackson_bessel_zeros(0.5, q, 2)
    for w, z in zip(ws, zs):
        assert w == pytest.approx(z / 2, rel=1e-10)


def test_consecutive_zero_ratio_approaches_inverse_q():
    q = 0.25
    zs = jackson_bessel_zeros(0.5, q, 3)
    assert abs(zs[2] / zs[1] - 1 / q) <= 0.05 / q


def test_sinq_zero():
    rep = smallest_positive_zero("Sinq", 0.25)
    assert rep.value > 0
    assert rep.residual < 1e-12 * max(1.0, rep.value)


@pytest.mark.parametrize("q", [1e-60, 1e-100])
def test_sinq_zero_at_a_tiny_base(q):
    # the m = 3 estimate of the cap (about 10 q**-5.5) and ((1-q) w)**5 leave the float range here, but the zero,
    # about q**-1.5, and the terms that find it do not
    rep = smallest_positive_zero("Sinq", q)
    a, b = rep.bracket
    assert a <= rep.value <= b <= a * (1 + 1e-12)
    assert _eta_series_value("Sinq", q, a) > 0 > _eta_series_value("Sinq", q, b)
    assert rep.value == pytest.approx(q ** -1.5, rel=1e-12)


@pytest.mark.parametrize("q", [1e-85, 1e-100])
def test_sq_eta_zero_at_a_tiny_base(q):
    # w**(2k+1) alone leaves the float range from k = 2 or 3 here, though the term, q**(k**2+k/2) w**(2k+1), does not
    rep = smallest_positive_zero("Sq_eta", q)
    a, b = rep.bracket
    assert a <= rep.value <= b <= a * (1 + 1e-12)
    assert _eta_series_value("Sq_eta", q, a) > 0 > _eta_series_value("Sq_eta", q, b)
    assert rep.value == pytest.approx(q ** -0.75, rel=1e-12)
    assert _eta_series_value("Sq_eta", q, a) == eta_series_value_closed("Sq_eta", q, a)


def test_refine_zero_exact_agrees_with_float(ctx):
    w = refine_zero_exact(ctx, "Sq_eta", steps=40)
    rep = smallest_positive_zero("Sq_eta", float(ctx.q))
    assert abs(float(w) - rep.value) < 1e-11 * rep.value
    # the exact sign flips across the refined value
    eps = Fraction(1, 10 ** 15)
    assert eta_series_sign_exact(ctx, "Sq_eta", w - eps) > 0
    assert eta_series_sign_exact(ctx, "Sq_eta", w + eps) < 0


# -- failing loudly ------------------------------------------------------------


def test_scan_rejects_a_zero_below_its_start():
    # at q = 0.999 the first cosine zero (~7.9e-4) lies below 1e-3 q, where
    # the series is already negative; a scan from there would find the second zero
    with pytest.raises(ZeroSearchError, match="below"):
        _scan_and_bisect(lambda w: _eta_series_value("Cq_eta", 0.999, w), 1e-3 * 0.999, 1.0, 1.05)
    assert smallest_positive_zero("Cq_eta", 0.998).value > 0
    # the scan start derived from q sits below that zero
    assert smallest_positive_zero("Cq_eta", 0.999).value == pytest.approx(7.8559e-4, rel=1e-4)
    assert smallest_positive_zero("Cq_eta", 0.9995).value == pytest.approx(3.9275e-4, rel=1e-4)


def _zero_outcome(search, kind, q):
    try:
        return repr(search(kind, q))
    except ZeroSearchError as exc:  # a search that raises is compared by its text
        return f"ZeroSearchError: {exc}"


@pytest.mark.parametrize("kind", ["Sq_eta", "Cq_eta", "Sinq"])
def test_zero_scan_steps_over_the_positive_range_to_the_full_scans_report(kind):
    grid = [k / 37 for k in range(1, 37)] + [1e-100, 1e-60, 1e-6, 1e-3, 0.05, 0.97, 0.998, 0.999, 0.9995]
    for q in grid:
        want = _zero_outcome(smallest_positive_zero_full_scan, kind, q)
        assert _zero_outcome(smallest_positive_zero, kind, q) == want, q


@pytest.mark.parametrize("kind", ["Cq_eta", "Sinq"])
def test_zero_scan_evaluates_nothing_where_the_series_is_proved_positive(kind, monkeypatch):
    # the full scans take 628-3427 evaluations at these q, most of them below the point where the first term ratio is 1
    real, calls = qspecial._eta_series_value, []
    monkeypatch.setattr(qspecial, "_eta_series_value", lambda *args: calls.append(args) or real(*args))
    for q in (1e-6, 0.05, 0.3, 0.9):
        calls.clear()
        smallest_positive_zero(kind, q)
        assert len(calls) < 150, (q, len(calls))


@pytest.mark.parametrize("kind,q,w", [("Cq_eta", 0.999, 0.5), ("Sq_eta", 0.99, 10.0), ("Sinq", 0.98, 10000.0)])
def test_eta_series_outside_the_float_range_is_a_search_error(kind, q, w):
    with pytest.raises(ZeroSearchError, match=f"{kind} series at q = {q:.6g}, w = {w:.6g}"):
        _eta_series_value(kind, q, w)


def test_bisect_raises_when_steps_run_out():
    with pytest.raises(ZeroSearchError, match="200 steps"):
        _bisect(lambda x: x - 1e-300, 0.0, 1.0)


def test_eta_series_raises_when_terms_run_out():
    with pytest.raises(LimitError, match="did not converge"):
        _eta_series_value("Sinq", 0.998, 1000.0)


def test_bessel_series_raises_when_terms_run_out():
    # near q = 1 the terms only shrink once q**(2k) u < 1, some 3.5e5 terms out at u = 1e30
    with pytest.raises(LimitError, match="Bessel series did not converge"):
        qspecial._bessel_body(0.5, 1e30, 0.9999)


def test_zero_counts_are_checked(monkeypatch):
    monkeypatch.setattr(qspecial, "smallest_positive_zero", None)  # a count of 0 searches nothing
    assert positive_zeros("Sq_eta", 0.25, 0) == []
    assert jackson_bessel_zeros(0.5, 0.25, 0) == []
    with pytest.raises(ValueError, match="count >= 0, got 'Cq_eta', -1"):
        positive_zeros("Cq_eta", 0.25, -1)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        jackson_bessel_zeros(0.5, 0.25, -1)
    # the scan caps are the eta-node asymptotics, which do not fit the q-sine
    with pytest.raises(ValueError, match="kind Sq_eta or Cq_eta"):
        positive_zeros("Sinq", 0.25, 3)


@pytest.mark.parametrize("kind", ["Sq_eta", "Cq_eta"])
def test_refinement_from_a_wrong_bracket_raises(monkeypatch, kind):
    # a float bracket far past the zero cannot be widened onto it in 64 of its widths
    ctx = QContext(Fraction(1, 2))
    zero = smallest_positive_zero(kind, float(ctx.q))
    a, b = 2 * zero.bracket[0], 2 * zero.bracket[1]
    far = qspecial.ZeroReport(kind, 2 * zero.value, (a, b), 0.0, True)
    monkeypatch.setattr(qspecial, "first_zero", lambda *args: far)
    with pytest.raises(ZeroSearchError, match=rf"{kind} series does not change sign across the float bracket "
                                              rf"\({a!r}, {b!r}\) widened 64 times by its width"):
        refine_zero_exact(ctx, kind)


# -- the exact sign certificate -------------------------------------------------

positive_w = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(4), max_denominator=10 ** 6)
sign_ctx = st.sampled_from([QContext(Fraction(1, 2)), QContext(Fraction(3, 5))])


@settings(max_examples=40, deadline=None)
@given(sign_ctx, st.sampled_from(["Sq_eta", "Cq_eta"]), positive_w)
def test_exact_sign_matches_termwise_oracle(ctx, kind, w):
    assert eta_series_sign_exact(ctx, kind, w) == eta_series_sign_termwise(ctx, kind, w)


@settings(max_examples=40, deadline=None)
@given(sign_ctx, st.sampled_from(["Sq_eta", "Cq_eta"]), positive_w)
def test_exact_sign_matches_float_series(ctx, kind, w):
    value = _eta_series_value(kind, float(ctx.q), float(w))
    assume(abs(value) > 1e-6)
    assert eta_series_sign_exact(ctx, kind, w) == (1 if value > 0 else -1)


# -- the ball sign certificate --------------------------------------------------

ball_s = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(9, 10), max_denominator=30)
kinds = st.sampled_from(["Sq_eta", "Cq_eta"])


@lru_cache(maxsize=None)
def _refined_zero(s, kind):
    return refine_zero_exact(QContext(s), kind, steps=100)


@settings(max_examples=60, deadline=None)
@given(ball_s, kinds, positive_w)
def test_ball_sign_matches_exact_sign(s, kind, w):
    ctx = QContext(s)
    ball = _eta_series_sign_ball(ctx, kind, w, qspecial.BALL_BITS)
    assert ball is None or ball == eta_series_sign_exact(ctx, kind, w)


@settings(max_examples=30, deadline=None)
@given(ball_s, kinds, st.integers(-2 ** 100, 2 ** 100))
def test_ball_sign_matches_exact_sign_next_to_a_zero(s, kind, offset):
    ctx = QContext(s)
    w = _refined_zero(s, kind) + Fraction(offset, 2 ** 200)  # within 2**-100 of the zero
    ball = _eta_series_sign_ball(ctx, kind, w, qspecial.BALL_BITS)
    assert ball is None or ball == eta_series_sign_exact(ctx, kind, w)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Fraction(3, 5), Fraction(19, 20)]), kinds, st.sampled_from([8, 12, 16, 24]),
       st.integers(-2 ** 16, 2 ** 16), st.integers(4, 36))
def test_low_precision_ball_sign_matches_exact_sign(s, kind, bits, offset, shift):
    # at a few bits the radii decide whether the ball may answer next to a zero
    ctx = QContext(s)
    w = _refined_zero(s, kind) + Fraction(offset, 2 ** (bits + shift))
    ball = _eta_series_sign_ball(ctx, kind, w, bits)
    assert ball is None or ball == eta_series_sign_exact(ctx, kind, w)


@pytest.mark.parametrize("kind", ["Sq_eta", "Cq_eta"])
def test_ball_sign_decides_across_a_refined_zero(kind):
    s = Fraction(19, 20)
    ctx = QContext(s)
    z = _refined_zero(s, kind)
    eps = Fraction(1, 2 ** 100)
    assert _eta_series_sign_ball(ctx, kind, z - eps, qspecial.BALL_BITS) == 1
    assert _eta_series_sign_ball(ctx, kind, z + eps, qspecial.BALL_BITS) == -1


@pytest.mark.parametrize("s", [Fraction(3, 5), Fraction(19, 20)])
@pytest.mark.parametrize("kind", ["Sq_eta", "Cq_eta"])
def test_low_precision_start_doubles_to_the_same_refined_zero(monkeypatch, s, kind):
    # from 4 bits the certifier doubles its precision until the balls decide; every
    # decided sign is the true sign, so the refined zero is the one found at BALL_BITS
    ctx = QContext(s)
    want = refine_zero_exact(ctx, kind, steps=120)
    tried = []
    ball = qspecial._eta_series_sign_ball
    monkeypatch.setattr(qspecial, "_eta_series_sign_ball", lambda *a: tried.append(a[3]) or ball(*a))
    monkeypatch.setattr(qspecial, "BALL_BITS", 4)
    assert refine_zero_exact(ctx, kind, steps=120) == want
    assert set(tried) <= {4 << i for i in range(16)} and 8 in tried


def test_sign_gives_up_past_the_precision_cap(monkeypatch):
    ctx = QContext(Fraction(3, 5))
    tried = []
    ball = qspecial._eta_series_sign_ball
    monkeypatch.setattr(qspecial, "_eta_series_sign_ball", lambda *a: tried.append(a[3]) or ball(*a))
    with pytest.raises(LimitError, match="did not resolve"):  # the sine series vanishes at 0
        _eta_series_sign(ctx, "Sq_eta", Fraction(0))
    assert tried == [qspecial.BALL_BITS << i for i in range(len(tried))]
    assert tried[-1] == qspecial.BALL_BITS_CAP


@pytest.mark.parametrize("w", [Fraction(-1, 3), Fraction(-7, 5), Fraction(-33, 10)])
def test_sign_at_negative_w_is_the_exact_sign(ctx, w):
    assert _eta_series_sign(ctx, "Cq_eta", w) == eta_series_sign_exact(ctx, "Cq_eta", w) \
        == _eta_series_sign(ctx, "Cq_eta", -w)  # an even series
    assert _eta_series_sign(ctx, "Sq_eta", w) == eta_series_sign_exact(ctx, "Sq_eta", w) \
        == -_eta_series_sign(ctx, "Sq_eta", -w)  # an odd one


@settings(max_examples=30, deadline=None)
@given(sign_ctx, kinds, positive_w)
def test_sign_at_negative_w_matches_exact_oracle(ctx, kind, w):
    assert _eta_series_sign(ctx, kind, -w) == eta_series_sign_exact(ctx, kind, -w)


@pytest.mark.parametrize("w", [Fraction(5, 3), Fraction(-5, 3), Fraction(0), 2])
def test_sign_path_does_no_fraction_arithmetic(monkeypatch, ctx, w):
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__neg__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _op=op, _name=name: calls.append(_name) or _op(*a))
    _eta_series_sign(ctx, "Cq_eta", w)
    if w:
        _eta_series_sign(ctx, "Sq_eta", w)
    assert calls == []


def test_sign_at_zero_w_is_the_exact_sign(ctx):
    assert _eta_series_sign(ctx, "Cq_eta", Fraction(0)) == 1
    with pytest.raises(LimitError, match="did not resolve"):  # the sine series vanishes there
        _eta_series_sign(ctx, "Sq_eta", Fraction(0))


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (LimitError, ValueError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["Sq_eta", "Cq_eta", "Sinq"]), st.floats(0.001, 0.9995), st.floats(0.0, 60.0))
@example("Sq_eta", 0.999, 0.5)  # (sqrt q; sqrt q)_m underflows to 0.0: a search error
@example("Cq_eta", 0.99, 10.0)  # w**(2k) overflows: a search error
@example("Sinq", 0.998, 1000.0)  # no convergence in 400 terms
@example("Sq_eta", 1e-100, 1e75)  # w**5 overflows, the term does not: the second form
def test_eta_series_running_product_matches_closed_form(kind, q, w):
    # (b; b)_m carried as a running product multiplies the same factors in the same order
    # as its closed form, so every sum is bit for bit the same, and so is every error
    assert _outcome(_eta_series_value, kind, q, w) == _outcome(eta_series_value_closed, kind, q, w)


@pytest.mark.parametrize("kind", ["S", "C"])
def test_basic_trig_at_eta_running_products_match_closed_forms(kind):
    for s in (Fraction(k, 41) for k in range(1, 41)):
        ctx = QContext(s)
        for frac in (-1.01, -0.9, -0.6, -0.3, -0.05, 0.0, 0.2, 0.45, 0.7, 0.9, 1.02):
            w = frac / math.sqrt(float(ctx.q))  # past |frac| = 1 both raise ValueError
            assert _outcome(basic_trig, ctx, "eta", w, kind) == _outcome(basic_trig_eta_closed, ctx, w, kind), (s, w)
