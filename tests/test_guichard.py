import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qlidstone.guichard as guichard
from oracles import (bp_numbers_recurrence, dotplus_translate_binomial, q_binomial, q_factorial,
                     solve_difference_bp_sum, verify_solution_subtract)
from qlidstone.qcore import IntegrityError, q_number
from qlidstone.fps import Series
from qlidstone.qpolys import im_bernoulli_numbers
from qlidstone.guichard import (
    CapacityError,
    DeltaSeq,
    bp_numbers,
    bp_polynomials,
    dotplus_translate,
    growth_bound_check,
    p_derivative,
    solve_difference,
    verify_solution,
)

fracs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3))


def test_delta_presets():
    d = DeltaSeq.alsalam_half(Fraction(1, 4), 5)
    assert d.delta[0] == 1
    assert d.delta[1] == 1  # (-1; p)_1 / 2 = 2/2
    assert d.delta[2] == Fraction(2) * Fraction(5, 4) / 4
    with pytest.raises(ValueError):
        DeltaSeq.custom(Fraction(1, 2), [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError):
        DeltaSeq.custom(Fraction(-1), [Fraction(1)])


def test_translate_trivials():
    d = DeltaSeq.ones(Fraction(1, 4), 4)
    assert dotplus_translate([1], d) == (1,)
    assert dotplus_translate([0, 1], d) == (1, 1)  # x -> x + 1 when delta_1 = 1


def test_translate_classical_limit():
    # p = 1 with unit deltas is plain shift by one
    d = DeltaSeq.ones(Fraction(1), 8)
    for n in range(6):
        out = dotplus_translate([0] * n + [1], d)
        from math import comb

        assert out == tuple(Fraction(comb(n, n - k)) for k in range(n + 1))


def test_translate_capacity_error():
    d = DeltaSeq.ones(Fraction(1, 4), 2)
    with pytest.raises(CapacityError):
        dotplus_translate([0, 0, 0, 1], d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4)]),
       st.lists(fracs, min_size=1, max_size=9), st.lists(fracs, min_size=8, max_size=8))
def test_translate_matches_binomial_oracle(p, h, tail):
    d = DeltaSeq.custom(p, [Fraction(1)] + tail)
    assert dotplus_translate(h, d) == dotplus_translate_binomial(h, d)


def test_p_derivative():
    p = Fraction(1, 4)
    assert p_derivative([0, 1], p) == (1,)
    assert p_derivative([0, 0, 0, 1], p) == (0, 0, q_number(3, p))
    assert p_derivative([5], p) == (0,)


@settings(max_examples=30, deadline=None)
@given(st.lists(fracs, min_size=1, max_size=4))
def test_commutation_lemma(coeffs):
    # the difference derivative commutes with the translation
    d = DeltaSeq.alsalam_half(Fraction(1, 4), 8)
    lhs = p_derivative(dotplus_translate(coeffs, d), d.p)
    if len(coeffs) == 1:
        rhs = (Fraction(0),)
    else:
        rhs = dotplus_translate(p_derivative(coeffs, d.p), d)
    assert lhs == rhs


def test_bp_numbers_basics():
    d = DeltaSeq.alsalam_half(Fraction(1, 4), 8)
    nums = bp_numbers(d, 5)
    assert nums[0] == 1


def test_bp_numbers_ones_vs_division_oracle():
    # the division in bp_numbers against the triangular recurrence, and against
    # t / (e_q(t) - 1) divided out with the exponential built here
    q = Fraction(1, 4)
    d = DeltaSeq.ones(q, 12)
    nums = bp_numbers(d, 8)
    assert nums == bp_numbers_recurrence(d, 8)
    denom = Series([Fraction(1) / q_factorial(k, q) for k in range(1, 11)])
    quotient = Series.one(10) / denom
    assert nums == tuple(quotient[n] * q_factorial(n, q) for n in range(9))


def test_bp_numbers_fixed_point():
    # multiplying the generating quotient back by sum_k d_{k+1} t**k gives 1
    # (product against the division), and the recurrence gives the same numbers
    q = Fraction(1, 4)
    d = DeltaSeq.alsalam_half(q, 12)
    nums = bp_numbers(d, 8)
    b = Series([nums[n] / q_factorial(n, q) for n in range(9)])
    dk = Series([d.delta[k] / q_factorial(k, q) for k in range(1, 10)])
    assert b * dk == Series.one(9)
    assert nums == bp_numbers_recurrence(d, 8)


def test_bp_numbers_match_half_product_family():
    q = Fraction(1, 4)
    d = DeltaSeq.alsalam_half(q, 12)
    assert bp_numbers(d, 8) == im_bernoulli_numbers(q, 8)


def test_bp_numbers_singular_delta1():
    d = DeltaSeq.custom(Fraction(1, 4), [Fraction(1), Fraction(0), Fraction(1)])
    with pytest.raises(ZeroDivisionError):
        bp_numbers(d, 1)


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(4)])
@pytest.mark.parametrize("maker", [DeltaSeq.ones, DeltaSeq.alsalam_half])
def test_ladder_and_jump_exact(p, maker):
    d = maker(p, 14)
    polys = bp_polynomials(d, 10)  # raises IntegrityError on any failure
    # spot checks of the jump identity content
    n = 2
    jump = dotplus_translate(polys[n], d)
    jump = tuple(a - b for a, b in zip(jump, polys[n] + (Fraction(0),) * 3))
    assert jump[1] == q_number(2, p)  # = [2]_p = [2]_p! here
    assert polys[0] == (bp_numbers(d, 0)[0],)


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 4), Fraction(4), Fraction(7, 3)])
@pytest.mark.parametrize("maker", [DeltaSeq.ones, DeltaSeq.alsalam_half])
def test_bp_polynomials_are_the_q_binomial_sums(p, maker):
    d = maker(p, 22)
    numbers = bp_numbers(d, 20)
    for n, poly in enumerate(bp_polynomials(d, 20, verify=False)):
        want = [q_binomial(n, k, p) * numbers[n - k] for k in range(n + 1)]
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        assert poly == tuple(want), n


def test_rescaled_family_identity():
    # with p = 1/q the polynomials are q^(-n(n-1)/2) times the half-product
    # family at base q, and the rescaled jump carries q^((n-1)(n-2)/2)
    q = Fraction(1, 4)
    d = DeltaSeq.alsalam_half(Fraction(4), 12)
    polys = bp_polynomials(d, 8)
    nums = im_bernoulli_numbers(q, 8)
    for n in range(9):
        scaled0 = polys[n][0] * q ** Fraction(n * (n - 1), 2)
        assert scaled0 == nums[n]
    for n in range(1, 9):
        big = tuple(c * q ** Fraction(n * (n - 1), 2) for c in polys[n])
        jump = dotplus_translate(big, d)
        jump = tuple(a - b for a, b in zip(jump, big + (Fraction(0),) * 3))
        assert jump[n - 1] == q ** Fraction((n - 1) * (n - 2), 2) * q_number(n, q)


def test_solver_trivials():
    d = DeltaSeq.alsalam_half(Fraction(4), 8)
    assert solve_difference([0], d) == (0,)
    g = solve_difference([0, 1], d)
    assert verify_solution([0, 1], g, d) is None


def test_solver_acceptance_instance():
    q = Fraction(1, 4)
    f = [q ** (n * n) for n in range(31)]
    d = DeltaSeq.alsalam_half(Fraction(4), 36)
    g = solve_difference(f, d)
    assert verify_solution(f, g, d) is None


def test_solver_perturbation_detected():
    d = DeltaSeq.alsalam_half(Fraction(4), 12)
    f = [Fraction(1), Fraction(2), Fraction(3)]
    g = list(solve_difference(f, d))
    g[2] += Fraction(1, 9)
    # a z**2 bump shows up in (T - 1) at the lower orders it maps to
    assert verify_solution(f, g, d) == 0
    g2 = list(solve_difference(f, d))
    g2[0] += Fraction(1, 9)  # constants are invisible to T - 1
    assert verify_solution(f, g2, d) is None


def test_two_presets_solve_same_rhs():
    f = [Fraction(1), Fraction(0), Fraction(1)]
    d1 = DeltaSeq.ones(Fraction(1, 4), 8)
    d2 = DeltaSeq.alsalam_half(Fraction(1, 4), 8)
    g1 = solve_difference(f, d1)
    g2 = solve_difference(f, d2)
    assert g1 != g2
    assert verify_solution(f, g1, d1) is None
    assert verify_solution(f, g2, d2) is None


@settings(max_examples=20, deadline=None)
@given(st.lists(fracs, min_size=1, max_size=4), st.lists(fracs, min_size=1, max_size=4), fracs, fracs)
def test_solver_linearity(f1, f2, a, b):
    d = DeltaSeq.alsalam_half(Fraction(1, 4), 10)
    n = max(len(f1), len(f2))
    f1 = f1 + [Fraction(0)] * (n - len(f1))
    f2 = f2 + [Fraction(0)] * (n - len(f2))
    combo = [a * x + b * y for x, y in zip(f1, f2)]
    g_combo = solve_difference(combo, d)
    g1, g2 = solve_difference(f1, d), solve_difference(f2, d)
    m = max(len(g1), len(g2), len(g_combo))
    pad = lambda t: tuple(t) + (Fraction(0),) * (m - len(t))
    assert pad(g_combo) == tuple(a * x + b * y for x, y in zip(pad(g1), pad(g2)))


PS = [Fraction(1), Fraction(1, 4), Fraction(4), Fraction(7, 3)]


def _perturbed(g, i, bump):
    g = list(g) + [Fraction(0)] * (i + 1 - len(g))
    g[i] += bump
    return g


def _same_outcome(fast, slow):
    try:
        expect = slow()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fast()
        return None
    assert fast() == expect
    return expect


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PS), st.sampled_from(["ones", "alsalam_half", "custom"]),
       st.integers(0, 40), st.data())
def test_solver_and_check_match_the_b_polynomial_routes(p, preset, deg, data):
    if preset == "custom":
        tail = data.draw(st.lists(fracs, min_size=deg + 2, max_size=deg + 4), label="delta tail")
        d = DeltaSeq.custom(p, [Fraction(1)] + tail)
    else:
        d = getattr(DeltaSeq, preset)(p, deg + 2 + data.draw(st.integers(0, 2), label="spare"))
    f = data.draw(st.lists(fracs, min_size=deg + 1, max_size=deg + 1), label="f")
    _same_outcome(lambda: bp_numbers(d, deg), lambda: bp_numbers_recurrence(d, deg))
    g = _same_outcome(lambda: solve_difference(f, d), lambda: solve_difference_bp_sum(f, d))
    if g is None:
        return
    assert verify_solution(f, g, d) is None
    i = data.draw(st.integers(0, len(g)), label="bumped index")
    bad = _perturbed(g, i, data.draw(fracs.filter(bool), label="bump"))
    assert verify_solution(f, bad, d) == verify_solution_subtract(f, bad, d)
    assert verify_solution(f[:-1] or [0], g, d) == verify_solution_subtract(f[:-1] or [0], g, d)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("maker", [DeltaSeq.ones, DeltaSeq.alsalam_half])
def test_solver_at_degree_40_matches_the_b_polynomial_sum(p, maker):
    rng = random.Random(40)
    d = maker(p, 42)
    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(41)]
    g = solve_difference(f, d)
    assert g == solve_difference_bp_sum(f, d)
    assert verify_solution(f, g, d) is None
    for i in (1, 20, 41, 42):
        bad = _perturbed(g, i, Fraction(1, 3))
        assert verify_solution(f, bad, d) == verify_solution_subtract(f, bad, d) == 0
    assert verify_solution(f[:40], g, d) == verify_solution_subtract(f[:40], g, d) == 40


def test_solve_difference_builds_no_b_polynomial(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_difference built the B polynomials")

    monkeypatch.setattr(guichard, "bp_polynomials", forbidden)
    d = DeltaSeq.alsalam_half(Fraction(4), 12)
    f = [Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(5)]
    assert solve_difference(f, d) == solve_difference_bp_sum(f, d)


def test_verify_solution_past_capacity_raises():
    d = DeltaSeq.ones(Fraction(1, 4), 3)
    with pytest.raises(CapacityError):
        verify_solution([1], [0, 0, 0, 0, 1], d)
    with pytest.raises(CapacityError):  # trailing zeros count toward the degree, as in T
        verify_solution([1], [0, 0, 0, 0, 0], d)
    with pytest.raises(CapacityError):
        solve_difference([1, 2, 3], d)
    assert verify_solution([1], [0, 0, 0, 1], d) == verify_solution_subtract([1], [0, 0, 0, 1], d) == 1


def test_jump_check_catches_wrong_numbers(monkeypatch):
    # the ladder holds for any numbers; only the jump identity pins them
    d = DeltaSeq.ones(Fraction(1, 4), 8)
    good = bp_numbers(d, 6)
    monkeypatch.setattr(guichard, "bp_numbers", lambda d, n: good[:4] + (good[4] + 1,) + good[5:n + 1])
    with pytest.raises(IntegrityError, match="jump identity fails at n = 5"):
        bp_polynomials(d, 6)


def test_finite_interpolation_reconstruction():
    # f(z) = f(0) + sum_k (D^{k-1}f(0 (+) 1) - D^{k-1}f(0)) / [k]_p! phi_k(z)
    # with phi_k = B_k - B_k(0)
    rng = random.Random(7)
    for p in (Fraction(1, 4), Fraction(4)):
        d = DeltaSeq.alsalam_half(p, 10)
        polys = bp_polynomials(d, 6, verify=False)
        phi = [tuple(c - poly[0] if i == 0 else c for i, c in enumerate(poly)) for poly in polys]
        for _ in range(10):
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
            recon = [Fraction(0)] * 5
            recon[0] += f[0]
            deriv = tuple(f)
            for k in range(1, 5):
                # D^{k-1} f, translated, at zero
                at_shift = dotplus_translate(deriv, d)[0]
                at_zero = deriv[0]
                coef = (at_shift - at_zero) / q_factorial(k, p)
                for i, c in enumerate(phi[k]):
                    recon[i] += coef * c
                deriv = p_derivative(deriv, p)
            assert tuple(recon) == tuple(f)


def test_growth_bound():
    rep = growth_bound_check(Fraction(1, 4), 20)
    assert rep.argmax <= 6
    assert rep.sup < float("inf")
    assert rep.ratios[3] == 0.0 and rep.ratios[5] == 0.0  # odd numbers vanish
    rep2 = growth_bound_check(Fraction(1, 4), 40, xi1=rep.xi1)
    assert rep2.sup <= rep.sup * 1.01
