"""Exact pins of the evaluation points, the family tables, the interpolation bases
and the expansions, recorded before they came to be read off one table each, and of
the scalar q-product builders, recorded before they came to be built from integer factors.

Each case hashes the reprs of its results at the five bases below, at orders up
to 14 (the q-Hermite polynomials up to 30, the q-products up to 25), so a change
of a single coefficient, or of a value's type, fails.  The digests were recorded
on the code before each refactor; they are not edited to make a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

from oracles import rho_values, translate_weights
from qlidstone.fps import pochhammer_series
from qlidstone.lidstone import EntireFn, bernoulli_expansion, euler_expansion, trig_rho_stream
from qlidstone.qcore import QContext, q_factorials, q_pochhammers
from qlidstone.qpolys import (BASIS_KINDS, FAMILY_KINDS, _binomial_series, build_family, build_numbers,
                              family_multiplier, lidstone_basis)
from qlidstone.symlaurent import eval_at, q_translate, special_poly

BASES = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(13, 27), Fraction(24, 25))
ORDER = 14
NAMED = ("zero", "eta", "minus_eta")
POINTS = NAMED + (Fraction(0), Fraction(3, 7), Fraction(-5, 2), 2)
NUMBER_KINDS = ("beta_q", "suslov_Bq", "suslov_Eq", "im_Bq")
PRODUCTS = 25  # the last index of the q-products pinned


def _polys(ctx):
    return build_family(ctx, "suslov_B", ORDER) + tuple(special_poly(ctx, "rho", n) for n in range(ORDER + 1))


def _bases(ctx):
    # the bases the registry and the guichard solver pass, a negative one, zero and a p > 1
    return ctx.q, ctx.sqrt_q, ctx.s, -ctx.s, Fraction(0), 1 / ctx.sqrt_q


def _pochhammers(ctx):
    s, p = ctx.s, ctx.sqrt_q
    return [q_pochhammers(a, base, PRODUCTS) for a in (ctx.q, p, -1, -1 / p, -p, 0, 1 / s, Fraction(-7, 3))
            for base in _bases(ctx)]


def _binomials(ctx):
    s, q, p = ctx.s, ctx.q, ctx.sqrt_q
    args = [(-1 / p, q, -p), (-p, q, 1), (-1, p, 1), (s, -s, 1 / s), (Fraction(-7, 3), 1 / p, Fraction(-3, 7)),
            (1 / s, 0, 2), (0, q, -s), (1, p, 3), (q, q, 0)]
    return [_binomial_series(a, base, z, PRODUCTS + 1) for a, base, z in args]


def _expansion(engine, make_fn, K):
    def run(ctx):
        rep = engine(ctx, make_fn(ctx), K)
        return rep.data_at_zero, rep.data_at_eta, rep.reconstruction, rep.residual, rep.tau_estimate, rep.status
    return run


CASES = {
    "eval_at": lambda ctx: [[eval_at(ctx, p, x) for x in POINTS] for p in _polys(ctx)],
    "rho_values": lambda ctx: [rho_values(ctx, x, ORDER + 1) for x in POINTS],
    "translate_weights": lambda ctx: [translate_weights(ctx, x, ORDER + 1) for x in NAMED],
    "q_translate": lambda ctx: [[q_translate(ctx, p, x) for x in NAMED]
                                for kind in ("suslov_B", "suslov_E") for p in build_family(ctx, kind, 10)],
    **{f"family_multiplier-{k}": (lambda k: lambda ctx: family_multiplier(ctx.s, k, ORDER))(k) for k in FAMILY_KINDS},
    **{f"build_family-{k}": (lambda k: lambda ctx: build_family(ctx, k, ORDER))(k) for k in FAMILY_KINDS},
    **{f"build_numbers-{k}": (lambda k: lambda ctx: build_numbers(ctx, k, ORDER))(k) for k in NUMBER_KINDS},
    "special_poly-hermite": lambda ctx: [special_poly(ctx, "hermite", n) for n in range(31)],
    "q_pochhammers": _pochhammers,
    "q_factorials": lambda ctx: [q_factorials(PRODUCTS, base) for base in _bases(ctx) + (1, 3)],
    "pochhammer_series": lambda ctx: [pochhammer_series(c, power, base, PRODUCTS + 1)
                                      for c in (1, -1, ctx.q, -ctx.s, 1 / ctx.s, 0)
                                      for power in (1, 2, 3) for base in _bases(ctx)[:5]],
    "_binomial_series": _binomials,
    **{f"lidstone_basis-{k}": (lambda k: lambda ctx: lidstone_basis(ctx, k, ORDER // 2))(k) for k in BASIS_KINDS},
    "bernoulli-phi": _expansion(bernoulli_expansion,
                                lambda ctx: EntireFn.from_poly(ctx, special_poly(ctx, "phi", 6, Fraction(1, 3))), 3),
    "euler-monomial": _expansion(euler_expansion,
                                 lambda ctx: EntireFn.from_poly(ctx, special_poly(ctx, "monomial", 7)), 4),
    "bernoulli-sine": _expansion(bernoulli_expansion, lambda ctx: trig_rho_stream(ctx, "S", Fraction(1, 2), ORDER), 6),
    "euler-cosine": _expansion(euler_expansion, lambda ctx: trig_rho_stream(ctx, "C", Fraction(2, 3), ORDER), 5),
}


def digest(case: str) -> str:
    text = "\n".join(repr(CASES[case](QContext(s))) for s in BASES)
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    "_binomial_series": "c591fd8a251718847af8695ed1e0a0db67d1155b494643ca7845763338409856",
    "bernoulli-phi": "0625b336348639c26fad28582e9ea74ce85b0c7511f17a94ccc5e1a60c26e462",
    "bernoulli-sine": "95cbb14826628284b75801f00852bb9e2cb1b8e7a1669943d65316247b3d1565",
    "build_family-new_E": "1423bcba8b2087d013df94c3fd5f135d5acd5cd2f0c15d0f79fcc19d3ed83f18",
    "build_family-new_beta": "9a715565a0c884e198c9a79a38f3c42d56402e2f2c24966c7d1739ac5ae40e2a",
    "build_family-suslov_B": "5227b70080a74852a0b13513b4c792214788e672faaf127bbc00e6b7d0344204",
    "build_family-suslov_E": "8f2081b01dddcffbebb6bfc20d1bb7b2f39e98725923ef3e58c44601eee7de1e",
    "build_numbers-beta_q": "da5b40b8d0add0539cabd0120dbcec17cbdc3c95e75c2d32f59c682bb6dd4905",
    "build_numbers-im_Bq": "50378d2f87865df5626938849ff67821885fdd7f60b1722ef5dce77a9a3b4b9d",
    "build_numbers-suslov_Bq": "da5b40b8d0add0539cabd0120dbcec17cbdc3c95e75c2d32f59c682bb6dd4905",
    "build_numbers-suslov_Eq": "ac0e1e1a653686a633f5aef2a1c0b091701bdc0f2ff548dfda4d0fb31c7fb25e",
    "euler-cosine": "6159dc8ab9f2f5d43991911e973ca4d2aaee903b4d357bb663e5ea0a4938d351",
    "euler-monomial": "870b2320c90ae1f0faebb3b1be6c92fdf2b2aaeee4a43f421512640a97b9b632",
    "eval_at": "951e35ec92e1fdeb9ba263c099dc45722f4158686bca7d68bdac2c579130dacd",
    "family_multiplier-new_E": "d4d06fa2110abcac435fca9fef030627619037c20f2864fd12fd286170ff980b",
    "family_multiplier-new_beta": "d065779efa918d17a2255c9e2ae2b24ac7845c9c8dfb551d5cd5e7be90419a8a",
    "family_multiplier-suslov_B": "aa3277ff9bb3656afe080a5c53cbae3a22fa54a940776b479f54d3a8223d4823",
    "family_multiplier-suslov_E": "ea5a7633767d0ca614dc4c4170d889e8a9ccc2a1650c4710af3ca64fa33ae553",
    "lidstone_basis-A": "ddd26a18a389674ced9a5c8f3fef3ddcf2230cfdb58fe3db13c940e69191d398",
    "lidstone_basis-B": "56201b434c798562739d35ecee10a7d45b47237e7cff5876ced311ccf14b29bb",
    "lidstone_basis-M": "f375edf3a53911d73ed60a1a86f73a4c23fd60bfd792be571a402c0ad0037f7d",
    "lidstone_basis-Mtilde": "7adc3ddf8bbc3428b8770843c7ffe80399f868a4ec93be362d1387d63feb6c8f",
    "pochhammer_series": "49636162ff6c62b3a8fb840f50776271d27b2f2f26a6dafd55636babb4a558e8",
    "q_factorials": "f281958ef55468a8ac465c7723eef7f715bb85e3d289c6ff3aac967c63197d29",
    "q_pochhammers": "b20c47113c0b0453854ca164c5f253c5512c0512845c71d906355a020c19afa5",
    "q_translate": "4d1662718955838084134841dcccc8ae11d1cc0ea0c73f75f80093d44f539ce9",
    "rho_values": "e4a8ef7686420b329a19d2109cb60ae95a3a68b2a8e195644a7e161eba6a920a",
    "special_poly-hermite": "f36ac242f42b1def2d97933ea3ec94281f531399c0231e47dc8a76375e1026fb",
    "translate_weights": "59b7ea07ea269a6bf48a5c155d5a8d2fb63e62503eee1b5bfb74b25ae36a697e",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_results_are_pinned(case):
    assert digest(case) == PINS[case]
