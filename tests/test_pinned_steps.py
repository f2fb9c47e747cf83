"""Exact and float pins of every reader of the psi_j rho_j recurrence, recorded
before the polynomial, exact and float routes came to read one step stream.

They reach orders (up to 40) and float routes that ``test_pinned_exact`` does
not: the float terms of ``psi_rho_values``, the per-s polynomial and
eta tables, ``rho_values`` and ``translate_weights`` off the named points, and
a refinement job of the ``expansion`` benchmark workload end to end.  Each case
hashes the reprs of its results, so a change of a single coefficient, of a
float bit or of a value's type fails.  The digests were recorded on the code
before that refactor; they are not edited to make a change pass.
"""

import hashlib
import sys
from fractions import Fraction

import pytest

from oracles import psi_rho_values, rho_values, translate_weights
from qlidstone.lidstone import bernoulli_expansion, trig_rho_stream
from qlidstone.qcore import QContext
from qlidstone.qspecial import refine_zero_exact
from qlidstone.symlaurent import psi_rho_at_eta, psi_rho_polys, special_poly

BASES = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(1, 17), Fraction(20, 21))
FLOAT_POINTS = (-1.0, -0.35, 0.0, 0.5, 1.0)
POINTS = (Fraction(3, 7), Fraction(-5, 2))


def _refinement(ctx):
    # the Sq_eta job of the expansion workload: the refined zero, its 40-term sine stream, K = 3
    w = refine_zero_exact(ctx, "Sq_eta", 60)
    rep = bernoulli_expansion(ctx, trig_rho_stream(ctx, "S", w, 40), 3)
    return w, rep.data_at_zero, rep.data_at_eta, rep.reconstruction, rep.residual, rep.tau_estimate, rep.status


CASES = {
    "psi_rho_values": (BASES, lambda ctx: [psi_rho_values(ctx, x, 40) for x in FLOAT_POINTS]),
    "psi_rho_polys": (BASES, lambda ctx: psi_rho_polys(ctx, 30)),
    "psi_rho_at_eta": (BASES, lambda ctx: psi_rho_at_eta(ctx, 40)),
    "special_poly-rho": (BASES, lambda ctx: [special_poly(ctx, "rho", n) for n in range(21)]),
    "rho_values": (BASES, lambda ctx: [rho_values(ctx, y, 30) for y in POINTS]),
    "translate_weights": (BASES, lambda ctx: [translate_weights(ctx, y, 30) for y in POINTS]),
    "refinement": ((Fraction(20, 21),), _refinement),
}


def digest(case: str) -> str:
    bases, run = CASES[case]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the eta table at order 40 has integers of some 4400 digits
    try:
        text = "\n".join(repr(run(QContext(s))) for s in bases)
    finally:
        sys.set_int_max_str_digits(limit)
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    "psi_rho_at_eta": "b1013e2db4acf78eb5379f00157b2a7e7e5f90c9be7e5c83c58b72f033864707",
    "psi_rho_polys": "1eeab3c94b48f4b9044555fc01747a32722ad8095eefd4cb167aae731fff6e84",
    "psi_rho_values": "558791286ead5bbb0b7334576ad244f910951987f8a679482e752b61ed8d49e3",
    "refinement": "dab71f0bc7dccaaeee23d272b6dd256ff29dbc4fdbd1f429498e121570acdfec",
    "rho_values": "33e049b017fddeb55f9cd0df36a23817562554d9bc359c5afea148be0b8e2f3d",
    "special_poly-rho": "006b1ba48df8aa7c1a6ed14fbab1997175fdb2731369be0253177836a05cd909",
    "translate_weights": "bf1205800e87917e776de882ba83b88e8dfb7d5e719d73e1bb94ecbb8a3c122b",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_readers_are_pinned(case):
    assert digest(case) == PINS[case]
