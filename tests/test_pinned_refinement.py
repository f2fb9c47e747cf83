"""Exact pins of the refinement path, recorded before its fast routes went in.

No golden CLI digest reaches the exact zero refinement (no command refines
a zero), so these values guard it: the refined rationals and the float
fields of the counterexample reports must stay bit for bit the same.
"""

from fractions import Fraction

import pytest

from qlidstone.lidstone import counterexample_report
from qlidstone.qcore import QContext
from qlidstone.qspecial import refine_zero_exact

REFINED = [
    ((Fraction(16, 17), "Sq_eta", 60), "15139543082714210184240081841334267/41538374868278621028243970633760768"),
    ((Fraction(16, 17), "Sq_eta", 120),
     "135155136869237619412054220930790277616842638/370825242873934841693455373149912999044753127"),
    ((Fraction(16, 17), "Cq_eta", 60), "7480393442884842992947494441568201/41538374868278621028243970633760768"),
    ((Fraction(16, 17), "Cq_eta", 120),
     "153547228234424053495199377291994449849625104/852642628370480669641281401797630073686693389"),
    ((Fraction(19, 20), "Sq_eta", 60), "6434754436634184726837825590094461/20769187434139310514121985316880384"),
    ((Fraction(19, 20), "Sq_eta", 120),
     "211484152216161959052195832835996933894330068/682598542023775623023064466970052937337937581"),
    ((Fraction(19, 20), "Cq_eta", 60), "6380006678603606000344599316546341/41538374868278621028243970633760768"),
    ((Fraction(19, 20), "Cq_eta", 120),
     "152461292976140245476771933462941726093657293/992631302688772766851842465809036849571209820"),
    ((Fraction(24, 25), "Sq_eta", 60), "2576369008577703000849420503804747/10384593717069655257060992658440192"),
    ((Fraction(24, 25), "Sq_eta", 120),
     "187984368076053726869497762297789696902616293/757710281846460367795282057805175087419952784"),
    ((Fraction(24, 25), "Cq_eta", 60), "20499190350138366691346967582285689/166153499473114484112975882535043072"),
    ((Fraction(24, 25), "Cq_eta", 120),
     "113953178125203240238106884567924991534023845/923632543441301209946678412204902522383880344"),
]


@pytest.mark.parametrize("key,want", REFINED, ids=[f"{k[1]}-{k[0]}-{k[2]}" for k, _ in REFINED])
def test_refined_zero_is_pinned(key, want):
    s, kind, steps = key
    assert refine_zero_exact(QContext(s), kind, steps) == Fraction(want)


# (max_data, function_norm, residual) of counterexample_report(..., n_terms=40, K=3) at s = 19/20.
# Norm and residual are float sums of the exact rho-basis difference; the exact bernoulli values
# are 0x1.018b3d93bf3d8p+0 and 0x1.018b3d93bf3d1p+0.
COUNTEREXAMPLES = {
    "bernoulli": ("0x1.62135164e70c8p-39", "0x1.018b3d93bf3d8p+0", "0x1.018b3d93bf3d2p+0"),
    "euler": ("0x1.db17cf9cc94bep-78", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
}


@pytest.mark.parametrize("kind", sorted(COUNTEREXAMPLES))
def test_counterexample_fields_are_pinned(kind):
    rep = counterexample_report(QContext(Fraction(19, 20)), kind, n_terms=40, K=3)
    got = (rep.max_data, rep.function_norm, rep.expansion.residual)
    assert tuple(float.hex(v) for v in got) == COUNTEREXAMPLES[kind]
