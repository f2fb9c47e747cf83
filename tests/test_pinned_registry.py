"""Exact pins of every identity-registry report, recorded before the decomposition
checks came to read the bases and the eta table that the expansions use.

The CLI prints only each check's pass flag and note; the report's repr also
carries every (n, ok) pair and the first failure.  Each case hashes the reprs of
one check's reports at the four bases and five orders below, so a change of a
single result fails.  The digests were recorded on the code before that
refactor; they are not edited to make a change pass.  The eq4_decomposition
digest was re-recorded once, when its note dropped its claim of how the
B-quotient is built; only that note changed.
"""

import hashlib
from fractions import Fraction

import pytest

from qlidstone.qcore import QContext
from qlidstone.qpolys import check_identity, registry_names

BASES = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 19), Fraction(24, 25))
ORDERS = (0, 1, 2, 9, 16)


def digest(name: str) -> str:
    text = "\n".join(repr(check_identity(QContext(s), name, n)) for s in BASES for n in ORDERS)
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    "connection_F1": "fa516dcbadf8be546a79748962656531f462dfa3428ea6950803aca926b2c3ae",
    "connection_F2": "8e81312c306c08c0f6f858c9983c7cc1e09c66a3d15fd35894d235143fdf2769",
    "eq16": "b3468492f2285fb088491dbe41f1812ca620338ba16d85bcf6aafb998fdce44a",
    "eq17": "53c1de1d5a04d1309f51211bd5215a191439d0bf4fbcca1b9a8231461849c563",
    "eq18": "a809f1ac834b11bbd6f618c038c531f033762aa50229868f42e0879b9d02d934",
    "eq4_decomposition": "ccb0c9461c5ab22340fcf360aaff54050b9f2fa9d692b957ad375761549ce169",
    "euler_decomposition": "8dc263530e9be07226e8471d97861bedca62e024d2a12254c96a2928feebccf9",
    "hermite_rep": "8b5a7f0d261ecba76aeb585fbca056f53ad53a70ed1aba463f13bed3e3fa9e3b",
    "ladders": "ac6dcfae46a957f065a36952664de894dcb1fc63a81894030a9322af82484d27",
    "numbers_agree_Eq10": "6ce11fe1b56ce047f5ea834df8ebc4781fe19b53f8acbb994b99c91c158b4e27",
    "q_square_relation": "259ba569bce96587adedfa184bb785f26698718be5109df6521053d35743777e",
    "reflection_B": "54f3591642e18a691ec2d998c962798e9d2952c514f9d0bb31d9ccd56cbc1654",
    "reflection_beta": "d3357fca80d2e05fcdd6f8fb83d72e1e0b049cf18d360f4ff840d9c5f81236d0",
    "translation_B": "52897de795ffbcda3c5063f426a145eda7e5aeab3f39d5d7e4614d5121cc5156",
    "translation_E": "65ae3931e62198836d4b7bdbb96d297e87541a05f0ba64734a739ef12d3a2a9c",
}


def test_every_check_is_pinned():
    assert sorted(PINS) == sorted(registry_names())


@pytest.mark.parametrize("name", sorted(PINS))
def test_registry_reports_are_pinned(name):
    assert digest(name) == PINS[name]
