"""Pins of the float zero finders, recorded before their scans were merged into one.

The grid is every base q = k/97 (k = 1..96) and q = 0.998, 0.999, 0.9995, 1e-3, 1e-6.
Each pin is the SHA-256 of the reprs of one finder's results over that grid, so a
change in any bit of any float fails it.  The error texts are pinned as written,
since the scan's reaches the stderr of ``zeros``; the scan caps and the sine
bound are patched to reach them.
"""

import hashlib

import pytest

from qlidstone import qspecial

GRID = [k / 97 for k in range(1, 97)] + [0.998, 0.999, 0.9995, 1e-3, 1e-6]

PINS = {
    "smallest_positive_zero": "608102d228152b19a8ff8c9d45e83e3a19c576ff10a81577059bac4504329180",
    "positive_zeros": "c2d99c3ef57be03f5891b65d1273d589a3a73239d3c10fd4c4d725b10b278b96",
    "jackson_bessel_zeros": "19670aa5eeda3521edbb816ee6671a345345fc36f5c9e844009a13281f53aa6e",
}


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # a search that raises is pinned by its text
        return f"{type(exc).__name__}: {exc}"


def _grid_outcomes(name):
    if name == "smallest_positive_zero":
        cases = [(kind, q) for q in GRID for kind in ("Sq_eta", "Cq_eta", "Sinq")]
    elif name == "positive_zeros":
        cases = [(kind, q, 4) for q in GRID for kind in ("Sq_eta", "Cq_eta")]
    else:
        cases = [(nu, q, 4) for q in GRID for nu in (-0.5, 0.0, 0.5, 1.5)]
    return [_outcome(getattr(qspecial, name), *args) for args in cases]


@pytest.mark.parametrize("name", sorted(PINS))
def test_float_zeros_are_pinned(name):
    got = _grid_outcomes(name)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == PINS[name]


def test_scan_error_texts_are_pinned(monkeypatch):
    # a scan start past the first sine zero, a cap below it, and caps below the third zeros
    real = qspecial.hayman_zero_estimate
    first = qspecial.smallest_positive_zero("Sq_eta", 0.25).value
    monkeypatch.setattr(qspecial, "sq_lower_bound", lambda q: (1.2 * first) ** 2)
    assert _outcome(qspecial.smallest_positive_zero, "Sq_eta", 0.25) == (
        "ZeroSearchError: f(lo) = -2.30249 < 0 at the scan start lo = 2.81693: a zero lies below it")
    monkeypatch.undo()
    monkeypatch.setattr(qspecial, "hayman_zero_estimate", lambda m, nu, q: 4.6)
    assert _outcome(qspecial.smallest_positive_zero, "Sq_eta", 0.25) == (
        "ZeroSearchError: no sign change in [2.29129, 2.3] at scan ratio 1.01; f(lo) = 0.206412, f(cap) = 0.175314")
    monkeypatch.setattr(qspecial, "hayman_zero_estimate", lambda m, nu, q: real(m, nu, q) if m <= 3 else 30.0)
    assert _outcome(qspecial.positive_zeros, "Sq_eta", 0.25, 4) == (
        "ZeroSearchError: zero 3 of Sq_eta not found below 15")
    assert _outcome(qspecial.jackson_bessel_zeros, 0.5, 0.25, 4) == (
        "ZeroSearchError: zero 3 of J_0.5 not found below u = 225")
