"""The one table store of ``qlidstone.qcore``: every per-parameter table keeps the
longest prefix asked for, extends it, answers with prefixes equal to a cold build,
counts its hits and misses, and the store never holds more than MAX_TABLES
parameters."""

from fractions import Fraction

import pytest

from qlidstone import qcore, qpolys, qspecial
from qlidstone.qcore import MAX_TABLES, QContext, clear_tables, psi_weights
from qlidstone.fps import eq_exponential_series
from qlidstone.qpolys import (BASIS_KINDS, FAMILY_KINDS, _denominator_parts, _family_series, _lidstone_quotients,
                              _qw2_series, build_numbers, family_multiplier, im_bernoulli_quotients)
from qlidstone.symlaurent import (SymPoly, psi_rho_at_eta, psi_rho_poly, psi_rho_polys, special_poly,
                                  translate_weights)

CTX = QContext(Fraction(3, 5))


def _eta_values(n):
    nums, den = psi_rho_at_eta(CTX, n)
    return [Fraction(e, den) for e in nums]  # the denominator is that of the longest prefix built


# every table, asked through its public or private entry at an order n
TABLES = {
    "psi_weights": lambda n: psi_weights(CTX, n),
    "rho": lambda n: special_poly(CTX, "rho", n),
    "hermite": lambda n: special_poly(CTX, "hermite", n),
    "psi_rho_poly": lambda n: psi_rho_poly(CTX, n),
    "psi_rho_polys": lambda n: psi_rho_polys(CTX, n),
    "psi_rho_at_eta": _eta_values,
    "translate_weights_eta": lambda n: translate_weights(CTX, "eta", n),
    "translate_weights_minus_eta": lambda n: translate_weights(CTX, "minus_eta", n),
    "denominator_parts": lambda n: _denominator_parts(CTX.s, n),
    "qw2_series": lambda n: _qw2_series(CTX.s, n),
    "im_bernoulli_quotients": lambda n: im_bernoulli_quotients(CTX.q, n),
    "suslov_Eq": lambda n: build_numbers(CTX, "suslov_Eq", n).values,
    **{f"family_multiplier_{k}": (lambda k: lambda n: family_multiplier(CTX.s, k, n))(k) for k in FAMILY_KINDS},
    **{f"family_series_{k}": (lambda k: lambda n: _family_series(CTX, k, n))(k) for k in FAMILY_KINDS},
    **{f"lidstone_quotients_{k}": (lambda k: lambda n: _lidstone_quotients(CTX, k, n))(k) for k in BASIS_KINDS},
}


def _cold(ask, n):
    clear_tables()
    return ask(n)


@pytest.mark.parametrize("name", TABLES)
def test_prefix_rule(name):
    ask = TABLES[name]
    short, long = _cold(ask, 8), _cold(ask, 13)
    clear_tables()
    assert ask(13) == long and ask(8) == short  # long, then a prefix of it
    clear_tables()
    assert ask(8) == short and ask(13) == long  # short, then extended or rebuilt
    assert ask(8) == short and ask(13) == long  # both warm


def test_series_tables_are_rebuilt_once_per_longer_order():
    clear_tables()
    for n in (6, 4, 9, 9, 2, 9, 12):
        _family_series(CTX, "suslov_B", n)
    assert _family_series.cache_info()[:2] == (4, 3)  # built at 6, 9 and 12
    assert _family_series(CTX, "suslov_B", 5) == _cold(lambda n: _family_series(CTX, "suslov_B", n), 5)


def test_hits_and_misses_of_a_known_sequence():
    clear_tables()
    for n in (5, 3, 5, 9, 0):  # a stream: the first call and the one past its end extend it
        psi_weights(CTX, n)
    assert qcore._psi_table.cache_info() == (3, 2, MAX_TABLES, 1)
    for kind, n in (("new_E", 6), ("new_E", 6), ("new_beta", 6), ("new_E", 7), ("new_beta", 2)):
        family_multiplier(CTX.s, kind, n)
    assert family_multiplier.cache_info()[:2] == (2, 3)
    clear_tables()
    assert family_multiplier.cache_info() == (0, 0, MAX_TABLES, 0)


def test_the_store_never_holds_more_than_its_bound():
    clear_tables()
    contexts = [QContext(Fraction(1, k)) for k in range(2, MAX_TABLES + 52)]  # MAX_TABLES + 50 values of s
    first = psi_weights(contexts[0], 2)
    for ctx in contexts:
        psi_weights(ctx, 2)
        assert len(qcore._store) <= MAX_TABLES
        psi_weights(contexts[1], 2)  # the second stays the most recently used
    info = qcore._psi_table.cache_info()
    assert info.currsize == info.maxsize == MAX_TABLES
    assert qcore._key(contexts[0]) not in qcore._store and qcore._key(contexts[1]) in qcore._store
    assert psi_weights(contexts[0], 2) == first  # evicted, and rebuilt the same
    assert len(qcore._store) == MAX_TABLES


def test_returned_lists_are_fresh():
    clear_tables()
    asks = [lambda: psi_weights(CTX, 6), lambda: psi_rho_polys(CTX, 6), lambda: translate_weights(CTX, "eta", 6),
            lambda: psi_rho_at_eta(CTX, 6)[0]]
    want = [ask() for ask in asks]
    for ask in asks:
        got = ask()
        got[0] = SymPoly.zero() if isinstance(got[0], SymPoly) else 99
        got.append(1)
        del got[1]
    assert [ask() for ask in asks] == want
    assert eq_exponential_series(CTX, 6).coeffs == tuple(want[1])


def test_tables_of_s_and_of_a_base_share_one_store():
    # q_square_relation reads the base s**2: a parameter of its own, beside s
    clear_tables()
    qpolys.check_identity(CTX, "q_square_relation", 6)
    assert {qcore._key(CTX.s), qcore._key(CTX.sqrt_q)} <= set(qcore._store)
    assert ("_im_bernoulli_series",) in qcore._store[qcore._key(CTX.sqrt_q)]


def test_a_failed_zero_search_is_not_stored(monkeypatch):
    clear_tables()
    calls = []

    def search(kind, q):
        calls.append((kind, q))
        if q > 0.5:
            raise qspecial.ZeroSearchError("no zero")
        return qspecial.ZeroReport(kind, q, (q, q), 0.0, True)

    monkeypatch.setattr(qspecial, "smallest_positive_zero", search)
    assert qspecial.first_zero("Sq_eta", 0.25) is qspecial.first_zero("Sq_eta", 0.25)
    assert qspecial.first_zero("Cq_eta", 0.25).kind == "Cq_eta"  # kinds are held apart under one q
    for _ in range(2):
        with pytest.raises(qspecial.ZeroSearchError):
            qspecial.first_zero("Sq_eta", 0.75)
    assert calls == [("Sq_eta", 0.25), ("Cq_eta", 0.25), ("Sq_eta", 0.75), ("Sq_eta", 0.75)]
    clear_tables()
