"""The one table store of ``qlidstone.qcore``: every per-parameter table keeps the
longest prefix asked for, extends it, answers with prefixes equal to a cold build,
counts its hits and misses, and the store never holds more than MAX_TABLES
parameters."""

from fractions import Fraction

import pytest

from qlidstone import cli, qcore, qpolys, qspecial, symlaurent  # cli imports every module, so every table is registered
from qlidstone.qcore import MAX_TABLES, QContext, clear_tables, psi_weights
from qlidstone.qpolys import FAMILY_KINDS, _family_series, build_numbers, family_multiplier, im_bernoulli_quotients
from qlidstone.symlaurent import SymPoly, psi_rho_at_eta, psi_rho_poly, psi_rho_polys, special_poly

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
    "psi_rho_eta_values": lambda n: symlaurent._psi_rho_eta_values(CTX.s, n),
    "im_bernoulli_quotients": lambda n: im_bernoulli_quotients(CTX.q, n),
    "suslov_Eq": lambda n: build_numbers(CTX, "suslov_Eq", n),
    "chain_audit": lambda n: qpolys._chain_audit(CTX, n),
    "phi_audit": lambda n: qpolys._phi_audit(CTX, n),
    **{f"product_{k}": (lambda k: lambda n: qpolys._product(CTX, k, n))(k) for k in ("suslov_B", "suslov_E",
                                                                                      "new_beta")},
    **{f"family_multiplier_{k}": (lambda k: lambda n: family_multiplier(CTX.s, k, n))(k) for k in FAMILY_KINDS},
    **{f"family_series_{k}": (lambda k: lambda n: _family_series(CTX, k, n))(k) for k in FAMILY_KINDS},
}


def _cold(ask, n):
    clear_tables()
    return ask(n)


def _assert_prefix_rule(ask, m, n):
    short, long = _cold(ask, m), _cold(ask, n)
    clear_tables()
    assert ask(n) == long and ask(m) == short  # long, then a prefix of it
    clear_tables()
    assert ask(m) == short and ask(n) == long  # short, then extended or rebuilt
    assert ask(m) == short and ask(n) == long  # both warm


@pytest.mark.parametrize("name", TABLES)
def test_prefix_rule(name):
    _assert_prefix_rule(TABLES[name], 8, 13)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("name", ["phi_audit", "product_suslov_B", "product_suslov_E", "product_new_beta"])
def test_prefix_rule_from_the_shortest_prefixes(name, n):
    # the registry asks these at n_max + 1 >= 1; the store answers the empty prefix too
    _assert_prefix_rule(TABLES[name], n, 13)


def test_every_table_has_a_prefix_case():
    # each table registers its name when it is decorated; first_zero has a test of its own below
    clear_tables()
    for ask in TABLES.values():
        ask(8)
    unasked = {name for name, count in qcore._counts.items() if not any(count)}
    assert unasked == {"first_zero"}, f"tables with no case in TABLES: {sorted(unasked - {'first_zero'})}"


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
    asks = [lambda: psi_weights(CTX, 6), lambda: psi_rho_polys(CTX, 6), lambda: psi_rho_at_eta(CTX, 6)[0],
            lambda: _family_series(CTX, "suslov_B", 6)]
    want = [ask() for ask in asks]
    for ask in asks:
        got = ask()
        got[0] = SymPoly.zero() if isinstance(got[0], SymPoly) else 99
        got.append(1)
        del got[1]
    assert [ask() for ask in asks] == want


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


def test_a_stream_that_raises_stores_nothing():
    # an extension that raises must leave neither its short prefix nor its dead generator behind,
    # or every later call would answer a short list without an error
    raise_at = [5]

    def throwaway_stream(param):
        k = 0
        while True:
            if k == raise_at[0]:
                raise_at[0] = None
                raise KeyboardInterrupt
            yield Fraction(k)
            k += 1

    ask = qcore.table(throwaway_stream)
    try:
        clear_tables()
        assert ask(CTX, 3) == [0, 1, 2]
        with pytest.raises(KeyboardInterrupt):
            ask(CTX, 10)
        assert ask(CTX, 10) == list(range(10)) and ask(CTX, 4) == list(range(4))
    finally:
        clear_tables()
        del qcore._counts[ask.__qualname__]  # or test_every_table_has_a_prefix_case sees an unasked table
