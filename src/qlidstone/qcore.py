"""Exact scalar arithmetic for basic q-series work.

Everything downstream is parameterized by a rational number ``s`` in (0, 1)
playing the role of the fourth root of the base ``q``.  Keeping ``s``
rational makes every derived constant -- q = s**4, sqrt(q) = s**2, the
two-point node eta = (s + 1/s)/2, and the derivative scale factors -- an
exact :class:`fractions.Fraction`, so polynomial identities can be checked
bit for bit instead of to a tolerance.

Floating point enters only through :func:`q_pochhammer_inf`, which
truncates an infinite product under an explicit tail bound.

Every table that depends on one parameter alone is memoized in one bounded store,
:class:`table`, that keeps, extends and slices prefixes and counts hits and misses.
"""

from __future__ import annotations

import inspect
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, update_wrapper
from itertools import islice
from operator import mul
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

Rational = Union[Fraction, int]


class IntegrityError(RuntimeError):
    """Two supposedly equivalent construction routes disagreed, or a
    construction-time verification failed: a bug, never caught."""


class LimitError(RuntimeError):
    """A numeric loop reached its bound, or left the float range, without a certified answer."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class QContext:
    """The base parameter ``s`` = q**(1/4); all other constants are derived
    from it exactly.  Caches keyed on a context are therefore keyed on s.
    """

    s: Fraction

    def __post_init__(self):
        s = _as_fraction(self.s)
        if not (0 < s < 1):
            raise ValueError(f"s must lie in (0, 1), got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def from_q(cls, q: Fraction) -> "QContext":
        """Build a context from q itself; q must be a rational fourth power."""
        q = _as_fraction(q)
        if not (0 < q < 1):
            raise ValueError(f"q must lie in (0, 1), got {q}")
        num = _iroot4(q.numerator)
        den = _iroot4(q.denominator)
        if num is None or den is None:
            raise ValueError(f"q = {q} is not the fourth power of a rational")
        return cls(Fraction(num, den))

    @property
    def q(self) -> Fraction:
        return self.s ** 4

    @property
    def sqrt_q(self) -> Fraction:
        return self.s ** 2

    @cached_property
    def eta(self) -> Fraction:
        """The second interpolation node, (q**(1/4) + q**(-1/4))/2, kept once read."""
        return (self.s + 1 / self.s) / 2

    @property
    def aw_scale(self) -> Fraction:
        """Eigenvalue scale 2q**(1/4)/(1-q) of the divided-difference ladder."""
        return 2 * self.s / (1 - self.s ** 4)


def _iroot4(n: int):
    """Exact integer fourth root of n, or None if n is not a fourth power."""
    if n < 0:
        return None
    r = math.isqrt(math.isqrt(n))
    return r if r ** 4 == n else None


def q_number(n: int, base: Rational) -> Fraction:
    """[n] = (1 - base**n)/(1 - base); equals n when base is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = _as_fraction(base)
    if base == 1:
        return Fraction(n)
    return (1 - base ** n) / (1 - base)


def q_factorials(n: int, base: Rational) -> list:
    """[[0]!, ..., [n]!] by one running product; base 1 gives the ordinary factorials.  With
    base = bn/bd, [k] = N_k / bd**(k-1) with N_k = N_{k-1} bd + bn**(k-1), already reduced, and
    each factor is one Fraction of integers."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    bn, bd = _as_fraction(base).as_integer_ratio()
    out = [Fraction(1)]
    num, den, bk = 0, 1, 1  # N_{k-1}, bd**(k-1) and bn**(k-1)
    for _ in range(n):
        num = num * bd + bk
        out.append(out[-1] * Fraction(num, den))
        den, bk = den * bd, bk * bn
    return out


def q_pochhammers(a: Rational, base: Rational, n: int) -> list:
    """[(a; base)_0, ..., (a; base)_n], (a; base)_n = prod_{k<n} (1 - a base**k), by one
    running product whose factor k is the one Fraction (ad bd**k - an bn**k) / (ad bd**k),
    with a = an/ad and base = bn/bd."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    an, ad = _as_fraction(a).as_integer_ratio()
    bn, bd = _as_fraction(base).as_integer_ratio()
    out = [Fraction(1)]
    for _ in range(n):
        out.append(out[-1] * Fraction(ad - an, ad))
        an, ad = an * bn, ad * bd
    return out


# -- the table store --------------------------------------------------------------

MAX_TABLES = 1024  # parameters held; a benchmark lap touches up to 402, and an LRU smaller than its cycle never hits
TableInfo = namedtuple("TableInfo", "hits misses maxsize currsize")
_store: "OrderedDict[object, dict]" = OrderedDict()  # parameter -> {(table name, *key): table}, least recent first
_counts: dict = {}  # table name -> [hits, misses]


def clear_tables() -> None:
    _store.clear()
    for count in _counts.values():
        count[:] = 0, 0


def _key(param):
    """A QContext's s, and a Fraction as its integer pair, which hashes far faster."""
    param = param.s if isinstance(param, QContext) else param
    return (param.numerator, param.denominator) if isinstance(param, Fraction) else param


class table:
    """Decorator keeping fn(param, *key, n) in the store, an LRU of per-parameter dicts, under
    fn's name and ``key``.  The value at n is a prefix of that at any larger n, so one rule
    serves every table: keep the longest prefix asked for, extend it when a longer one is
    asked, return a prefix.  A generator function fn(param, *key) is a stream, extended in
    place, answered by a fresh list of its first n entries; any other fn is rebuilt at the
    larger n and :func:`_cut`.  With ``ordered=False`` there is no n and the parameter comes
    last, fn(*key, param).  A call that raises stores nothing."""

    def __init__(self, fn: Callable, ordered: bool = True):
        update_wrapper(self, fn)
        self.ordered, self.stream = ordered, inspect.isgeneratorfunction(fn)
        self.counts = _counts.setdefault(self.__qualname__, [0, 0])

    def __call__(self, *args):
        param, *key, n = args if self.ordered else (args[-1], *args[:-1], 0)
        p = _key(param)
        tables = _store[p] = _store.pop(p) if p in _store else {}  # now the most recently used
        if len(_store) > MAX_TABLES:
            _store.popitem(last=False)
        slot = (self.__qualname__, *key)
        held = tables.get(slot)
        if self.stream:
            entries, stream = held or ([], self.__wrapped__(*args[:-1]))
            hit = len(entries) >= n
            if not hit:  # held out of the store while it extends: a stream that raised is dead, its prefix short
                tables.pop(slot, None)
                entries.extend(islice(stream, n - len(entries)))
                tables[slot] = entries, stream
            value = entries[:n]
        else:
            hit = held is not None and held[0] >= n
            if not hit:
                held = tables[slot] = (n, self.__wrapped__(*args))
            value = _cut(held[1], held[0] - n)
        self.counts[not hit] += 1
        return value

    def cache_info(self) -> TableInfo:
        """Hits and misses of this table, the bound, and the number of parameters held."""
        return TableInfo(*self.counts, MAX_TABLES, len(_store))


def _cut(value, drop: int):
    """``value`` short of its last ``drop`` entries: a list by a fresh slice, a tuple entry by
    entry, a Series by ``truncate``; anything else whole."""
    if isinstance(value, tuple):
        return tuple(_cut(v, drop) for v in value)
    if isinstance(value, list):
        return value[:len(value) - drop]
    return value.truncate(value.order - drop) if drop and hasattr(value, "truncate") else value


def psi_weights(ctx: QContext, n: int) -> list:
    """[psi_0, ..., psi_{n-1}], a fresh list from one table per s (see :func:`_psi_stream`)."""
    return _psi_table(ctx.s, n)


def _psi_stream(s: Fraction) -> Iterator[Fraction]:
    """psi_0, psi_1, ... in closed integer form: with s = sn/sd,
    psi_k = sn**(k**2) sd**(k**2+2k) / P_k, P_k = prod_{i<=k} (sd**(4i) - sn**(4i)).
    Each factor of P_k is prime to sn and to sd, so the quotient is already reduced."""
    sn, sd = s.numerator, s.denominator
    a, b, t = sn ** 4, sd ** 4, (sn * sd) ** 2
    num = den = ai = bi = 1
    step = sn * sd ** 3  # sn**(2k-1) sd**(2k+1) at k = 1
    yield Fraction(1)
    while True:
        ai, bi = ai * a, bi * b
        num, den, step = num * step, den * (bi - ai), step * t
        yield Fraction(num, den)


_psi_table = table(_psi_stream)


def _psi_rho_steps(s: Fraction) -> Iterator[Tuple[int, int, int]]:
    """Integers (A_j, B_j, E_j), j >= 2, with psi_j rho_j(x) = psi_{j-2} rho_{j-2}(x) (A_j + B_j x**2) / E_j:
    with q = Q/D and e_k = D**k - Q**k, A_j = Q D**2 e_{j-2}**2, B_j = 4 Q**(j-1) D**j and E_j = e_j e_{j-1}.
    The one step that the polynomial, exact and float psi_j rho_j all read."""
    Q, D = s.numerator ** 4, s.denominator ** 4
    qk, dk, e0, e1 = Q, D, 0, D - Q  # Q**(j-1), D**(j-1), e_{j-2}, e_{j-1}
    while True:
        ej = dk * D - qk * Q
        yield Q * D * D * e0 ** 2, 4 * qk * dk * D, ej * e1
        qk, dk, e0, e1 = qk * Q, dk * D, e1, ej


def over_common_den(values: Iterable) -> Tuple[List[int], int]:
    """Integers n_i and the least positive L with values[i] == n_i / L, for
    ints and Fractions."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _dot(pairs) -> Fraction:
    """sum of a * b over pairs of ints and Fractions: each product with no zero factor as an
    integer (numerator, denominator) pair, summed over the lcm of the denominators and reduced
    once; Fraction(0) when no product is left."""
    products = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs if a and b]
    den = math.lcm(*(d for _, d in products))
    return Fraction(sum(n * (den // d) for n, d in products), den)


def translate_coeffs(coeffs: Sequence, weights: Sequence, values: Sequence) -> Tuple[Fraction, ...]:
    """out_k = w_k sum_j (c_{k+j}/w_{k+j}) w_j v_j for every k < len(coeffs): the coefficients
    of a translate on a basis b_n whose generating function sum_n w_n b_n t**n the
    translation multiplies by sum_n w_n v_n t**n; c are those of f.

    u_j = c_j/w_j and e_j = w_j v_j are each put over one common denominator
    and correlated by :func:`correlate`."""
    u, du = over_common_den(Fraction(c) / w for c, w in zip(coeffs, weights))
    e, de = over_common_den(w * v for w, v in zip(weights, values))
    if len(e) < len(u):
        raise ValueError(f"{len(u)} coefficients need as many weights and values, got {len(e)}")
    return correlate(u, e, du * de, enumerate(weights[:len(u)]))


def correlate(u: Sequence[int], e: Sequence[int], den: int,
              scales: Iterable[Tuple[int, Rational]]) -> Tuple[Fraction, ...]:
    """a sum_j u_{k+j} e_j / den for each pair (k, a) of ``scales``: every entry is one
    integer dot product, reduced once."""
    return tuple(Fraction(a.numerator * sum(map(mul, u[k:], e)), a.denominator * den) for k, a in scales)


_MAX_FACTORS = 1_000_000


def q_pochhammer_inf(a: float, base: float, tol: float = 1e-12) -> Tuple[float, int]:
    """Truncated infinite product (a; base)_inf with a certified tail bound.

    Returns ``(value, n_factors)`` where ``n_factors`` is chosen so that the
    logarithmic tail sum_{k>=N} |a| base**k / (1 - |a| base**k) stays below
    ``tol``.  Raises ZeroDivisionError if some factor vanishes (a pole of
    the reciprocal product) and LimitError past 10**6 factors.
    """
    if not abs(base) < 1:
        raise ValueError(f"|base| must be < 1, got {base}")
    if a == 0.0:
        return 1.0, 0
    absa = abs(a)
    b = abs(base)

    def tail_ok(n):
        # sum_{k>=n} |a| b**k / (1 - |a| b**k) <= |a| b**n / ((1-b)(1 - |a| b**n)), valid once |a| b**n < 1
        head = absa * b ** n
        return head < 1 and head / ((1 - b) * (1 - head)) < tol

    # the bound is below tol exactly when |a| b**n < t = tol (1-b) / (1 + tol (1-b)); start
    # from the n that logarithms give and step to the least n >= 1 that passes
    try:
        t = 1 / (1 + 1 / (tol * (1 - b)))
        n = math.ceil((math.log(t) - math.log(absa)) / math.log(b))
    except (ValueError, ZeroDivisionError, OverflowError):  # b = 0, tol <= 0 or a not finite
        n = 1
    n = min(max(n, 1), _MAX_FACTORS)
    while not tail_ok(n):
        n += 1
        if n > _MAX_FACTORS:
            raise LimitError(f"tail bound did not converge: (a; base)_inf at a = {a!r}, base = {base!r} "
                             f"needs more than {_MAX_FACTORS} factors")
    while n > 1 and tail_ok(n - 1):
        n -= 1
    value = 1.0
    p = 1.0
    for _ in range(n):
        factor = 1.0 - a * p
        if factor == 0.0:
            raise ZeroDivisionError(f"(a; base)_inf has a vanishing factor, a={a}, base={base}")
        value *= factor
        p *= base
    return value, n


def safe_float(x) -> float:
    """Fraction/int/float to float without the OverflowError that plain
    float() raises when numerator or denominator exceed the float range;
    out-of-range magnitudes saturate to +-inf / 0.0."""
    if isinstance(x, float):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    try:
        return n / d  # correctly rounded, so it overflows only where the rounded quotient is +-inf
    except OverflowError:
        return math.inf if n > 0 else -math.inf
