"""Polynomials in x = cos(theta) stored as symmetric Laurent coefficients.

A polynomial f of degree d is held as the coefficient list (c_0, ..., c_d)
of f(x) = c_0 + sum_{k>=1} c_k (z**k + z**-k) with x = (z + 1/z)/2.  This
representation is closed under the Askey-Wilson divided-difference operator
and under the q-translation operator, and both act exactly on rational
coefficients, which is what the identity suites rely on.

The divided-difference operator is implemented in the standard symmetric
form (f(q**(1/2) z) - f(q**(-1/2) z)) / (e(q**(1/2) z) - e(q**(-1/2) z));
on the basis element z**m + z**-m it multiplies by 2*q**((1-m)/2)*[m]_q and
spreads onto z**(m-1-2j), j = 0..m-1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .qcore import QContext, _psi_stream, over_common_den, psi_weights, q_pochhammers, table

PointLike = Union[str, Fraction, int]


class SymPoly:
    """Immutable symmetric-Laurent polynomial; arithmetic is exact.

    The coefficients are stored as integer numerators ``nums`` over one
    positive denominator ``den``, in canonical form: gcd(den, *nums) == 1,
    no trailing zero numerator, and zero as ((0,), 1).  Equal polynomials
    therefore have equal stores, and every operation works on the integers
    and reduces its result once.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        nums, den = over_common_den(coeffs)
        # over the least common denominator of reduced fractions the gcd is already 1
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        self.nums = tuple(nums) if nums else (0,)
        self.den = den

    @classmethod
    def _canonical(cls, nums: List[int], den: int, bound: Optional[int] = None) -> "SymPoly":
        """sum nums[i]/den e_i (den > 0) in canonical form.  ``bound``, when
        given, is a number with gcd(bound, *nums) == gcd(den, *nums)."""
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        g = gcd(den if bound is None else bound, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        return cls._of(tuple(nums), den)

    @classmethod
    def _of(cls, nums: Tuple[int, ...], den: int) -> "SymPoly":
        """A SymPoly on a store already in canonical form."""
        p = object.__new__(cls)
        p.nums = nums
        p.den = den
        return p

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "SymPoly":
        return cls._of((0,), 1)

    @classmethod
    def const(cls, c) -> "SymPoly":
        return cls([c])

    @classmethod
    def from_monomial(cls, mono: Sequence) -> "SymPoly":
        """Build from monomial coefficients (a_0, ..., a_d) of sum a_n x**n."""
        a, den = over_common_den(mono)
        if not a:
            return cls.zero()
        d = len(a) - 1
        # x**n = 2**-n sum_k C(n, k) z**(n-2k); everything over den * 2**d
        out = [0] * (d + 1)
        for n, an in enumerate(a):
            if an == 0:
                continue
            an <<= d - n
            for k in range(n // 2 + 1):
                # when n - 2k == 0 the central binomial term lands on the constant once
                out[n - 2 * k] += an * comb(n, k)
        return cls._canonical(out, den << d)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on each access."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return self.nums == (0,)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_constant(self) -> bool:
        return len(self.nums) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        g = gcd(da, db)
        if g != da:
            b = [x * (da // g) for x in b]
        if g != db:
            a = [x * (db // g) for x in a]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        # the sum over lcm(da, db) can only share factors of g with its numerators (Knuth 4.5.1)
        return SymPoly._canonical(out, da // g * db, g)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly._of(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return SymPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, SymPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return SymPoly.zero()
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                term = ca * cb
                out[i + j] += term
                if i and j:
                    out[abs(i - j)] += 2 * term if i == j else term
        # out is the Laurent product's coefficient list, whose content is the product of the
        # contents (Gauss); each content is prime to its own denominator
        g = gcd(self.den, *b) * gcd(other.den, *a)
        if g != 1:
            out = [n // g for n in out]
        return SymPoly._of(tuple(out), self.den * other.den // g)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        n, d = scalar.numerator, scalar.denominator
        if n == 0:
            raise ZeroDivisionError("SymPoly division by zero")
        return self._scaled(d, n) if n > 0 else self._scaled(-d, -n)

    def _scaled(self, n: int, d: int) -> "SymPoly":
        """self * n/d for coprime n and d > 0."""
        if n == 0:
            return SymPoly.zero()
        g1 = gcd(self.den, n)
        g2 = gcd(d, *self.nums)
        n //= g1
        nums = self.nums if g2 == 1 else [x // g2 for x in self.nums]
        return SymPoly._of(tuple(x * n for x in nums), self.den // g1 * (d // g2))

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self.den == other.denominator and self.nums == (other.numerator,)
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"SymPoly({list(self.coeffs)!r})"

    # -- transforms ----------------------------------------------------------

    def reflect(self) -> "SymPoly":
        """x -> -x, i.e. z -> -z: flips the sign of odd-index coefficients."""
        return SymPoly._of(tuple(-n if k % 2 else n for k, n in enumerate(self.nums)), self.den)

    def to_monomial(self) -> Tuple[Fraction, ...]:
        """Monomial coefficients (a_0, ..., a_d) of the same polynomial."""
        d = self.degree
        # E_k = monomial form of z**k + z**-k: E_0 = 2, E_1 = 2x,
        # E_{k+1} = 2x E_k - E_{k-1}.  The constant basis element here is 1.
        out = [0] * (d + 1)
        out[0] += self.nums[0]
        if d >= 1:
            prev = [2]     # E_0
            cur = [0, 2]   # E_1
            for k in range(1, d + 1):
                ck = self.nums[k]
                if ck != 0:
                    for i, e in enumerate(cur):
                        out[i] += ck * e
                if k < d:
                    nxt = [0] * (len(cur) + 1)
                    for i, e in enumerate(cur):
                        nxt[i + 1] += 2 * e
                    for i, e in enumerate(prev):
                        nxt[i] -= e
                    prev, cur = cur, nxt
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(Fraction(n, self.den) for n in out)


def lincomb(terms) -> SymPoly:
    """sum of a * p over the pairs (p, a) of SymPolys and rationals, over one
    common denominator and reduced once."""
    terms = [(p, a) for p, a in terms if a and p]
    if not terms:
        return SymPoly.zero()
    den = lcm(*(p.den * a.denominator for p, a in terms))
    out = [0] * max(len(p.nums) for p, _ in terms)
    for p, a in terms:
        m = a.numerator * (den // (p.den * a.denominator))
        for i, n in enumerate(p.nums):
            out[i] += n * m
    return SymPoly._canonical(out, den)


# -- special families ---------------------------------------------------------


@table
def _rho_table(s: Fraction) -> Iterator[SymPoly]:
    # rho_j = (psi_j rho_j) / psi_j: one recurrence, that of psi_rho_poly
    ctx = QContext(s)
    for j, psi in enumerate(_psi_stream(s)):
        yield psi_rho_poly(ctx, j) / psi


@table
def _hermite_table(s: Fraction) -> Iterator[SymPoly]:
    # H_n = sum_k (q;q)_n / ((q;q)_k (q;q)_{n-k}) e_{n-2k}
    for n in count():
        qq, out = q_pochhammers(s ** 4, s ** 4, n), [Fraction(0)] * (n + 1)
        for k in range(n // 2 + 1):
            out[n - 2 * k] += qq[n] / (qq[k] * qq[n - k])  # when n - 2k == 0 the middle term is counted once
        yield SymPoly(out)


def special_poly(ctx: QContext, family: str, n: int, a: Fraction = None) -> SymPoly:
    """Exact degree-n member of one of the built-in families.

    ``monomial``: x**n.  ``rho``: the divided-difference ladder basis,
    psi_n rho_n / psi_n.  ``hermite``: continuous q-Hermite H_n(x|q).  ``phi``: the shifted
    product (a e^{i theta}, a e^{-i theta}; q)_n, requires ``a``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family == "monomial":
        return SymPoly.from_monomial([0] * n + [1])
    if family in ("rho", "hermite"):
        return (_rho_table if family == "rho" else _hermite_table)(ctx.s, n + 1)[n]
    if family == "phi":
        if a is None:
            raise ValueError("family 'phi' requires the parameter a")
        a = Fraction(a)
        q = ctx.q
        out = SymPoly.const(1)
        for k in range(n):
            c = a * q ** k
            out = out * SymPoly([1 + c * c, -c])
        return out
    raise ValueError(f"unknown family {family!r}")


def psi_rho_polys(ctx: QContext, n: int) -> List[SymPoly]:
    """[psi_0 rho_0, ..., psi_{n-1} rho_{n-1}], the coefficients of the q-exponential
    E(x; w) = sum_j psi_j rho_j(x) w**j (see :func:`psi_rho_poly`)."""
    chains = _psi_rho_chain(ctx.s, 0, (n + 1) // 2), _psi_rho_chain(ctx.s, 1, n // 2)
    return [chains[j % 2][j // 2] for j in range(n)]


def psi_rho_sum(ctx: QContext, coeffs: Sequence) -> SymPoly:
    """sum_j a_j psi_j rho_j for coeffs a_j, over one common denominator and reduced once;
    each parity chain of :func:`psi_rho_poly` is read once, as far as its last a_j != 0."""
    terms = [(j, a) for j, a in enumerate(coeffs) if a]
    last = {j % 2: j for j, _ in terms}  # the last j of each parity
    chains = {p: _psi_rho_chain(ctx.s, p, j // 2 + 1) for p, j in last.items()}
    return lincomb((chains[j % 2][j // 2], a) for j, a in terms)


def psi_rho_poly(ctx: QContext, j: int) -> SymPoly:
    """psi_j rho_j, psi_j = q**(j**2/4)/(q;q)_j, from one table per s that holds the even
    and the odd j apart, each extended only as far as asked (see :func:`_psi_rho_chain`)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _psi_rho_chain(ctx.s, j % 2, j // 2 + 1)[-1]


@table
def _psi_rho_chain(s: Fraction, parity: int) -> Iterator[SymPoly]:
    """P_j = psi_j rho_j for j = parity, parity + 2, ...: P_0 = 1, P_1 = s/(1-q) (z + 1/z), and
    the recurrence of :func:`special_poly` with psi folded in gives P_j = P_{j-2} times the
    multiplier (psi_j/psi_{j-2}) (q**(j-2) + q**(2-j) + z**2 + z**-2): with s = sn/sd, a = sn**4,
    b = sd**4 and m = j - 2 it is the integer polynomial
    sn**4 sd**8 (a**(2m) + b**(2m) + (a b)**m (z**2 + z**-2)) over (b**(m+1) - a**(m+1)) (b**(m+2) - a**(m+2))."""
    sn, sd = s.numerator, s.denominator
    a, b = sn ** 4, sd ** 4
    lead = a * sd ** 8
    p = SymPoly([0, s / (1 - s ** 4)]) if parity else SymPoly._of((1,), 1)
    for m in count(parity, 2):
        yield p
        am, bm = a ** m, b ** m
        p = p * SymPoly._canonical([lead * (am * am + bm * bm), 0, lead * am * bm],
                                   (bm * b - am * a) * (bm * b * b - am * a * a))


# -- evaluation ----------------------------------------------------------------


def eval_at(ctx: QContext, p: SymPoly, pt: PointLike) -> Fraction:
    """Exact value of p at a special point.

    ``pt`` is one of "zero", "eta", "minus_eta", or a rational x-value.
    The sum runs on the integer numerators and is reduced once.
    """
    nums, d = p.nums, p.degree
    if isinstance(pt, str):
        if pt == "zero":
            return Fraction(_at_zero(nums), p.den)
        if pt not in ("eta", "minus_eta"):
            raise ValueError(f"unknown special point {pt!r}")
        # z = +-s: z**k + z**-k = (u**k + v**k) / step**k with u = sn**2, v = sd**2, step = +-sn sd
        sn, sd = ctx.s.numerator, ctx.s.denominator
        u, v, step = sn * sn, sd * sd, (-sn if pt == "minus_eta" else sn) * sd
        terms = [nums[0]]
        uk = vk = 1
        for k in range(1, d + 1):
            uk *= u
            vk *= v
            terms.append(nums[k] * (uk + vk))
    else:
        # z + 1/z = 2a/b: z**k + z**-k = T_k / b**k with T_0 = 2, T_1 = 2a,
        # T_k = 2a T_{k-1} - b**2 T_{k-2}
        x = Fraction(pt)
        a, step = x.numerator, x.denominator
        terms = [nums[0]]
        prev, cur = 2, 2 * a
        for k in range(1, d + 1):
            if k > 1:
                prev, cur = cur, 2 * a * cur - step * step * prev
            terms.append(nums[k] * cur)
    # sum_k terms[k] / step**k, over step**d by Horner
    total = 0
    for c in terms:
        total = total * step + c
    return Fraction(total, p.den * step ** d)


def _at_zero(nums: Sequence[int]) -> int:
    """sum_k nums[k] e_k at x = 0, i.e. z = i, where e_k = z**k + z**-k is 2, 0, -2, 0 by k mod 4
    (and e_0 = 1)."""
    return nums[0] + 2 * (sum(nums[4::4]) - sum(nums[2::4]))


def rho_values(ctx: QContext, y: PointLike, n: int) -> list:
    """[rho_0(y), ..., rho_{n-1}(y)] by the recurrence of :func:`_rho_stream`; ``y`` as in
    :func:`eval_at`.  rho_j(-eta) = (-1)**j rho_j(eta) and rho_j(0) = 0 for j > 0."""
    if isinstance(y, str):
        if y == "zero":
            return [Fraction(1)] + [Fraction(0)] * (n - 1) if n else []
        if y not in ("eta", "minus_eta"):
            raise ValueError(f"unknown special point {y!r}")
        values = list(islice(_rho_stream(ctx.s, ctx.s + 1 / ctx.s), n))
        return values if y == "eta" else [-v if j % 2 else v for j, v in enumerate(values)]
    return list(islice(_rho_stream(ctx.s, 2 * Fraction(y)), n))


@table
def psi_rho_at_eta(ctx: QContext, n: int) -> Tuple[List[int], int]:
    """Integers e_j and one denominator D with psi_j rho_j(eta) = e_j / D for j < n.  They
    are sliced from one table per s, kept over the least common denominator of the
    longest prefix asked for so far; a longer prefix rebuilds it."""
    return over_common_den(map(mul, psi_weights(ctx, n), rho_values(ctx, "eta", n)))


def _rho_stream(s: Fraction, two_y: Fraction) -> Iterator[Fraction]:
    """rho_0(y), rho_1(y), ... by rho_j(y) = rho_{j-2}(y) (q**(j-2) + q**(2-j) + 4y**2 - 2),
    the recurrence of :func:`special_poly` at z + 1/z = 2y, on integer numerators: with
    s = sn/sd, t = sn sd and 2y = a/b, the factor at j = m + 2 is
    (b**2 (sn**(8m) + sd**(8m)) + (a**2 - 2b**2) t**(4m)) / (b**2 t**(4m)).
    Each value is reduced once."""
    a, b = two_y.numerator, two_y.denominator
    sn, sd = s.numerator, s.denominator
    bb, shift = b * b, a * a - 2 * b * b
    sn8, sd8, t4 = sn ** 8, sd ** 8, (sn * sd) ** 4
    yield Fraction(1)
    yield two_y
    (n0, d0), (n1, d1) = (1, 1), (a, b)  # rho_{j-2} and rho_{j-1} as numerator, denominator
    p8 = d8 = t4m = 1  # sn**(8m), sd**(8m), t**(4m)
    while True:
        (n0, d0), (n1, d1) = (n1, d1), (n0 * (bb * (p8 + d8) + shift * t4m), d0 * bb * t4m)
        yield Fraction(n1, d1)
        p8, d8, t4m = p8 * sn8, d8 * sd8, t4m * t4


# -- the divided-difference operator -------------------------------------------


def aw_derivative(ctx: QContext, p: SymPoly, k: int = 1) -> SymPoly:
    """Apply the Askey-Wilson divided-difference operator k times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(islice(_aw_chain(ctx, p), k, None), SymPoly.zero())


def _aw_chain(ctx: QContext, p: SymPoly) -> Iterator[SymPoly]:
    """p, D p, ..., D**d p for p of degree d; D**(d+1) p is 0."""
    yield p
    d = p.degree
    if d == 0:
        return
    # element m scales by 2 q**((1-m)/2) [m]_q = 2 P_m / t**(m-1) with t = (sn sd)**2 and
    # P_m = sum_{k<m} sn**(4k) sd**(4(m-1-k)), P_{m+1} = P_m sd**4 + sn**(4m)
    sn, sd = ctx.s.numerator, ctx.s.denominator
    a, b, t = sn ** 4, sd ** 4, (sn * sd) ** 2
    two_p, tpow, am = [0, 2], [1], a  # 2 P_m, t**m and a**m
    for _ in range(d - 1):
        two_p.append(two_p[-1] * b + 2 * am)
        tpow.append(tpow[-1] * t)
        am *= a
    while d:
        # over t**(d-1), element m spreads over e_{m-1}, e_{m-3}, ...; odd m ends on the
        # constant (once), so out[i] = (the scaled element m = i + 1) + out[i + 2]
        nums = p.nums
        out = [0] * (d + 2)
        for i in range(d - 1, -1, -1):
            out[i] = nums[i + 1] * two_p[i + 1] * tpow[d - 1 - i] + out[i + 2]
        p = SymPoly._canonical(out[:d], p.den * tpow[d - 1])
        yield p
        d -= 1


# -- basis conversion -----------------------------------------------------------


def change_basis(ctx: QContext, p: SymPoly) -> Tuple[Fraction, ...]:
    """Rho coefficients (r_0, ..., r_d) with p = sum r_k rho_k, by the q-Taylor identity
    at 0: D rho_n = c psi_{n-1}/psi_n rho_{n-1} (c = ``ctx.aw_scale``) and rho_k(0) = 0 for
    k > 0 give r_k = psi_k c**-k [D^k p](0), read off the D chain of :func:`q_translate`.
    With s = sn/sd, a = sn**4 and b = sd**4, psi_k c**-k is the integer pair
    (sn sd)**(k**2-k) (b-a)**k over 2**k prod_{i<=k} (b**i - a**i), kept as running
    products; each r_k is reduced once."""
    sn, sd = ctx.s.numerator, ctx.s.denominator
    a, b, t = sn ** 4, sd ** 4, (sn * sd) ** 2
    out = []
    num = den = ai = bi = 1
    step = b - a  # (sn sd)**(2k-2) (b - a) at k = 1
    for k, dk in enumerate(_aw_chain(ctx, p)):
        if k:
            ai, bi = ai * a, bi * b
            num, den, step = num * step, 2 * den * (bi - ai), step * t
        out.append(Fraction(num * _at_zero(dk.nums), den * dk.den))
    return tuple(out)


# -- q-translation ---------------------------------------------------------------


def translate_weights(ctx: QContext, y: PointLike, n: int) -> list:
    """[w_0, ..., w_{n-1}], w_k = psi_k rho_k(y) / c**k with c = ``ctx.aw_scale``; ``y`` as in
    :func:`eval_at`.  At eta they are sliced from one table per s, at -eta read off it."""
    if y in ("eta", "minus_eta"):
        weights = _eta_weights(ctx.s, n)
        return weights if y == "eta" else [-w if k % 2 else w for k, w in enumerate(weights)]
    return list(_weight_stream(ctx.s, rho_values(ctx, y, n)))


@table
def _eta_weights(s: Fraction) -> Iterator[Fraction]:
    yield from _weight_stream(s, _rho_stream(s, s + 1 / s))


def _weight_stream(s: Fraction, rhos: Iterable[Fraction]) -> Iterator[Fraction]:
    inv_c = (1 - s ** 4) / (2 * s)
    return (psi * rho * inv_c ** k for k, (psi, rho) in enumerate(zip(_psi_stream(s), rhos)))


def q_translate(ctx: QContext, p: SymPoly, y: PointLike) -> SymPoly:
    """Translation operator E_q^y, exact for exactly evaluable y.

    Fixed by E_q^y E(x; w) = E(x; w) E(y; w) on the q-exponential E(x; w) =
    sum_n psi_n rho_n(x) w**n, psi_n = q**(n**2/4)/(q;q)_n, and extended by linearity.
    D rho_n = c psi_{n-1}/psi_n rho_{n-1} (c = ``ctx.aw_scale``) gives D E(x; w) = c w E(x; w),
    so the q-Taylor series sum_k psi_k rho_k(y) c**-k D**k (Ismail and Stanton, J. Approx.
    Theory 123, 2003) multiplies E(x; w) by E(y; w): it is E_q^y, and stops at k = deg p.
    """
    if y == "zero":
        return p
    return lincomb(zip(_aw_chain(ctx, p), translate_weights(ctx, y, p.degree + 1)))
