"""Polynomials in x = cos(theta) stored as symmetric Laurent coefficients.

A polynomial f of degree d is held as the coefficient list (c_0, ..., c_d)
of f(x) = c_0 + sum_{k>=1} c_k (z**k + z**-k) with x = (z + 1/z)/2.  This
representation is closed under the Askey-Wilson divided-difference operator,
which acts exactly on rational coefficients; the ladder checks and the change
to rho coordinates read its chain.

The divided-difference operator is implemented in the standard symmetric
form (f(q**(1/2) z) - f(q**(-1/2) z)) / (e(q**(1/2) z) - e(q**(-1/2) z));
on the basis element z**m + z**-m it multiplies by 2*q**((1-m)/2)*[m]_q and
spreads onto z**(m-1-2j), j = 0..m-1.

The coefficients psi_j rho_j of the q-exponential, as polynomials and as exact values at a
rational point, step by the integers of ``qcore._psi_rho_steps``, as the float terms do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .qcore import QContext, _psi_rho_steps, _psi_stream, over_common_den, psi_weights, table

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
    def _canonical(cls, nums: List[int], den: int) -> "SymPoly":
        """sum nums[i]/den e_i (den > 0) in canonical form."""
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums)
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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return lincomb(((self, 1), (_lift(other), 1)))

    __radd__ = __add__

    def __neg__(self):
        return SymPoly._of(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return lincomb(((self, 1), (_lift(other), -1)))

    def __rsub__(self, other):
        return lincomb(((_lift(other), 1), (self, -1)))

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


def _lift(c) -> SymPoly:
    """c as a SymPoly: a scalar is lifted by :meth:`SymPoly.const`."""
    return c if isinstance(c, SymPoly) else SymPoly.const(c)


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
def _hermite_table(s: Fraction) -> Iterator[SymPoly]:
    # H_n = L_n / psi_n by (q t**2; q**2)_inf E(x; t) = sum psi_n H_n(x|q) t**n: L_n = sum_j Q_{n-j} psi_j rho_j, where
    # Q_{2k} = (-1)**k q**(k**2) / (q**2; q**2)_k steps by -q**(2k-1) / (1 - q**(2k)), with q = a/b the one Fraction
    # -a**(2k-1) b / (b**(2k) - a**(2k)), and Q_odd = 0
    ctx, a, b = QContext(s), s.numerator ** 4, s.denominator ** 4
    qs = [Fraction(1)]  # Q_0, Q_2, ...
    for n, psi in enumerate(_psi_stream(s)):
        if n % 2 == 0 and n:
            qs.append(qs[-1] * Fraction(-a ** (n - 1) * b, b ** n - a ** n))
        yield psi_rho_sum(ctx, [qs[(n - j) // 2] if (n - j) % 2 == 0 else 0 for j in range(n + 1)]) / psi


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
    if family == "rho":
        return psi_rho_poly(ctx, n) / psi_weights(ctx, n + 1)[n]
    if family == "hermite":
        return _hermite_table(ctx.s, n + 1)[n]
    if family == "phi":
        if a is None:
            raise ValueError("family 'phi' requires the parameter a")
        return _aw_factorials(Fraction(a), ctx.q, n)[n]
    raise ValueError(f"unknown family {family!r}")


def _aw_factorials(a: Fraction, base: Fraction, n: int) -> List[SymPoly]:
    """[(a z, a/z; base)_0, ..., (a z, a/z; base)_n]: factor k is (1 - c z)(1 - c/z) = 1 + c**2 - c (z + 1/z)
    with c = a base**k."""
    out = [SymPoly._of((1,), 1)]
    for k in range(n):
        c = a * base ** k
        out.append(out[-1] * SymPoly([1 + c * c, -c]))
    return out


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
    """P_j = psi_j rho_j for j = parity, parity + 2, ...: P_0 = 1, P_1 = s/(1-q) (z + 1/z) and
    P_j = P_{j-2} (A_j + B_j x**2) / E_j by the steps of :func:`qcore._psi_rho_steps`, with
    x**2 = (z**2 + 2 + z**-2)/4 making the multiplier (4A_j + 2B_j + B_j (z**2 + z**-2)) / (4E_j)."""
    p = SymPoly([0, s / (1 - s ** 4)]) if parity else SymPoly._of((1,), 1)
    for A, B, E in islice(_psi_rho_steps(s), parity, None, 2):
        yield p
        p = p * SymPoly._canonical([4 * A + 2 * B, 0, B], 4 * E)


# -- evaluation ----------------------------------------------------------------


def _point(ctx: QContext, pt: PointLike) -> Fraction:
    """The rational x-value of a point: "zero", "eta" and "minus_eta" name 0, eta and -eta."""
    if isinstance(pt, str):
        if pt not in ("zero", "eta", "minus_eta"):
            raise ValueError(f"unknown special point {pt!r}")
        return Fraction(0) if pt == "zero" else ctx.eta if pt == "eta" else -ctx.eta
    return Fraction(pt)


def eval_at(ctx: QContext, p: SymPoly, pt: PointLike) -> Fraction:
    """Exact value of p at a rational x-value, or at a point named as in :func:`_point`.
    The sum runs on the integer numerators and is reduced once.
    """
    x = _point(ctx, pt)
    if x == 0:  # the commonest point, z = i: a sum of slices, with no recurrence
        return Fraction(_at_zero(p.nums), p.den)
    b, two_a = x.denominator, 2 * x.numerator
    # z + 1/z = 2a/b: z**k + z**-k = T_k / b**k with T_0 = 2, T_1 = 2a, T_k = 2a T_{k-1} - b**2 T_{k-2};
    # sum_k nums[k] T_k / b**k is summed over b**d by Horner
    total, cur, nxt, bb = p.nums[0], 2, two_a, b * b
    for c in p.nums[1:]:
        cur, nxt = nxt, two_a * nxt - bb * cur
        total = total * b + c * cur
    return Fraction(total, p.den * b ** p.degree)


def _at_zero(nums: Sequence[int]) -> int:
    """sum_k nums[k] e_k at x = 0, i.e. z = i, where e_k = z**k + z**-k is 2, 0, -2, 0 by k mod 4
    (and e_0 = 1)."""
    return nums[0] + 2 * (sum(nums[4::4]) - sum(nums[2::4]))


@table
def psi_rho_at_eta(ctx: QContext, n: int) -> Tuple[List[int], int]:
    """Integers e_j and one denominator D with psi_j rho_j(eta) = e_j / D for j < n.  They
    are sliced from one table per s, kept over the least common denominator of the
    longest prefix asked for so far; a longer prefix puts a longer prefix of
    :func:`_psi_rho_eta_values` over one denominator."""
    return over_common_den(_psi_rho_eta_values(ctx.s, n))


@table
def _psi_rho_eta_values(s: Fraction) -> Iterator[Fraction]:
    """psi_j rho_j(eta), each a reduced Fraction, in one stream per s that extends in place."""
    yield from _psi_rho_stream(s, QContext(s).eta)


def _psi_rho_stream(s: Fraction, y: Fraction) -> Iterator[Fraction]:
    """psi_0 rho_0(y), psi_1 rho_1(y), ... at rational y, by the steps of
    :func:`qcore._psi_rho_steps`: with y**2 = a/b the factor at j is (A_j b + B_j a) / (E_j b)."""
    a, b = (y * y).as_integer_ratio()
    u = [Fraction(1), 2 * y * s / (1 - s ** 4)]
    yield from u
    for j, (A, B, E) in enumerate(_psi_rho_steps(s), 2):
        u[j % 2] *= Fraction(A * b + B * a, E * b)
        yield u[j % 2]


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
    k > 0 give r_k = psi_k c**-k [D^k p](0), read off the D chain of :func:`_aw_chain`.
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


def q_translate(ctx: QContext, p: SymPoly, y: PointLike) -> SymPoly:
    """Translation operator E_q^y, exact for exactly evaluable y (``y`` as in :func:`eval_at`).

    Fixed by E_q^y E(x; w) = E(x; w) E(y; w) on the q-exponential E(x; w) =
    sum_n psi_n rho_n(x) w**n, psi_n = q**(n**2/4)/(q;q)_n, and extended by linearity.
    D rho_n = c psi_{n-1}/psi_n rho_{n-1} (c = ``ctx.aw_scale``) gives D E(x; w) = c w E(x; w),
    so the q-Taylor series sum_k psi_k rho_k(y) c**-k D**k (Ismail and Stanton, J. Approx.
    Theory 123, 2003) multiplies E(x; w) by E(y; w): it is E_q^y, and stops at k = deg p.
    """
    inv_c = 1 / ctx.aw_scale
    weights = (v * inv_c ** k for k, v in enumerate(_psi_rho_stream(ctx.s, _point(ctx, y))))
    return lincomb(zip(_aw_chain(ctx, p), weights))
