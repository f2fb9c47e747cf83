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
from functools import lru_cache
from math import comb
from typing import Sequence, Tuple, Union

from .qcore import QContext, q_binomial, q_number, q_pochhammer, safe_float

PointLike = Union[str, Fraction, int]

_EK_AT_I = (2, 0, -2, 0)  # (z**k + z**-k) at z = i, indexed by k mod 4


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class SymPoly:
    """Immutable symmetric-Laurent polynomial; arithmetic is exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_coerce(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "SymPoly":
        return cls([0])

    @classmethod
    def const(cls, c) -> "SymPoly":
        return cls([c])

    @classmethod
    def from_monomial(cls, mono: Sequence) -> "SymPoly":
        """Build from monomial coefficients (a_0, ..., a_d) of sum a_n x**n."""
        out = [Fraction(0)] * len(mono)
        for n, a in enumerate(mono):
            a = _coerce(a)
            if a == 0:
                continue
            scale = Fraction(1, 2 ** n)
            for k in range(n // 2 + 1):
                idx = n - 2 * k
                # when idx == 0 the central binomial term lands on the constant once
                out[idx] += a * comb(n, k) * scale
        return cls(out)

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return SymPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            other = _coerce(other)
            return SymPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
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
        return SymPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _coerce(scalar)
        return SymPoly([c / scalar for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"SymPoly({list(self.coeffs)!r})"

    # -- transforms ----------------------------------------------------------

    def reflect(self) -> "SymPoly":
        """x -> -x, i.e. z -> -z: flips the sign of odd-index coefficients."""
        return SymPoly([(-c if k % 2 else c) for k, c in enumerate(self.coeffs)])

    def to_monomial(self) -> Tuple:
        """Monomial coefficients (a_0, ..., a_d) of the same polynomial."""
        d = self.degree
        # E_k = monomial form of z**k + z**-k: E_0 = 2, E_1 = 2x,
        # E_{k+1} = 2x E_k - E_{k-1}.  The constant basis element here is 1.
        out = [Fraction(0)] * (d + 1)
        out[0] += self.coeffs[0]
        if d >= 1:
            prev = [Fraction(2)]            # E_0
            cur = [Fraction(0), Fraction(2)]  # E_1
            for k in range(1, d + 1):
                ck = self.coeffs[k]
                if ck != 0:
                    for i, e in enumerate(cur):
                        out[i] += ck * e
                if k < d:
                    nxt = [Fraction(0)] * (len(cur) + 1)
                    for i, e in enumerate(cur):
                        nxt[i + 1] += 2 * e
                    for i, e in enumerate(prev):
                        nxt[i] -= e
                    prev, cur = cur, nxt
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)


# -- special families ---------------------------------------------------------


def _laurent_to_sym(lo: int, coeffs: Sequence[Fraction]) -> SymPoly:
    """Convert a plain Laurent polynomial sum coeffs[i] z**(lo+i) to SymPoly.

    The input must be invariant under z -> 1/z; asserted exactly.
    """
    hi = lo + len(coeffs) - 1
    d = max(abs(lo), abs(hi))
    out = [Fraction(0)] * (d + 1)
    for i, c in enumerate(coeffs):
        e = lo + i
        if e < 0:
            continue
        out[e] += c
    for i, c in enumerate(coeffs):
        e = lo + i
        mirror = coeffs[(-e) - lo] if lo <= -e <= hi else Fraction(0)
        if c != mirror:
            raise AssertionError("Laurent polynomial is not z <-> 1/z symmetric")
    return SymPoly(out)


@lru_cache(maxsize=None)
def _rho_cached(s: Fraction, n: int) -> SymPoly:
    if n == 0:
        return SymPoly.const(1)
    q = s ** 4
    # (1 + z**2) * prod_{k=0}^{n-2} (1 + q**(2-n) q**(2k) z**2), then * z**-n.
    poly = {0: Fraction(1), 2: Fraction(1)}
    factor = q ** (2 - n)
    for _ in range(n - 1):
        new = {}
        for e, c in poly.items():
            new[e] = new.get(e, Fraction(0)) + c
            new[e + 2] = new.get(e + 2, Fraction(0)) + c * factor
        poly = new
        factor *= q ** 2
    lo = -n
    hi = max(poly) - n
    coeffs = [poly.get(e + n, Fraction(0)) for e in range(lo, hi + 1)]
    return _laurent_to_sym(lo, coeffs)


@lru_cache(maxsize=None)
def _hermite_cached(s: Fraction, n: int) -> SymPoly:
    q = s ** 4
    out = [Fraction(0)] * (n + 1)
    qqn = q_pochhammer(q, q, n)
    for k in range(n // 2 + 1):
        c = qqn / (q_pochhammer(q, q, k) * q_pochhammer(q, q, n - k))
        idx = n - 2 * k
        out[idx] += c  # when idx == 0 (n even) the middle term is counted once
    return SymPoly(out)


def special_poly(ctx: QContext, family: str, n: int, a: Fraction = None) -> SymPoly:
    """Exact degree-n member of one of the built-in families.

    ``monomial``: x**n.  ``rho``: the divided-difference ladder basis.
    ``hermite``: continuous q-Hermite H_n(x|q).  ``phi``: the shifted
    product (a e^{i theta}, a e^{-i theta}; q)_n, requires ``a``.
    ``g``: q**(n**2/4) * rho_n, the translation kernel.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family == "monomial":
        return SymPoly.from_monomial([0] * n + [1])
    if family == "rho":
        return _rho_cached(ctx.s, n)
    if family == "hermite":
        return _hermite_cached(ctx.s, n)
    if family == "g":
        return _rho_cached(ctx.s, n) * (ctx.s ** (n * n))
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


# -- evaluation ----------------------------------------------------------------


def eval_at(ctx: QContext, p: SymPoly, pt: PointLike):
    """Exact value of p at a special point.

    ``pt`` is one of "zero", "eta", "minus_eta", or a rational x-value.
    """
    cs = p.coeffs
    if isinstance(pt, str):
        if pt == "zero":
            total = cs[0]
            for k in range(1, len(cs)):
                ek = _EK_AT_I[k % 4]
                if ek:
                    total += cs[k] * ek
            return total
        if pt in ("eta", "minus_eta"):
            s = ctx.s
            total = cs[0]
            sk = Fraction(1)
            for k in range(1, len(cs)):
                sk *= s
                ek = sk + 1 / sk
                if pt == "minus_eta" and k % 2:
                    ek = -ek
                total += cs[k] * ek
            return total
        raise ValueError(f"unknown special point {pt!r}")
    v = Fraction(pt)
    total = cs[0]
    if len(cs) > 1:
        prev, cur = Fraction(2), 2 * v
        total += cs[1] * cur
        for k in range(2, len(cs)):
            prev, cur = cur, 2 * v * cur - prev
            total += cs[k] * cur
    return total


def eval_float(p: Union[SymPoly, Sequence], x: float) -> float:
    """Floating-point value of p at a real x via the Chebyshev recurrence;
    p is a SymPoly or a sequence of its coefficients (floats are used as is)."""
    cs = p.coeffs if isinstance(p, SymPoly) else p
    total = safe_float(cs[0])
    if len(cs) > 1:
        prev, cur = 2.0, 2.0 * x
        total += safe_float(cs[1]) * cur
        for k in range(2, len(cs)):
            prev, cur = cur, 2.0 * x * cur - prev
            total += safe_float(cs[k]) * cur
    return total


# -- the divided-difference operator -------------------------------------------


def aw_derivative(ctx: QContext, p: SymPoly, k: int = 1) -> SymPoly:
    """Apply the Askey-Wilson divided-difference operator k times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = p
    for _ in range(k):
        out = _aw_once(ctx, out)
    return out


def _aw_once(ctx: QContext, p: SymPoly) -> SymPoly:
    d = p.degree
    if d == 0:
        return SymPoly.zero()
    q = ctx.q
    out = [Fraction(0)] * d
    s2 = ctx.s ** 2
    for m in range(1, d + 1):
        cm = p.coeffs[m]
        if cm == 0:
            continue
        # 2 q**((1-m)/2) [m]_q, with q**((1-m)/2) = s**(2-2m)
        factor = cm * 2 * s2 ** (1 - m) * q_number(m, q)
        # spread over e_{m-1}, e_{m-3}, ...; odd m ends on the constant (once)
        i = m - 1
        while i > 0:
            out[i] += factor
            i -= 2
        if m % 2 == 1:
            out[0] += factor
    return SymPoly(out)


# -- basis conversion -----------------------------------------------------------


_BASES = ("monomial", "rho", "hermite")


def change_basis(ctx: QContext, p: SymPoly, target: str) -> Tuple[Fraction, ...]:
    """Coefficients (a_0, ..., a_d) with p = sum a_n basis_n, computed by
    exact back-substitution from the top degree."""
    if target not in _BASES:
        raise ValueError(f"unknown basis {target!r}")
    rem = p
    d = p.degree
    out = [Fraction(0)] * (d + 1)
    for n in range(d, 0, -1):
        top = rem.coeffs[n] if rem.degree >= n else Fraction(0)
        if top == 0:
            continue
        member = special_poly(ctx, target, n)
        a = top / member.coeffs[-1]
        out[n] = a
        rem = rem - member * a
    if not rem.is_constant():
        raise AssertionError("back-substitution left a non-constant remainder")
    out[0] = rem.coeffs[0]
    return tuple(out)


def poly_from_basis(ctx: QContext, target: str, coeffs: Sequence) -> SymPoly:
    """Inverse of :func:`change_basis`: assemble sum a_n basis_n."""
    if target not in _BASES:
        raise ValueError(f"unknown basis {target!r}")
    out = SymPoly.zero()
    for n, a in enumerate(coeffs):
        a = _coerce(a)
        if a != 0:
            out = out + special_poly(ctx, target, n) * a
    return out


# -- q-translation ---------------------------------------------------------------


def q_translate(ctx: QContext, p: SymPoly, y: PointLike) -> SymPoly:
    """Translation operator E_q^y, exact for exactly evaluable y.

    Defined on the q-Hermite basis by
    E_q^y H_n = sum_m [n choose m]_q H_m g_{n-m}(y) q**((m**2-n**2)/4)
    and extended to all polynomials by linearity.
    """
    h = change_basis(ctx, p, "hermite")
    d = len(h) - 1
    s = ctx.s
    q = ctx.q
    gvals = [eval_at(ctx, special_poly(ctx, "g", j), y) for j in range(d + 1)]
    out_h = [Fraction(0)] * (d + 1)
    for n in range(d + 1):
        if h[n] == 0:
            continue
        for m in range(n + 1):
            g = gvals[n - m]
            if g == 0:
                continue
            out_h[m] += h[n] * q_binomial(n, m, q) * g * s ** (m * m - n * n)
    return poly_from_basis(ctx, "hermite", out_h)
