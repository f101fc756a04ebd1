"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are residue classes in Q[t]/(Phi_n), stored as coefficient tuples
of length phi(n) = deg Phi_n.  The rationals are the special case n = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_exact(num, den):
    # den is monic; division must be exact over Z
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for i, m in enumerate(den):
                num[k + i] -= c * m
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


_FIELDS: dict[int, "CycField"] = {}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def cyc_field(n: int) -> "CycField":
    """The field Q(zeta_n).  Instances are cached, one per order."""
    try:
        return _FIELDS[n]
    except KeyError:
        F = CycField(n)
        _FIELDS[n] = F
        return F


class CycField:
    __slots__ = ("order", "modulus", "degree", "_zeta_powers")

    def __init__(self, n: int):
        self.order = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self._zeta_powers: list[CycNumber] | None = None

    def element(self, coeffs) -> "CycNumber":
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients for Q(zeta_{self.order})"
            )
        return CycNumber(self, cs)

    def scalar(self, q) -> "CycNumber":
        cs = [_ZERO] * self.degree
        cs[0] = Fraction(q)
        return CycNumber(self, tuple(cs))

    @property
    def zero(self) -> "CycNumber":
        return self.scalar(0)

    @property
    def one(self) -> "CycNumber":
        return self.scalar(1)

    @property
    def zeta(self) -> "CycNumber":
        return self.zeta_pow(1)

    def zeta_pow(self, j: int) -> "CycNumber":
        """zeta_n^j, reduced mod Phi_n."""
        if self._zeta_powers is None:
            powers = [self.one]
            z = self._raw_zeta()
            for _ in range(self.order - 1):
                powers.append(powers[-1] * z)
            self._zeta_powers = powers
        return self._zeta_powers[j % self.order]

    def _raw_zeta(self) -> "CycNumber":
        if self.degree == 1:
            # t is congruent to a rational: t = -modulus[0]
            return self.scalar(-self.modulus[0])
        cs = [_ZERO] * self.degree
        cs[1] = _ONE
        return CycNumber(self, tuple(cs))

    def __repr__(self):
        return f"CycField({self.order})"

    def __eq__(self, other):
        return isinstance(other, CycField) and other.order == self.order

    def __hash__(self):
        return hash(("CycField", self.order))


class CycNumber:
    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: CycField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.field.order != self.field.order:
                raise ValueError(
                    f"mixed fields: Q(zeta_{self.field.order}) and "
                    f"Q(zeta_{other.field.order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.field.degree
        if deg == 1:
            return CycNumber(self.field, (self.coeffs[0] * o.coeffs[0],))
        a, b = self.coeffs, o.coeffs
        conv = [_ZERO] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        mod = self.field.modulus
        for k in range(2 * deg - 2, deg - 1, -1):
            c = conv[k]
            if c:
                conv[k] = _ZERO
                base = k - deg
                for i in range(deg):
                    m = mod[i]
                    if m:
                        conv[base + i] -= c * m
        return CycNumber(self.field, tuple(conv[:deg]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * _inverse(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * _inverse(self)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return _inverse(self) ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return (
            self.field.order == other.field.order and self.coeffs == other.coeffs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field.order, self.coeffs))
            self._hash = h
        return h

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def sort_key(self):
        return self.coeffs

    def __repr__(self):
        deg = self.field.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c and deg > 1:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"Cyc({self.field.order}; {body})"


def _poly_ext_gcd(a, b):
    # over Q[t]: returns (g, u, v) with u*a + v*b = g, g monic or zero
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], [_ZERO]
    t0, t1 = [_ZERO], [_ONE]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def sub_scaled(p, q, c, shift):
        # p -= c * t^shift * q
        need = len(q) + shift
        if len(p) < need:
            p = p + [_ZERO] * (need - len(p))
        for i, x in enumerate(q):
            if x:
                p[i + shift] -= c * x
        return p

    while deg(r1) >= 0:
        d0, d1 = deg(r0), deg(r1)
        if d0 < d1:
            r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
            continue
        c = r0[d0] / r1[d1]
        shift = d0 - d1
        r0 = sub_scaled(r0, r1, c, shift)
        s0 = sub_scaled(s0, s1, c, shift)
        t0 = sub_scaled(t0, t1, c, shift)
    d = deg(r0)
    if d < 0:
        return r0, s0, t0
    lead = r0[d]
    r0 = [x / lead for x in r0]
    s0 = [x / lead for x in s0]
    t0 = [x / lead for x in t0]
    return r0, s0, t0


@lru_cache(maxsize=8192)
def _inverse(x: CycNumber) -> CycNumber:
    if not x:
        raise ZeroDivisionError("division by zero in cyclotomic field")
    F = x.field
    if F.degree == 1:
        return CycNumber(F, (1 / x.coeffs[0],))
    mod = [Fraction(m) for m in F.modulus]
    g, u, _ = _poly_ext_gcd(list(x.coeffs), mod)
    # Phi_n is irreducible, so gcd with a nonzero residue is 1
    u = u[: F.degree] + [_ZERO] * max(0, F.degree - len(u))
    inv = CycNumber(F, tuple(u[: F.degree]))
    return inv


def zeta_pow(F: CycField, j: int) -> CycNumber:
    return F.zeta_pow(j)


def root_order(x: CycNumber) -> int | None:
    """Smallest e with x^e = 1 when x lies in mu_n, None otherwise."""
    if not x:
        return None
    F = x.field
    one = F.one
    for e in divisors(F.order):
        if x ** e == one:
            return e
    return None


def exponent_in_mu(x: CycNumber, n: int) -> int | None:
    """j with x = zeta_n^j for the canonical primitive n-th root, or None.

    The canonical root is zeta_N^(N/n) when n divides the ambient order N;
    otherwise it is taken inside the torsion subgroup of Q(zeta_N)*.
    """
    F = x.field
    N = F.order
    if n < 1:
        raise ValueError("n must be positive")
    if N % n == 0:
        zn = F.zeta_pow(N // n) if n > 1 else F.one
    else:
        M = N if N % 2 == 0 else 2 * N
        if M % n == 0:
            zM = F.zeta if N % 2 == 0 else -F.zeta
            zn = zM ** (M // n)
        else:
            g = gcd(n, M)
            j0 = exponent_in_mu(x, g)
            return None if j0 is None else j0 * (n // g)
    acc = F.one
    for j in range(n):
        if acc == x:
            return j
        acc = acc * zn
    return None


def cyc_to_strings(x: CycNumber) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in x.coeffs]


def cyc_from_strings(F: CycField, items) -> CycNumber:
    return F.element([Fraction(s) for s in items])
