"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are residue classes in Q[t]/(Phi_n), stored as phi(n) = deg Phi_n
integer numerators over one common denominator, kept canonical (denominator
positive and coprime to the numerators, zero as 0/1), so equality and
hashing compare integers.  Products are integer convolutions reduced mod
Phi_n, which is monic and integral; a rational element's inverse is
closed form, any other comes from fraction-free elimination over Z.
Fractions appear only at the edges: building elements, the `coeffs` view
and `as_fraction`.  The rationals are the case n = 1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub


class CertificationError(RuntimeError):
    """An answer failed the exact check that certifies it.

    Defined here, in the module every other layer imports, so that lattices,
    class recovery and kernel certificates all raise the same type.
    """


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
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


# Largest supported order.  Phi_n is built from all its divisors' Phi_d in
# O(n)-sized lists: Phi_840 takes 0.05 s, Phi_2310 0.3 s, Phi_9240 4.5 s and
# Phi_30030 a minute, and an order of 10^15 exhausts memory.  Every field,
# and so every arrangement, passes through here, so one bound near 1000
# turns a huge order from any input into a ValueError.
MAX_ORDER = 1000


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
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


def cyc_field(n: int) -> "CycField":
    """The field Q(zeta_n).  Instances are cached, one per order."""
    try:
        return _FIELDS[n]
    except KeyError:
        F = CycField(n)
        _FIELDS[n] = F
        return F


class CycField:
    """Q(zeta_n).  `zero` and `one` are built once and shared."""

    __slots__ = ("order", "modulus", "degree", "_tail", "zero", "one",
                 "_zeta_powers", "_split")

    def __init__(self, n: int):
        self.order = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        # nonzero (i, m) with t^degree = -sum m t^i mod Phi_n
        self._tail = tuple((i, m) for i, m in enumerate(self.modulus[:-1]) if m)
        self.zero = self.scalar(0)
        self.one = self.scalar(1)
        self._zeta_powers: list[CycNumber] | None = None
        # (p, roots of Phi_n mod p) for the split primes above 2^30 found so
        # far, in increasing p; linalg.split_prime extends it on demand
        self._split: list[tuple[int, tuple[int, ...]]] = []

    def element(self, coeffs) -> "CycNumber":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients for Q(zeta_{self.order})"
            )
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*(c.denominator for c in cs))
        return CycNumber(
            self, tuple(c.numerator * (den // c.denominator) for c in cs), den
        )

    def scalar(self, q) -> "CycNumber":
        if type(q) is int:
            return CycNumber(self, self._padded(q), 1)
        q = Fraction(q)
        return CycNumber(self, self._padded(q.numerator), q.denominator)

    def _padded(self, c: int) -> tuple[int, ...]:
        return (c,) + (0,) * (self.degree - 1)

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
        return CycNumber(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __repr__(self):
        return f"CycField({self.order})"

    def __eq__(self, other):
        return isinstance(other, CycField) and other.order == self.order

    def __hash__(self):
        return hash(("CycField", self.order))


def _reduced(field: CycField, num: tuple[int, ...], den: int) -> "CycNumber":
    """The canonical element num/den, for den > 0."""
    g = gcd(den, *num)
    if g == 1:
        return CycNumber(field, num, den)
    return CycNumber(field, tuple(map(g.__rfloordiv__, num)), den // g)


def _polymul(F: CycField, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of numerator tuples in Z[t]/(Phi_n), the one multiply loop:
    a convolution, then t^k for k >= deg folded down by the monic Phi_n."""
    deg = F.degree
    if deg == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            k = i
            for y in b:
                conv[k] += x * y
                k += 1
    for k in range(2 * deg - 2, deg - 1, -1):
        c = conv[k]
        if c:
            base = k - deg
            for i, m in F._tail:
                conv[base + i] -= c * m
    return tuple(conv[:deg])


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for coprime n and d > 0, without building it:
    Python's numeric hash, n / d modulo the prime sys.hash_info.modulus."""
    P = sys.hash_info.modulus
    h = sys.hash_info.inf if d % P == 0 else abs(n) % P * pow(d, -1, P) % P
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def _combine(op, x: "CycNumber", y: "CycNumber") -> "CycNumber":
    """x + y or x - y for op add or sub; no cross-multiply on equal denominators."""
    a, b = x.den, y.den
    if a == b:
        return _reduced(x.field, tuple(map(op, x.num, y.num)), a)
    return _reduced(
        x.field, tuple(map(op, map(b.__mul__, x.num), map(a.__mul__, y.num))), a * b
    )


class CycNumber:
    """An element num/den of Q(zeta_n): integer numerators, constant term
    first, over one denominator.  Always canonical: den > 0,
    gcd(den, *num) == 1, and zero is (0, ..., 0) / 1."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each access."""
        d = self.den
        return tuple(Fraction(a, d) for a in self.num)

    def _coerce(self, other):
        if other.__class__ is CycNumber and other.field is self.field:
            return other  # the common case, tested first
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
        return _combine(add, self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(sub, self, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycNumber(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        den = self.den * o.den
        if F.degree == 1:
            num = self.num[0] * o.num[0]
            g = gcd(num, den)
            return CycNumber(F, (num // g,), den // g)
        return _reduced(F, _polymul(F, self.num, o.num), den)

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
        if not e:
            return self.field.one
        result = self  # the top bit; then one square per lower bit
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return (
                self.field.order == other.field.order
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and self.is_rational()
        if isinstance(other, Fraction):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and self.is_rational()
            )
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like its Fraction, since it equals it
        h = self._hash
        if h is None:
            if self.is_rational():
                h = _rational_hash(self.num[0], self.den)
            else:
                h = hash((self.field.order, self.num, self.den))
            self._hash = h
        return h

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def sort_key(self):
        """Orders elements exactly as their `coeffs` tuples do.

        Integer coefficients compare with ints, which is the same order and
        much cheaper than comparing Fractions.
        """
        return self.num if self.den == 1 else self.coeffs

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


def _inverse(x: CycNumber) -> CycNumber:
    """1/x, by solving num * y = 1 in Z[t]/(Phi_n) without fractions.

    A rational x = a/den has the inverse den/a in any degree.  Otherwise
    column j of the integer matrix M is num * t^j mod Phi_n, so M y = e0.
    Fraction-free Gauss-Jordan elimination divides exactly at every step
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968) and ends with det(M) * y
    in the last column, so 1/x = den * y = den * column / det(M).
    """
    if not x:
        raise ZeroDivisionError("division by zero in cyclotomic field")
    F = x.field
    if x.is_rational():
        a, den = x.num[0], x.den
        if a < 0:
            a, den = -a, -den
        return CycNumber(F, F._padded(den), a)
    deg = F.degree
    cols = [list(x.num)]
    tail = F._tail
    for _ in range(deg - 1):
        prev_col = cols[-1]
        top = prev_col[-1]
        col = [0] + prev_col[:-1]
        if top:
            for i, m in tail:
                col[i] -= top * m
        cols.append(col)
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(deg)]
    prev = 1
    for k in range(deg):
        if not rows[k][k]:
            # M is invertible, so some lower row has a nonzero entry here
            r = next(r for r in range(k + 1, deg) if rows[r][k])
            rows[k], rows[r] = rows[r], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(deg):
            if i != k:
                row = rows[i]
                f = row[k]
                for j in range(k + 1, deg + 1):
                    row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    if prev < 0:
        prev, scale = -prev, -x.den
    else:
        scale = x.den
    return _reduced(F, tuple([scale * row[deg] for row in rows]), prev)


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
    """Inverse of cyc_to_strings.  A coefficient is a string (a JSON 0.1 is a
    binary float): an integer, a fraction p/q or a decimal, with no exponent
    such as 1e5, since Fraction would build 10**exponent exactly."""
    for s in items:
        if not isinstance(s, str):
            raise ValueError(f"coefficient {s!r} is not a string")
        if "e" in s.lower():
            raise ValueError(f"coefficient {s!r} has an exponent")
    return F.element([Fraction(s) for s in items])
