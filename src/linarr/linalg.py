"""Exact linear algebra over cyclotomic fields, plus mod-p certificates.

The exact routines work on any element type supporting +, -, *, / and
truthiness (CycNumber and Fraction both qualify).  The mod-p routines use a
split prime p = 1 (mod n), for which Phi_n has the phi(n) distinct roots
omega^k mod p, k in (Z/n)*.  Sending zeta to one of them maps Q(zeta_n),
away from denominators divisible by p, onto F_p as a ring map, so a matrix
keeps its size and its rank can only drop.  The results are used as rank
certificates, never as approximations: a nullity of zero at one root proves
the exact nullity is zero, and kernel vectors computed at every root are
interpolated back to power-basis coefficients, lifted by rational
reconstruction and re-verified exactly by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .field import CycField, CycNumber


def _complexity(x) -> int:
    if isinstance(x, CycNumber):
        return sum(a.bit_length() for a in x.num) + x.den.bit_length()
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return 1


def echelon(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Row reduce in place over the exact field.

    Returns the reduced rows and the list of pivot columns.  Pivots are
    chosen by smallest coefficient size to limit expression growth.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    head = 0
    for col in range(ncols):
        best = None
        best_size = None
        for i in range(head, len(rows)):
            x = rows[i][col]
            if x:
                size = _complexity(x)
                if best is None or size < best_size:
                    best, best_size = i, size
        if best is None:
            continue
        rows[head], rows[best] = rows[best], rows[head]
        piv_row = rows[head]
        piv = piv_row[col]
        for i in range(len(rows)):
            if i == head:
                continue
            x = rows[i][col]
            if x:
                factor = x / piv
                row = rows[i]
                for j in range(col, ncols):
                    v = piv_row[j]
                    if v:
                        row[j] = row[j] - factor * v
        pivots.append(col)
        head += 1
        if head == len(rows):
            break
    return rows, pivots


def rank(rows: list[list], ncols: int) -> int:
    return len(echelon(rows, ncols)[1])


def nullity(rows: list[list], ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - rank(rows, ncols)


def kernel_basis(rows: list[list], ncols: int, one, zero) -> list[list]:
    """Basis of the right kernel, exact.

    echelon() fully reduces, so each pivot column is nonzero in its own row
    only and the kernel reads off directly from the free columns.
    """
    if not rows:
        return [
            [one if j == i else zero for j in range(ncols)] for i in range(ncols)
        ]
    red, pivots = echelon(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            v = red[r][fc]
            if v:
                vec[pc] = -v / red[r][pc]
        basis.append(vec)
    return basis


def kernel_vector(rows: list[list], ncols: int, one, zero):
    """One nonzero kernel vector, or None if the kernel is trivial."""
    basis = kernel_basis(rows, ncols, one, zero)
    return basis[0] if basis else None


# --- mod-p support -----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_prime(n: int, skip: int = 0) -> int:
    """A prime p = 1 (mod n) above 2^30, skipping the first `skip` of them.

    Phi_n splits into phi(n) distinct linear factors mod such a prime.
    """
    found = 0
    p = ((1 << 30) // n + 1) * n + 1
    while True:
        if _is_prime(p):
            if found == skip:
                return p
            found += 1
        p += n


def split_roots(n: int, p: int) -> list[int]:
    """The roots of Phi_n mod a prime p = 1 (mod n).

    They are omega^k for k in (Z/n)*, in increasing k, where omega, the
    first, is a primitive n-th root of unity mod p.
    """
    if (p - 1) % n:
        raise ValueError(f"{p} is not 1 mod {n}")
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in factors):
            return [pow(omega, k, p) for k in range(1, n + 1) if gcd(k, n) == 1]


def reduce_at(rows, root: int, p: int) -> list[list[int]]:
    """Field-entry rows mapped to F_p by zeta -> root.

    The numerators are evaluated at root by Horner's rule mod p and divided
    by the common denominator.  At a root of Phi_n mod p this is a ring map,
    so it preserves every relation among the rows.  Raises ZeroDivisionError
    when the denominator vanishes mod p.
    """
    cache: dict[CycNumber, int] = {}
    out = []
    for row in rows:
        red = []
        for x in row:
            if not x:
                red.append(0)
                continue
            v = cache.get(x)
            if v is None:
                den = x.den % p
                if den == 0:
                    raise ZeroDivisionError("denominator vanishes mod p")
                v = 0
                for c in reversed(x.num):
                    v = (v * root + c) % p
                v = v * pow(den, -1, p) % p
                cache[x] = v
            red.append(v)
        out.append(red)
    return out


def interpolate(
    vectors: list[list[int]], roots: list[int], F: CycField, p: int
) -> list[int]:
    """Power-basis coefficients from values at the roots of Phi_n mod p.

    vectors[i] holds the coordinates at roots[i].  The result is the flat
    layout that lift_flat_vector reads: phi coefficients per coordinate,
    constant term first.
    """
    mod = [c % p for c in F.modulus]
    phi = F.degree
    # basis[i]: coefficients of the Lagrange polynomial that is 1 at roots[i]
    # and 0 at the others, that is Phi_n / (t - roots[i]) scaled at roots[i].
    basis = []
    for x in roots:
        quot = [0] * phi
        acc = 0
        for j in range(phi, 0, -1):
            acc = (acc * x + mod[j]) % p
            quot[j - 1] = acc
        at_x = 0
        for q in reversed(quot):
            at_x = (at_x * x + q) % p
        scale = pow(at_x, -1, p)
        basis.append([q * scale % p for q in quot])
    out = []
    for values in zip(*vectors):
        for j in range(phi):
            out.append(sum(v * b[j] for v, b in zip(values, basis)) % p)
    return out


def rational_reconstruct(a: int, p: int) -> Fraction | None:
    """Find r/s = a mod p with |r|, s <= sqrt(p/2), or None."""
    if a == 0:
        return Fraction(0)
    bound = isqrt(p // 2)
    r0, r1 = p, a % p
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    if gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1) if s1 > 0 else Fraction(-r1, -s1)


def fp_echelon(rows: list[list[int]], p: int) -> list[int]:
    """In-place forward elimination mod p; returns the pivot columns.
    Pivot rows end up normalized (pivot entry 1)."""
    pivots = []
    nrows = len(rows)
    if nrows == 0:
        return pivots
    ncols = len(rows[0])
    head = 0
    for col in range(ncols):
        sel = None
        for i in range(head, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[head], rows[sel] = rows[sel], rows[head]
        piv = rows[head]
        inv = pow(piv[col], -1, p)
        if inv != 1:
            piv = rows[head] = [v * inv % p for v in piv]
        for i in range(head + 1, nrows):
            f = rows[i][col]
            if f:
                ri = rows[i]
                rows[i] = [(a - f * b) % p for a, b in zip(ri, piv)]
        pivots.append(col)
        head += 1
        if head == nrows:
            break
    return pivots


def fp_nullity(rows: list[list[int]], ncols: int, p: int) -> int:
    if not rows:
        return ncols
    return ncols - len(fp_echelon(rows, p))


def fp_kernel_vector(rows: list[list[int]], ncols: int, p: int):
    """One kernel vector mod p with the first free variable set to 1,
    or None when the matrix has full column rank.  Deterministic given
    the matrix, so vectors from different primes are CRT-compatible."""
    if not rows:
        if ncols == 0:
            return None, []
        vec = [0] * ncols
        vec[0] = 1
        return vec, []
    pivots = fp_echelon(rows, p)
    pivot_set = set(pivots)
    fc = next((c for c in range(ncols) if c not in pivot_set), None)
    if fc is None:
        return None, pivots
    vec = [0] * ncols
    vec[fc] = 1
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        total = row[fc]
        for pc2 in pivots[r + 1 :]:
            v = row[pc2]
            if v:
                total += v * vec[pc2]
        vec[pc] = -total % p
    return vec, pivots


def crt_pair(a1: int, p1: int, a2: int, p2: int) -> int:
    """Combine residues into one mod p1*p2."""
    inv = pow(p1 % p2, -1, p2)
    t = (a2 - a1) * inv % p2
    return (a1 + p1 * t) % (p1 * p2)


def lift_flat_vector(vec: list[int], F: CycField, modulus: int):
    """Regroup a flat vector (phi coefficients per coordinate) into field
    elements by rational reconstruction; None when any coefficient fails to
    reconstruct."""
    phi = F.degree
    out = []
    for j in range(0, len(vec), phi):
        coeffs = []
        for c in vec[j : j + phi]:
            q = rational_reconstruct(c, modulus)
            if q is None:
                return None
            coeffs.append(q)
        out.append(F.element(coeffs))
    return out
