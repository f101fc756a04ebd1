"""Certified linear algebra over cyclotomic fields, on split primes.

A split prime p = 1 (mod n) has Phi_n split into the phi(n) distinct roots
omega^k mod p, k in (Z/n)*.  Sending zeta to one of them maps Q(zeta_n),
away from denominators divisible by p, onto F_p as a ring map, under which
a rank can only drop.  certified_nullity is the one entry point where a system
meets F_p: it builds the rows mod p from the reduced inputs, for an upper
bound, and checks exactly a kernel basis lifted by interpolation, CRT and
rational reconstruction, for a lower one.  A zero kernel needs no lift: it
is certified at the first good root, by one elimination.  There is no
exact elimination: an answer is certified, or CertificationError is raised.

certified_coprime is the other place a question meets F_p: it proves that
a few ternary forms (the coefficients of a relation, in algebra's relation
search) have no common factor by one gcd mod p at one root, and answers
False, proving nothing, whenever that gcd does not settle it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, isqrt

from .field import CertificationError, CycField, CycNumber, cyc_field


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


def split_prime(n: int, skip: int = 0) -> tuple[int, tuple[int, ...]]:
    """A prime p = 1 (mod n) above 2^30, skipping the first `skip` of them,
    and the roots of Phi_n mod p.

    Phi_n splits into phi(n) distinct linear factors mod such a prime.  The
    roots are omega^k for k in (Z/n)*, in increasing k, where omega, the
    first, is a primitive n-th root of unity mod p.  The primes found so
    far, with their roots, are kept on cyc_field(n), and a later question
    extends the list from its last prime.
    """
    table = cyc_field(n)._split
    while len(table) <= skip:
        p = table[-1][0] + n if table else ((1 << 30) // n + 1) * n + 1
        while not _is_prime(p):
            p += n
        table.append((p, _cyclotomic_roots(n, p)))
    return table[skip]


def _cyclotomic_roots(n: int, p: int) -> tuple[int, ...]:
    if (p - 1) % n:
        raise ValueError(f"{p} is not 1 mod {n}")
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in factors):
            return tuple(pow(omega, k, p) for k in range(1, n + 1)
                         if gcd(k, n) == 1)


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


def fp_kernel_basis(rows: list[list[int]], ncols: int, p: int):
    """Kernel basis mod p and the pivot columns.  One vector per free
    column, with 1 on that column and 0 on the other free columns, so the
    basis is determined by the matrix and bases from different primes with
    the same pivots are CRT-compatible."""
    pivots = fp_echelon(rows, p)
    if len(pivots) == ncols:
        return [], pivots
    # the nonzero entries of each pivot row on the later pivot columns
    tails = [
        [(pc, rows[r][pc]) for pc in pivots[r + 1:] if rows[r][pc]]
        for r in range(len(pivots))
    ]
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for r in range(len(pivots) - 1, -1, -1):
            total = rows[r][fc]
            for pc, v in tails[r]:
                total += v * vec[pc]
            vec[pivots[r]] = -total % p
        basis.append(vec)
    return basis, pivots


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


def _dot_is_zero(rows, vec) -> bool:
    for row in rows:
        acc = None
        for x, y in zip(row, vec):
            if x and y:
                acc = x * y if acc is None else acc + x * y
        if acc:
            return False
    return True


# Split primes tried per dimension question.  Only finitely many primes are
# unlucky for a given system, so a true answer certifies once the CRT
# modulus outgrows its kernel basis's coefficients (48 primes give about
# 1440 bits); a check that never passes raises CertificationError here.
_PRIME_CAP = 48


def certified_nullity(F: CycField, ncols: int, inputs, build,
                      check=None) -> int:
    """The exact nullity of a system over F, certified on split primes.

    build(inputs, zero, one) returns the rows of the system from inputs,
    rows of elements of F.  It must work for any element type: it may
    branch only on whether an input entry is zero, and a zero test on a
    computed value may only skip a term.  Then at a root of a split prime
    where no nonzero input reduces to 0, build on the reduced inputs gives
    the exact rows mod p; any other root, or a vanishing denominator, makes
    the prime bad.  check(vector) tests exactly that a vector over F lies in
    the kernel; by default it multiplies by the exact rows, built once, when
    a basis first lifts.

    A zero kernel at any root proves a zero exact kernel.  Otherwise, when
    every root gives the same pivots, the k basis vectors of fp_kernel_basis
    are interpolated, combined by CRT with every earlier prime of the same
    pivots, and reconstructed.  Once all k pass check, the exact nullity is
    k: they are independent (1 on their own free column, 0 on the others),
    and k is also the nullity mod p.  Raises CertificationError after
    _PRIME_CAP primes.
    """
    acc: dict[tuple[int, ...], tuple[int, list[list[int]]]] = {}
    for skip in range(_PRIME_CAP):
        p, roots = split_prime(F.order, skip)
        bases, pivs = [], []
        try:
            for root in roots:
                red = reduce_at(inputs, root, p)
                if any(y and not x for xs, ys in zip(red, inputs)
                       for x, y in zip(xs, ys)):
                    raise ZeroDivisionError("a nonzero input vanishes mod p")
                rows = [[x % p for x in row] for row in build(red, 0, 1)]
                basis, piv = fp_kernel_basis(rows, ncols, p)
                if not basis:
                    return 0
                bases.append(basis)
                pivs.append(piv)
        except ZeroDivisionError:
            continue
        if any(piv != pivs[0] for piv in pivs):
            continue
        flats = [interpolate(vecs, roots, F, p) for vecs in zip(*bases)]
        mod, prev = acc.get(tuple(pivs[0]), (1, None))
        if prev is not None:
            flats = [[crt_pair(a, mod, b, p) for a, b in zip(old, new)]
                     for old, new in zip(prev, flats)]
        mod *= p
        acc[tuple(pivs[0])] = (mod, flats)
        lifted = [lift_flat_vector(flat, F, mod) for flat in flats]
        if None in lifted:
            continue
        if check is None:
            check = partial(_dot_is_zero, build(inputs, F.zero, F.one))
        if all(map(check, lifted)):
            return len(flats)
    raise CertificationError(
        f"nullity of a {ncols}-column system over Q(zeta_{F.order}) not "
        f"certified within {_PRIME_CAP} split primes"
    )


# The fixed line z = a x + b y that certified_coprime restricts each form to,
# as (x, y, z) = (s, 1, a s + b).  It misses the coordinate points, and its
# wide coefficients keep it off the points of small height where the forms
# of an arrangement tend to meet.
_LINE = (2654435761, 2246822519)


def certified_coprime(F: CycField, deg: int, forms) -> bool:
    """True only when the forms over F have no common factor of positive
    degree, certified at the first root of the first split prime.

    Each form is a {(i, j, l): coefficient} map of degree deg >= 1, on the
    ternary monomials x^i y^j z^l; a binary form is one with l = 0.  The
    map zeta -> root is the residue map of a discrete valuation ring that
    holds every coefficient, so by Gauss's lemma a common factor g over F
    reduces to a nonzero form of the degree of g that divides every reduced
    form.  Restricted to the line (x, y, z) = (s, 1, a s + b) (_LINE), it is
    zero or divides every restriction, as a binary form of that degree.
    So restrictions of which one keeps degree deg in s and whose gcd mod p
    is a constant prove the forms coprime.  Every other outcome is False,
    never an error: a vanishing denominator, restrictions that are all zero
    or all of lower degree, or a common root.
    """
    p, roots = split_prime(F.order, 0)
    try:
        red = reduce_at([list(form.values()) for form in forms], roots[0], p)
    except ZeroDivisionError:
        return False
    a, b = _LINE
    polys = []
    for form, values in zip(forms, red):
        # levels[l][i]: the coefficient of x^i y^j z^l, j = deg - i - l
        levels = [[0] * (deg + 1) for _ in range(deg + 1)]
        for mono, x in zip(form, values):
            levels[mono[2]][mono[0]] = x
        acc = levels[-1]  # Horner in z = a s + b, degree <= deg - l
        for level in reversed(levels[:-1]):
            acc = [(b * x + a * y + g) % p
                   for x, y, g in zip(acc, [0] + acc, level)]
        polys.append(acc[::-1])  # highest power of s first
    if not any(poly[0] for poly in polys):
        return False
    return len(_fp_gcd(polys, p)) == 1


def _fp_gcd(polys, p: int) -> list[int]:
    """A gcd mod p of polynomials given highest coefficient first, by
    Euclid's algorithm, with no leading zero; [] when all are zero."""
    g = []
    for r in polys:
        r = r[next((i for i, x in enumerate(r) if x), len(r)):]
        while r:  # g, r = r, g mod r
            inv = pow(r[0], -1, p)
            while len(g) >= len(r):
                f = g[0] * inv % p
                g = [(x - f * y) % p for x, y in zip(g[1:], r[1:])] \
                    + g[len(r):]
                g = g[next((i for i, x in enumerate(g) if x), len(g)):]
            g, r = r, g
    return g
