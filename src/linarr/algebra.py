"""Exact polynomial algebra on arrangements.

Defining polynomials, minimal degrees of Jacobian relations, restriction of
an arrangement to one of its lines as a rank-two multiarrangement, exponent
pairs of such restrictions, and the vanishing dimension at the nodes of a
generic arrangement.  Everything is certified over the exact field; modular
arithmetic only ever shortcuts a computation whose outcome it proves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import is_supersolvable, modular_points, tjurina_census
from .field import CycField, CycNumber, cyc_to_strings
from .linalg import (
    crt_pair,
    fp_kernel_vector,
    fp_nullity,
    interpolate,
    kernel_vector,
    lift_flat_vector,
    nullity,
    reduce_at,
    split_prime,
    split_roots,
)
from .projgeo import Arrangement, build_lattice


class CertificationError(RuntimeError):
    """An answer failed the exact check that certifies it."""


class Poly:
    """Sparse trivariate polynomial over a cyclotomic field.

    Terms map exponent triples (i, j, l) to nonzero coefficients.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: CycField, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, field: CycField) -> "Poly":
        return cls(field)

    @classmethod
    def constant(cls, field: CycField, c) -> "Poly":
        if not isinstance(c, CycNumber):
            c = field.scalar(c)
        return cls(field, {(0, 0, 0): c})

    @classmethod
    def from_linear(cls, field: CycField, coeffs) -> "Poly":
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                mono = [0, 0, 0]
                mono[i] = 1
                terms[tuple(mono)] = c
        return cls(field, terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            s = c if s is None else s + c
            if s:
                terms[mono] = s
            elif mono in terms:
                del terms[mono]
        out = Poly(self.field)
        out.terms = terms
        return out

    def __neg__(self) -> "Poly":
        out = Poly(self.field)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            terms = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    c = c1 * c2
                    s = terms.get(mono)
                    s = c if s is None else s + c
                    if s:
                        terms[mono] = s
                    elif mono in terms:
                        del terms[mono]
            out = Poly(self.field)
            out.terms = terms
            return out
        c = other if isinstance(other, CycNumber) else self.field.scalar(other)
        if not c:
            return Poly.zero(self.field)
        out = Poly(self.field)
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    __rmul__ = __mul__

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def deriv(self, var: int) -> "Poly":
        terms = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e:
                m = list(mono)
                m[var] = e - 1
                terms[tuple(m)] = c * e
        out = Poly(self.field)
        out.terms = terms
        return out

    def eval3(self, coords) -> CycNumber:
        F = self.field
        total = F.zero
        for (i, j, l), c in self.terms.items():
            v = c
            for e, x in ((i, coords[0]), (j, coords[1]), (l, coords[2])):
                for _ in range(e):
                    v = v * x
            total = total + v
        return total

    def div_linear(self, coeffs) -> "Poly":
        """Exact quotient by the linear form with the given coefficients.

        Raises ValueError when the form does not divide.
        """
        F = self.field
        if not self.terms:
            return Poly.zero(F)
        piv = next((i for i in range(3) if coeffs[i]), None)
        if piv is None:
            raise ValueError("zero linear form")
        inv = F.one / coeffs[piv]
        rest = Poly(F)
        rest.terms = {}
        for i, c in enumerate(coeffs):
            if i != piv and c:
                mono = [0, 0, 0]
                mono[i] = 1
                rest.terms[tuple(mono)] = c
        # Slice by the pivot exponent and run synthetic division from the top.
        slices: dict[int, Poly] = {}
        for mono, c in self.terms.items():
            k = mono[piv]
            m = list(mono)
            m[piv] = 0
            sl = slices.get(k)
            if sl is None:
                sl = Poly(F)
                slices[k] = sl
            sl.terms[tuple(m)] = c
        top = max(slices)
        if top == 0:
            raise ValueError("linear form does not divide")
        zero = Poly.zero(F)
        quot: dict[int, Poly] = {top - 1: slices[top] * inv}
        for k in range(top - 1, 0, -1):
            quot[k - 1] = (slices.get(k, zero) - rest * quot[k]) * inv
        if slices.get(0, zero) - rest * quot[0]:
            raise ValueError("linear form does not divide")
        terms = {}
        for k, sl in quot.items():
            for mono, c in sl.terms.items():
                m = list(mono)
                m[piv] = k
                terms[tuple(m)] = c
        out = Poly(F)
        out.terms = terms
        return out

    def __repr__(self):
        return f"Poly({len(self.terms)} terms, deg {self.degree()})"


def defining_polynomial(arr: Arrangement) -> Poly:
    """Product of the normalized forms of all lines."""
    f = Poly.constant(arr.field, 1)
    for line in arr.lines:
        f = f * Poly.from_linear(arr.field, line.coords)
    return f


def partial_products(arr: Arrangement) -> list[Poly]:
    """For each line, the product of all the other forms."""
    out = []
    for i in range(len(arr.lines)):
        g = Poly.constant(arr.field, 1)
        for j, line in enumerate(arr.lines):
            if j != i:
                g = g * Poly.from_linear(arr.field, line.coords)
        out.append(g)
    return out


# --- degree-r relation spaces ------------------------------------------

def _conv(a: list, b: list, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _ortho_pair(F: CycField, coeffs):
    """Two independent points on the line with the given coefficients."""
    piv = next(i for i in range(3) if coeffs[i])
    pts = []
    for o in range(3):
        if o == piv:
            continue
        w = [F.zero] * 3
        w[o] = coeffs[piv]
        w[piv] = -coeffs[o]
        pts.append(tuple(w))
    return pts[0], pts[1]


def _gauged_rows(arr: Arrangement, r: int):
    """Linear conditions whose kernel is the degree-r relation space.

    A relation a f_x + b f_y + c f_z = 0 of degree r is the same thing as a
    derivation theta = a d_x + b d_y + c d_z that maps every line's form into
    its own ideal, taken modulo multiples of the Euler derivation E: theta
    corresponds to theta - (h/d) E with h = theta(f)/f, and the gauge that
    kills the E ambiguity is to forbid z in the coefficient c.  Under that
    gauge, theta = s E forces s = 0, so the kernel dimension below equals the
    dimension of the relation space on the nose.

    Unknowns are the coefficients of a and b on all degree-r monomials and of
    c on the z-free ones.  For each line, theta(alpha) restricted to the line
    must vanish; parametrizing the line by two points gives r+1 coefficient
    rows per line.
    """
    F = arr.field
    zero, one = F.zero, F.one
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    zfree = [m for m in mons if m[2] == 0]
    ncols = 2 * len(mons) + len(zfree)
    rows = []
    for line in arr.lines:
        cx, cy, cz = line.coords
        P, Q = _ortho_pair(F, line.coords)
        pw = []
        for v in range(3):
            lin = [P[v], Q[v]]
            tab = [[one]]
            for _ in range(r):
                tab.append(_conv(tab[-1], lin, zero))
            pw.append(tab)
        restr = {
            m: _conv(_conv(pw[0][m[0]], pw[1][m[1]], zero), pw[2][m[2]], zero)
            for m in mons
        }
        for t in range(r + 1):
            row = []
            for c, group in ((cx, mons), (cy, mons), (cz, zfree)):
                if c:
                    for m in group:
                        v = restr[m][t]
                        row.append(c * v if v else zero)
                else:
                    row.extend([zero] * len(group))
            rows.append(row)
    return rows, ncols


_EXACT_COLS = 40

_SYZ_CACHE: dict[tuple[Arrangement, int], bool] = {}


def _dot_is_zero(rows, vec) -> bool:
    for row in rows:
        acc = None
        for x, y in zip(row, vec):
            if x and y:
                acc = x * y if acc is None else acc + x * y
        if acc:
            return False
    return True


def _kernel_nonzero(rows, ncols: int, F: CycField) -> bool:
    """Certified test for a nonzero kernel over the exact field.

    Modulo a split prime p = 1 (mod n), zeta -> omega^k (k in (Z/n)*) is a
    ring map onto F_p, so a nonzero exact kernel vector, scaled to be
    integral at the prime above p with a unit coordinate, survives it: a
    zero kernel at omega alone proves a zero exact kernel.  Otherwise a
    kernel vector is taken at every root with identical pivots, its values
    are interpolated back to power-basis coefficients, and it is only
    trusted after rational reconstruction and an exact check.  A second and
    third prime, combined by CRT, widen the window before falling back to
    exact elimination.
    """
    if ncols <= _EXACT_COLS:
        return kernel_vector(rows, ncols, F.one, F.zero) is not None
    seen = []
    for skip in range(3):
        p = split_prime(F.order, skip)
        roots = split_roots(F.order, p)
        vecs, pivs = [], []
        try:
            for root in roots:
                vec, piv = fp_kernel_vector(reduce_at(rows, root, p), ncols, p)
                if vec is None:
                    return False
                vecs.append(vec)
                pivs.append(piv)
        except ZeroDivisionError:
            continue
        pivots = pivs[0]
        if any(piv != pivots for piv in pivs):
            continue
        flat = interpolate(vecs, roots, F, p)
        lifted = lift_flat_vector(flat, F, p)
        if lifted is not None and any(lifted) and _dot_is_zero(rows, lifted):
            return True
        for p0, flat0, piv0 in seen:
            if piv0 == pivots:
                mod = p0 * p
                comb = [crt_pair(a, p0, b, p) for a, b in zip(flat0, flat)]
                lifted = lift_flat_vector(comb, F, mod)
                if lifted is not None and any(lifted) and _dot_is_zero(rows, lifted):
                    return True
        seen.append((p, flat, pivots))
    return kernel_vector(rows, ncols, F.one, F.zero) is not None


def _syz_nonzero_at(arr: Arrangement, r: int) -> bool:
    """Whether a nonzero degree-r relation exists.  Exact answer, cached."""
    key = (arr, r)
    hit = _SYZ_CACHE.get(key)
    if hit is not None:
        return hit
    d = len(arr.lines)
    assert 0 <= r <= d - 2
    lat = build_lattice(arr)
    if lat.mult[0] >= d - r:
        # A point on m >= d - r lines carries the derivation g d_P with
        # g the product of the forms missing the point: degree d - m <= r,
        # in every line's ideal, and never a multiple of E.  Relation spaces
        # only grow with degree, so existence at r follows.
        _SYZ_CACHE[key] = True
        return True
    rows, ncols = _gauged_rows(arr, r)
    hit = _kernel_nonzero(rows, ncols, arr.field)
    _SYZ_CACHE[key] = hit
    return hit


def syzygy_dimension(arr: Arrangement, r: int) -> int:
    """Dimension of the degree-r relation space.

    Informational companion to the certified mdr machinery: large systems
    are measured at one root of unity modulo a split prime, which bounds
    the exact dimension from above and equals it unless the prime is
    unlucky.
    """
    rows, ncols = _gauged_rows(arr, r)
    F = arr.field
    if ncols <= _EXACT_COLS:
        return nullity(rows, ncols)
    for skip in range(3):
        p = split_prime(F.order, skip)
        try:
            red = reduce_at(rows, split_roots(F.order, p)[0], p)
        except ZeroDivisionError:
            continue
        return fp_nullity(red, ncols, p)
    return nullity(rows, ncols)


def mdr(arr: Arrangement, bound: int | None = None) -> int | None:
    """Smallest degree r <= bound carrying a nonzero relation, else None.

    The default bound (d-1)//2 covers every free arrangement.  Bounds at or
    above d-1 are rejected: from there the Koszul relations between the
    partials make the kernel nonzero for trivial reasons.
    """
    d = len(arr.lines)
    if bound is None:
        bound = (d - 1) // 2
    if bound >= d - 1:
        raise ValueError("bound must be at most d-2")
    for r in range(bound + 1):
        if _syz_nonzero_at(arr, r):
            return r
    return None


def verify_mdr(arr: Arrangement, r_star: int) -> bool:
    """Two-sided certificate that the minimal relation degree is r_star.

    Relation spaces only grow with degree, so an empty space at r_star - 1
    rules out everything below, and a nonzero space at r_star pins the
    minimum.  Both sides are exact.
    """
    d = len(arr.lines)
    if not 0 <= r_star <= d - 2:
        raise ValueError("r_star out of range")
    if r_star > 0 and _syz_nonzero_at(arr, r_star - 1):
        return False
    return _syz_nonzero_at(arr, r_star)


def supersolvable_exponents(arr: Arrangement) -> tuple[int, int, int]:
    """Exponents (1, m-1, d-m) sorted, from a maximal modular point.

    The census consistency check is structural: the point count weighted by
    (k-1)^2 must equal (d-1)^2 - (m-1)(d-m), else CertificationError.
    """
    lat = build_lattice(arr)
    mods = modular_points(arr, lat)
    if not mods:
        raise ValueError("arrangement is not supersolvable")
    d = len(arr.lines)
    m = max(mult for _, mult in mods)
    d2, d3 = sorted((m - 1, d - m))
    tau = tjurina_census(lat)
    if tau != (d - 1) ** 2 - d2 * d3:
        raise CertificationError(
            f"Tjurina census {tau} != (d-1)^2 - {d2}*{d3} at d={d}"
        )
    return (1, d2, d3)


# --- restriction to a line as a rank-two multiarrangement ---------------

@dataclass(frozen=True)
class MultiRestriction:
    """Points of an arrangement on one of its lines, with multiplicities.

    Forms live in coordinates (u, v) on the line, are pairwise independent
    and normalized with leading coefficient one.  The multiplicity of a
    point counts the other lines through it.
    """

    field: CycField
    forms: tuple[tuple[CycNumber, CycNumber], ...]
    mult: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.mult)

    def to_json(self) -> dict:
        return {
            "cyclotomic_order": self.field.order,
            "forms": [
                [cyc_to_strings(c) for c in form] for form in self.forms
            ],
            "mult": list(self.mult),
            "total": self.total,
        }


def ziegler_restriction(arr: Arrangement, h: int) -> MultiRestriction:
    """Restriction onto line h, with point multiplicities.

    Coordinates on the line are the two variables other than the pivot of
    its normalized form.  Every other line cuts out a binary linear form;
    proportional forms are the same point and stack multiplicity.
    """
    F = arr.field
    d = len(arr.lines)
    if not 0 <= h < d:
        raise ValueError("line index out of range")
    c = arr.lines[h].coords
    piv = next(i for i in range(3) if c[i])
    o1, o2 = (i for i in range(3) if i != piv)
    groups: dict = {}
    for j, line in enumerate(arr.lines):
        if j == h:
            continue
        l = line.coords
        a = l[o1] - l[piv] * c[o1]
        b = l[o2] - l[piv] * c[o2]
        if a:
            a, b = F.one, b / a
        else:
            assert b, "distinct lines cannot restrict to the zero form"
            a, b = F.zero, F.one
        key = (a.sort_key(), b.sort_key())
        entry = groups.get(key)
        if entry is None:
            groups[key] = [(a, b), 1]
        else:
            entry[1] += 1
    ordered = sorted(groups.items(), key=lambda kv: (-kv[1][1], kv[0]))
    forms = tuple(entry[0] for _, entry in ordered)
    mult = tuple(entry[1] for _, entry in ordered)
    assert sum(mult) == d - 1
    return MultiRestriction(F, forms, mult)


def _multi_dim(R: MultiRestriction, p: int) -> int:
    """dim of the degree-p derivations of the multirestriction, exact.

    theta = P d_u + Q d_v must send each form alpha into (alpha^mult).  In
    coordinates (s, t) built from a point on alpha and one off it, alpha
    becomes a scalar times t, so divisibility reads as the vanishing of the
    first mult coefficients of theta(alpha)(s, t).
    """
    F = R.field
    zero, one = F.zero, F.one
    rows = []
    ncols = 2 * (p + 1)
    for (cu, cv), m in zip(R.forms, R.mult):
        Z = (-cv, cu)
        W = (one, zero) if cu else (zero, one)
        pwu = [[one]]
        pwv = [[one]]
        for _ in range(p):
            pwu.append(_conv(pwu[-1], [Z[0], W[0]], zero))
            pwv.append(_conv(pwv[-1], [Z[1], W[1]], zero))
        restr = [_conv(pwu[p - j], pwv[j], zero) for j in range(p + 1)]
        for i in range(min(m, p + 1)):
            row = []
            for c in (cu, cv):
                if c:
                    row.extend(c * restr[j][i] if restr[j][i] else zero
                               for j in range(p + 1))
                else:
                    row.extend([zero] * (p + 1))
            rows.append(row)
    return nullity(rows, ncols)


def multi_exponents(
    R: MultiRestriction, force_kernel: bool = False
) -> tuple[int, int]:
    """Exponent pair (d1, d2) of the restriction, d1 <= d2, summing to total.

    The count bound total - s + 1 <= s - 1 (s = number of points) admits a
    closed form, returned after verifying the predicted kernel dimensions at
    d1 and d1 - 1 (CertificationError if they differ).  Otherwise the least degree with a nonzero derivation is
    found by exact scan; force_kernel skips the closed form to make the scan
    comparable against it.
    """
    total = R.total
    s = len(R.forms)
    easy = (total - s + 1, s - 1)
    if not force_kernel and easy[0] <= easy[1]:
        d1, d2 = easy
        want = 2 if d1 == d2 else 1
        dims = (_multi_dim(R, d1), _multi_dim(R, d1 - 1) if d1 > 0 else 0)
        if dims != (want, 0):
            raise CertificationError(
                f"closed form {easy}: derivation dims {dims} at degrees "
                f"{d1}, {d1 - 1}, expected ({want}, 0)"
            )
        return easy
    for p in range(total // 2 + 1):
        if _multi_dim(R, p) > 0:
            d1, d2 = p, total - p
            assert d1 <= d2
            return (d1, d2)
    raise AssertionError("no derivation up to total/2; invalid restriction")


def is_balanced(R: MultiRestriction) -> bool:
    """No single point carries half the total multiplicity or more."""
    return 2 * max(R.mult) < R.total


# --- nodes of a generic arrangement --------------------------------------

def _nodal_lattice(arr: Arrangement):
    lat = build_lattice(arr)
    if lat.mult[0] != 2:
        raise ValueError("non-nodal input")
    return lat


def _node_dim(arr: Arrangement, lat, r: int) -> int:
    F = arr.field
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    rows = []
    for pt in lat.points:
        pw = []
        for x in pt.coords:
            tab = [F.one]
            for _ in range(r):
                tab.append(tab[-1] * x)
            pw.append(tab)
        rows.append([pw[0][i] * pw[1][j] * pw[2][l] for (i, j, l) in mons])
    return nullity(rows, len(mons))


def nodal_vanishing_dimension(arr: Arrangement) -> int:
    """dim of the degree-(d'-1) forms vanishing at all nodes.

    Input must have double points only.
    """
    lat = _nodal_lattice(arr)
    return _node_dim(arr, lat, len(arr.lines) - 1)


def nodal_dimension_profile(arr: Arrangement) -> list[int]:
    """Same vanishing condition at every degree up to d'-1."""
    lat = _nodal_lattice(arr)
    return [_node_dim(arr, lat, r) for r in range(len(arr.lines))]
