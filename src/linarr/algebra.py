"""Exact polynomial algebra on arrangements.

Defining polynomials, minimal degrees of Jacobian relations, restriction of
an arrangement to one of its lines as a rank-two multiarrangement, exponent
pairs of such restrictions, and the vanishing dimension at the nodes of a
generic arrangement.  Every answer is certified over the exact field.

Every dimension is one question to linalg.certified_nullity, the one
entry point to split primes, asked with the few inputs a system is built
from, line coefficients, restricted forms or node coordinates, and a row
builder generic over the element type (_gauged_rows, _restriction_rows,
_node_rows).  linalg reduces the inputs and builds the rows mod p, so this
module knows nothing of primes.  A lifted kernel vector is checked by the
same exact test as an explicit element: a relation vector as the
derivation it holds, by _is_derivation, a restriction vector by _derives;
exact rows are built only to check a lifted node-condition vector.

A minimal degree, of a relation (mdr, verify_mdr) or of a derivation of a
restriction (d1 of multi_exponents: rank-two multiarrangements are free,
Ziegler), is one search, _min_degree.  A closed-form candidate is a
(degree, explicit derivation) pair that passes an exact check binding that
degree: _is_derivation, which restricts theta(alpha) to every line with no
quotient and no inverse, or _derives.  At the lowest such degree c, a
certified dimension 0 at c - 1 (a zero kernel at the first good root, with
no lift) certifies c, since the spaces only grow with degree; a nonzero
one sends the search below c - 1.  The candidates come
from G. Ziegler, "Multiarrangements of hyperplanes and their freeness"
(1989), and A. Wakamiko, "On the exponents of 2-multiarrangements" (2007).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

from .classify import modular_points, tjurina_census, tjurina_free
from .field import (
    CertificationError,
    CycField,
    CycNumber,
    divisors,
)
from .linalg import certified_nullity
from .projgeo import Arrangement, _normalize, _ortho_pair, build_lattice


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


def _gauged_monomials(r: int):
    """The degree-r monomials, which carry a and b, and the z-free ones,
    which carry c, in the column order of _gauged_rows."""
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    return mons, [m for m in mons if m[2] == 0]


def _gauged_rows(lines, r: int, zero, one) -> list[list]:
    """Linear conditions whose kernel is the degree-r relation space.

    A relation a f_x + b f_y + c f_z = 0 of degree r is the same thing as a
    derivation theta = a d_x + b d_y + c d_z that maps every line's form into
    its own ideal, taken modulo multiples of the Euler derivation E: theta
    corresponds to theta - (h/d) E with h = theta(f)/f, and the gauge that
    kills the E ambiguity is to forbid z in the coefficient c.  Under that
    gauge, theta = s E forces s = 0, so the kernel dimension below equals the
    dimension of the relation space on the nose.

    Unknowns are the coefficients of a and b on all degree-r monomials and of
    c on the z-free ones, (r+1)(r+3) columns.  For each line (a coefficient
    triple, of any element type) theta(alpha) restricted to the line must
    vanish; two points on it give r+1 coefficient rows per line.
    """
    mons, zfree = _gauged_monomials(r)
    rows = []
    for coeffs in lines:
        P, Q = _ortho_pair(coeffs, zero)
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
            for c, group in zip(coeffs, (mons, mons, zfree)):
                for m in group:
                    v = restr[m][t] if c else zero
                    row.append(c * v if v else zero)
            rows.append(row)
    return rows


def syzygy_dimension(arr: Arrangement, r: int) -> int:
    """Dimension of the degree-r relation space, certified: a lifted kernel
    vector is checked as the derivation (a, b, c) it holds, by
    _is_derivation, so no exact rows are built."""
    F = arr.field
    mons, zfree = _gauged_monomials(r)

    def check(vec):
        nm = len(mons)
        theta = [Poly(F, dict(zip(group, part))) for group, part in (
            (mons, vec[:nm]), (mons, vec[nm:2 * nm]), (zfree, vec[2 * nm:]))]
        return _is_derivation(arr, r, theta)

    return certified_nullity(
        F, (r + 1) * (r + 3), [line.coords for line in arr.lines],
        lambda lines, zero, one: _gauged_rows(lines, r, zero, one), check,
    )


def _min_degree(candidates, check, dim, top: int) -> int | None:
    """Least degree <= top with a nonzero space, certified; None if none.

    candidates are (degree, element) pairs of explicit elements, and
    check(degree, element) the exact test that the element is a nonzero
    member of the space of that degree; dim(deg) is the certified
    dimension at deg, asked at most once per degree.  The spaces only grow
    with degree.  The lowest degree c whose check passes has a nonzero
    space, so c is the minimum when c = 0 or dim(c - 1) = 0.  Otherwise the
    space at c - 1 is nonzero, and the minimum is the first nonzero degree
    below c - 1, else c - 1.  With no candidate it is the first nonzero
    degree up to top.
    """
    c = next((deg for deg, elem in sorted(candidates, key=lambda de: de[0])
              if deg <= top and check(deg, elem)), None)
    if c == 0 or (c is not None and not dim(c - 1)):
        return c
    for deg in range(top + 1 if c is None else c - 1):
        if dim(deg):
            return deg
    return None if c is None else c - 1


def _relation_top(arr: Arrangement, bound: int | None) -> int:
    d = len(arr.lines)
    top = (d - 1) // 2 if bound is None else bound
    if not 0 <= top <= d - 2:
        raise ValueError("bound must be between 0 and d-2")
    return top


def _is_derivation(arr: Arrangement, deg: int, theta) -> bool:
    """Exact check that theta = (A, B, C), the derivation A d_x + B d_y +
    C d_z, is nonzero, homogeneous of degree deg, and sends every line's
    form into its ideal, with no quotient and no inverse.

    A normalized form has pivot coefficient 1, so its line is x_piv = w,
    w = -(c1 x_o1 + c2 x_o2).  theta(alpha), grouped by its x_piv exponent,
    is a polynomial in x_piv over binary forms in (x_o1, x_o2); it lies in
    (alpha) exactly when substituting w, by Horner's rule, leaves the zero
    binary form.
    """
    if not any(theta) or any(sum(mono) != deg
                             for poly in theta for mono in poly.terms):
        return False
    zero = arr.field.zero
    for line in arr.lines:
        c = line.coords
        piv = next(i for i in range(3) if c[i])
        o1, o2 = (i for i in range(3) if i != piv)
        # slices[k][j]: coefficient of x_piv^k x_o1^(deg-k-j) x_o2^j
        slices = [[zero] * (deg + 1 - k) for k in range(deg + 1)]
        for coeff, poly in zip(c, theta):
            if coeff:
                for mono, a in poly.terms.items():
                    sl = slices[mono[piv]]
                    sl[mono[o2]] = sl[mono[o2]] + coeff * a
        w = [-c[o1], -c[o2]]
        acc = slices[deg]
        for sl in reversed(slices[:deg]):
            acc = [a + b if b else a for a, b in zip(_conv(acc, w, zero), sl)]
        if any(acc):
            return False
    return True


def _pencil_derivation(arr: Arrangement) -> list[Poly]:
    """g d_P for P a point of maximal multiplicity m and g the product of
    the forms missing it, of degree d - m: theta(alpha) = alpha(P) g."""
    lat = build_lattice(arr)
    g = Poly.constant(arr.field, 1)
    for j, line in enumerate(arr.lines):
        if j not in lat.incidence[0]:
            g = g * Poly.from_linear(arr.field, line.coords)
    return [g * c for c in lat.points[0].coords]


def _power_derivation(F: CycField, r: int) -> list[Poly]:
    """x^r d_x + y^r d_y + z^r d_z: a form with coefficients in mu_(r-1)
    divides its image."""
    return [Poly(F, {tuple(r if i == v else 0 for i in range(3)): F.one})
            for v in range(3)]


def _relation_candidates(arr: Arrangement) -> list:
    """(degree, derivation) of the explicit derivations: the pencil one,
    and the power ones with r = k + 1 for k dividing the field order.  None
    is a multiple of the Euler derivation, so each is a nonzero relation of
    its degree once it passes _is_derivation."""
    F = arr.field
    return [
        (len(arr.lines) - build_lattice(arr).mult[0], _pencil_derivation(arr)),
        *((k + 1, _power_derivation(F, k + 1)) for k in divisors(F.order)),
    ]


def mdr(arr: Arrangement, bound: int | None = None) -> int | None:
    """Smallest degree r <= bound carrying a nonzero relation, else None.

    The default bound (d-1)//2 covers every free arrangement.  Bounds at or
    above d-1 are rejected: from there the Koszul relations between the
    partials make the kernel nonzero for trivial reasons.  The answer is
    the lowest explicit derivation that passes its exact check, with a zero
    relation space certified one degree below, else the first certified
    nonzero degree below it (_min_degree).
    """
    return _min_degree(_relation_candidates(arr), partial(_is_derivation, arr),
                       partial(syzygy_dimension, arr), _relation_top(arr, bound))


def verify_mdr(arr: Arrangement, r_star: int) -> bool:
    """Two-sided certificate that the minimal relation degree is r_star:
    a nonzero relation at r_star, explicit or lifted, and a certified zero
    relation space below it (mdr searched up to r_star)."""
    if not 0 <= r_star <= len(arr.lines) - 2:
        raise ValueError("r_star out of range")
    return mdr(arr, r_star) == r_star


def supersolvable_exponents(arr: Arrangement) -> tuple[int, int, int]:
    """Exponents (1, m-1, d-m) sorted, from a maximal modular point.

    The census consistency check is structural: the point count weighted by
    (k-1)^2 must equal (d-1)^2 - (m-1)(d-m), else CertificationError.
    """
    lat = build_lattice(arr)
    mods = modular_points(arr)
    if not mods:
        raise ValueError("arrangement is not supersolvable")
    d = len(arr.lines)
    m = max(mult for _, mult in mods)
    d2, d3 = sorted((m - 1, d - m))
    tau = tjurina_census(lat)
    if tau != tjurina_free(d, d2, d3):
        raise CertificationError(
            f"Tjurina census {tau} != (d-1)^2 - {d2}*{d3} at d={d}"
        )
    return (1, d2, d3)


# --- restriction to a line as a rank-two multiarrangement ---------------

@dataclass(frozen=True)
class MultiRestriction:
    """Points of an arrangement on one of its lines, with multiplicities.

    One form per lattice point on the line, in coordinates (u, v) on it:
    the forms are pairwise independent and normalized with leading
    coefficient one.  The multiplicity of a point counts the other lines
    through it.
    """

    field: CycField
    forms: tuple[tuple[CycNumber, CycNumber], ...]
    mult: tuple[int, ...]
    # (degree, P and Q coefficients) of derivations restricted from the
    # parent arrangement, candidates for multi_exponents; not part of the
    # restriction's identity
    lifts: tuple = dataclasses.field(default=(), compare=False, repr=False)

    @property
    def total(self) -> int:
        return sum(self.mult)


def ziegler_restriction(arr: Arrangement, h: int) -> MultiRestriction:
    """Restriction onto line h, read off the certified lattice.

    Coordinates (u, v) on the line are the two variables other than the
    pivot of its normalized form.  A lattice point X on h sits at (u, v) =
    (X[o1], X[o2]), so it is cut out by the form (X[o2], -X[o1]), with
    multiplicity the number of other lines through X.  The forms come by
    decreasing multiplicity, then by their coefficients.
    """
    F = arr.field
    d = len(arr.lines)
    if not 0 <= h < d:
        raise ValueError("line index out of range")
    c = arr.lines[h].coords
    piv = next(i for i in range(3) if c[i])
    o1, o2 = (i for i in range(3) if i != piv)
    lat = build_lattice(arr)
    points = sorted(
        ((len(inc) - 1, _normalize(F, (X.coords[o2], -X.coords[o1])))
         for X, inc in zip(lat.points, lat.incidence) if h in inc),
        key=lambda mf: (-mf[0], tuple(x.sort_key() for x in mf[1])),
    )
    forms = tuple(form for _, form in points)
    mult = tuple(m for m, _ in points)
    if sum(mult) != d - 1:
        raise ValueError("restriction multiplicities do not sum to d - 1")
    lifts = []
    for k in divisors(F.order):
        vec = 2 * k + 2 <= d - 1 and _power_image(F, c[o1], c[o2], k + 1)
        if vec:
            lifts.append((k + 1, vec))
    return MultiRestriction(F, forms, mult, tuple(lifts))


def _power_image(F: CycField, c1, c2, r: int) -> list | None:
    """Ziegler image on the line x_piv = w, w = -(c1 u + c2 v), of
    theta = x^r d_x + y^r d_y + z^r d_z: theta' = theta - (theta(a)/a) E
    with a the line's form kills a, and restricts to (P, Q) in the layout
    of _restriction_rows.  theta(a) = x_piv^r + c1 u^r + c2 v^r vanishes on
    the line exactly when c1 c2 = 0 and (-c)^(r-1) = 1 for c = c1, c2
    nonzero; then theta(a)/a restricts to its x_piv-derivative r w^(r-1).
    None when theta(a) does not vanish there."""
    if c1 and c2 or any(c and (-c) ** (r - 1) != F.one for c in (c1, c2)):
        return None
    g = [F.scalar(r)]
    for _ in range(r - 1):
        g = _conv(g, [-c1, -c2], F.zero)
    P = [-x for x in g] + [F.zero]
    Q = [F.zero] + [-x for x in g]
    P[0] = P[0] + F.one
    Q[r] = Q[r] + F.one
    return P + Q


def _restriction_rows(forms, mult, deg: int, zero, one) -> list[list]:
    """Linear conditions on the degree-deg derivations theta = P d_u + Q d_v.

    Generic over the element type: field elements, or the forms' images
    mod p as integers (entries then still to be reduced).  theta must send
    each form alpha into (alpha^mult).  In coordinates (s, t) built from
    the point Z on alpha and W = (1, 0) or (0, 1) off it, alpha becomes a
    scalar times t, so divisibility reads as the vanishing of the first
    mult coefficients of theta(alpha)(s, t).  Columns hold P, then Q, on
    the monomials u^(deg-j) v^j.
    """
    rows = []
    for (cu, cv), m in zip(forms, mult):
        Z, W = (-cv, cu), ((one, zero) if cu else (zero, one))
        pwu, pwv = [[one]], [[one]]
        for _ in range(deg):
            pwu.append(_conv(pwu[-1], [Z[0], W[0]], zero))
            pwv.append(_conv(pwv[-1], [Z[1], W[1]], zero))
        restr = [_conv(pwu[deg - j], pwv[j], zero) for j in range(deg + 1)]
        for i in range(min(m, deg + 1)):
            rows.append([c * x[i] for c in (cu, cv) for x in restr])
    return rows


def _multi_dim(R: MultiRestriction, deg: int) -> int:
    """dim of the degree-deg derivations of the multirestriction, certified."""
    return certified_nullity(
        R.field, 2 * deg + 2, R.forms,
        lambda forms, z, o: _restriction_rows(forms, R.mult, deg, z, o),
        lambda vec: _derives(R, deg, vec),
    )


def _derives(R: MultiRestriction, deg: int, vec) -> bool:
    """Exact check that vec = (P, Q) is a nonzero derivation of degree deg:
    2 deg + 2 coefficients, not all zero, and each cu P + cv Q divisible by
    alpha^min(mult, deg + 1), tested by synthetic division at v = 1, or on
    the leading coefficients when cu = 0."""
    if len(vec) != 2 * deg + 2 or not any(vec):
        return False
    for (cu, cv), m in zip(R.forms, R.mult):
        g = [cu * a + cv * b for a, b in zip(vec[:deg + 1], vec[deg + 1:])]
        k = min(m, deg + 1)
        if not cu:
            if any(g[:k]):
                return False
            continue
        r = -cv / cu
        for _ in range(k):
            quot = [g[0]]
            for c in g[1:]:
                quot.append(c + r * quot[-1])
            if quot.pop():
                return False
            g = quot
    return True


def _product(R: MultiRestriction, exps) -> list:
    """prod alpha_i^exps[i], on the monomials u^(deg-j) v^j."""
    out = [R.field.one]
    for form, e in zip(R.forms, exps):
        for _ in range(e):
            out = _conv(out, list(form), R.field.zero)
    return out


def _restriction_candidates(R: MultiRestriction) -> list:
    """(degree, P and Q coefficients) of explicit derivations of degree at
    most total/2, where d1 lies:
    - prod_{i>1} alpha_i^m_i (-cv_1 d_u + cu_1 d_v), alpha_1 of the
      largest multiplicity, of degree total - m_1;
    - prod alpha_i^(m_i - 1) (u d_u + v d_v), of degree total - s + 1;
    - the restrictions R.lifts from the parent arrangement."""
    zero, total = R.field.zero, R.total
    top = R.mult.index(max(R.mult))
    out = list(R.lifts)
    if 2 * R.mult[top] >= total:
        h = _product(R, [m * (i != top) for i, m in enumerate(R.mult)])
        cu, cv = R.forms[top]
        out.append((len(h) - 1, [-cv * x for x in h] + [cu * x for x in h]))
    if 2 * len(R.forms) >= total + 2:
        h = _product(R, [m - 1 for m in R.mult])
        out.append((len(h), h + [zero, zero] + h))
    return out


def multi_exponents(R: MultiRestriction) -> tuple[int, int]:
    """Exponent pair (d1, d2) of the restriction, d1 <= d2, summing to total.

    A rank-two multiarrangement is free (Ziegler), so d1 is the least
    degree with a nonzero derivation, and d1 <= total/2.
    """
    d1 = _least_derivation_degree(R, partial(_multi_dim, R))
    return (d1, R.total - d1)


def _least_derivation_degree(R: MultiRestriction, dim) -> int:
    """d1 of R by _min_degree over dim: the lowest explicit derivation
    (_restriction_candidates) that passes _derives, with a zero space
    certified one degree below, else the first certified nonzero degree
    below it; CertificationError if no degree up to total/2 has one."""
    d1 = _min_degree(_restriction_candidates(R), partial(_derives, R), dim,
                     R.total // 2)
    if d1 is None:
        raise CertificationError(
            f"no derivation of degree <= {R.total // 2} of total {R.total}"
        )
    return d1


def is_balanced(R: MultiRestriction) -> bool:
    """No single point carries half the total multiplicity or more."""
    return 2 * max(R.mult) < R.total


# --- nodes of a generic arrangement --------------------------------------

def _nodal_lattice(arr: Arrangement):
    lat = build_lattice(arr)
    if lat.mult[0] != 2:
        raise ValueError("non-nodal input")
    return lat


def _node_rows(points, r: int, zero, one) -> list[list]:
    """Every degree-r monomial evaluated at each point (a coordinate
    triple, of any element type): the kernel is the space of degree-r forms
    vanishing at all the points."""
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    rows = []
    for coords in points:
        pw = []
        for x in coords:
            tab = [one]
            for _ in range(r):
                tab.append(tab[-1] * x)
            pw.append(tab)
        rows.append([pw[0][i] * pw[1][j] * pw[2][l] for (i, j, l) in mons])
    return rows


def _node_dim(arr: Arrangement, lat, r: int) -> int:
    return certified_nullity(
        arr.field, (r + 1) * (r + 2) // 2, [p.coords for p in lat.points],
        lambda points, zero, one: _node_rows(points, r, zero, one),
    )


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
