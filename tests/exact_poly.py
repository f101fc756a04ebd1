"""Sparse trivariate polynomials, the independent oracle for the tests.

linarr never expands a polynomial: a relation or a derivation of a
restriction is decided by the exact check in pivot coordinates
(linarr.algebra._is_derivation), and the minimal relation degree of an
arrangement with a point of multiplicity m, 2m > d, is d - m in closed
form, and a power relation is read off a table of the normalized forms
(linarr.algebra._relation_search).  These routines expand products of linear
forms and build the derivations instead, so the tests can check those
answers against the defining polynomial, its partials, the pencil
derivation g d_P and the power derivations, with code that shares none of
theirs.  Node conditions are answered by a theorem
(linarr.algebra.nodal_dimension_profile); node_rows gives the rows whose
certified kernel the tests compare with it.
"""

from linarr.field import CycField, CycNumber
from linarr.projgeo import Arrangement, build_lattice


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


def pencil_derivation(arr: Arrangement) -> list[dict]:
    """g d_P for P a point of maximal multiplicity m and g the product of
    the forms missing it, of degree d - m: theta(alpha) = alpha(P) g, one
    {monomial: coefficient} map per variable."""
    lat = build_lattice(arr)
    g = Poly.constant(arr.field, 1)
    for j, line in enumerate(arr.lines):
        if j not in lat.incidence[0]:
            g = g * Poly.from_linear(arr.field, line.coords)
    return [(g * c).terms for c in lat.points[0].coords]


def power_derivation(F: CycField, r: int) -> list[dict]:
    """x^r d_x + y^r d_y + z^r d_z, one {monomial: coefficient} map per
    variable: the derivation that linarr's relation search decides by a
    table of the normalized forms, with no derivation built."""
    return [{tuple(r if i == v else 0 for i in range(3)): F.one}
            for v in range(3)]


def node_rows(points, r: int, zero, one) -> list[list]:
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
