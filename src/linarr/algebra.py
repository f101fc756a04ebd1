"""Exact polynomial algebra on arrangements.

Minimal degrees of Jacobian relations, restriction of an arrangement to one
of its lines as a rank-two multiarrangement, exponent pairs of such
restrictions, and the vanishing dimension at the nodes of a generic
arrangement, which a theorem gives (nodal_dimension_profile).  Every other
answer is certified over the exact field, and no polynomial is ever
expanded: tests/exact_poly.py keeps the expansion as the tests' oracle.

A relation and a derivation of a restriction answer one question: does
theta send each form alpha into (alpha^m)?  A relation is 3 variables,
every m = 1, gauged columns; a restriction is 2 variables, its own m, P
and Q on the binary monomials.  One row builder, _derivation_rows, and one
exact check, _is_derivation, answer it in the pivot coordinates of each
form, where alpha's line is x_piv = w: the rows ask the first m Taylor
coefficients of theta(alpha) in x_piv - w to vanish, and the check makes m
Horner divisions by x_piv - w, with no inverse.  Every dimension is one
linalg.certified_nullity, which reduces the forms and runs a builder
generic over the element type, so this module knows nothing of primes; a
lifted derivation is checked by _is_derivation, so no exact rows are
built.

A rank-two multiarrangement is free (Ziegler), so the exponents of a
restriction are (d1, total - d1), d1 its least degree with a nonzero
derivation.  multi_exponents reads them off the restriction, with no check
and no kernel, when 2 max m >= total (A. Wakamiko, "On the exponents of
2-multiarrangements", 2007), when total < 2s for s points, and when a
Ziegler image of the power derivation is a derivation (G. Ziegler,
"Multiarrangements of hyperplanes and their freeness", 1989); else it
scans the certified dimensions (_derivation_dim) up to total/2 for d1.

A minimal relation degree (mdr) is one search, _relation_search.  Two
independent relations have degrees summing to at least d - 1 (du Plessis
and Wall, Math. Proc. Cambridge Philos. Soc., 1999), so a relation of
degree c with no common factor is the minimum when 2c <= d - 1.  The
pencil derivation g d_P, P a point of largest multiplicity m, gives such a
relation of degree d - m, so mdr = d - m when 2m > d, in closed form, with
no derivation built or checked (A. Dimca, "Curve arrangements, pencils,
and Jacobian syzygies", 2017, treats this regime).  Otherwise d - m is a
degree known to pass, and the power derivation x^r d_x + y^r d_y + z^r
d_z, r = k + 1 for k | lcm(2, n), is read off a table of the normalized
forms (_power_fits): it is a relation exactly when every form has at most
two nonzero coefficients, its lead 1 and b, with (-b)^(r-1) = 1, and its
relation is always primitive, so the lowest such r below d - m is the
minimum when 2r <= d - 1, with no derivation built, no check and no
prime.  Any other passing degree is certified by a zero dimension at c -
1, else the search goes below c - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

from .classify import ClassifyReport, check_identities
from .field import (
    CertificationError,
    CycField,
    CycNumber,
    divisors,
)
from .linalg import certified_nullity
from .projgeo import Arrangement, _normalize, build_lattice


# --- derivations: relations and restrictions alike -------------------------

def _conv(a: list, b: list, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                s = out[i + j]
                out[i + j] = s + x * y if s else x * y
    return out


def _gauged_monomials(r: int):
    """Columns of the degree-r relation space: a and b on every degree-r
    monomial, c on the z-free ones.

    A relation a f_x + b f_y + c f_z = 0 of degree r is the same thing as a
    derivation theta = a d_x + b d_y + c d_z that maps every line's form into
    its own ideal, taken modulo multiples of the Euler derivation E: theta
    corresponds to theta - (h/d) E with h = theta(f)/f, and the gauge that
    kills the E ambiguity is to forbid z in the coefficient c.  Under that
    gauge, theta = s E forces s = 0, so the dimension of these derivations
    equals the dimension of the relation space on the nose.
    """
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    return mons, mons, [m for m in mons if m[2] == 0]


def _binary_monomials(deg: int):
    """Columns of the degree-deg derivations P d_u + Q d_v of a
    restriction: P, then Q, on the monomials u^(deg-j) v^j."""
    mons = [(deg - j, j) for j in range(deg + 1)]
    return mons, mons


def _pivot_frame(c):
    """(piv, w, last) of a form c with pivot coefficient one, whose line is
    x_piv = w, w = -(sum of c_o x_o over the other variables o).  A form in
    the other variables is held by its coefficients by the exponent of
    last, the second of two other variables; with one (last None), one."""
    piv = next(v for v in range(len(c)) if c[v])
    others = [v for v in range(len(c)) if v != piv]
    return piv, [-c[o] for o in others], others[1] if len(others) > 1 else None


def _derivation_rows(forms, mult, groups, deg: int, zero, one) -> list[list]:
    """Linear conditions on the degree-deg derivations theta, columns the
    monomials groups[v] of each variable v, to send each form alpha into
    (alpha^m), m its multiplicity; generic over the element type (field
    elements, or the forms mod p as integers, reduced later).

    x_piv = w + alpha (_pivot_frame), so theta(alpha) = sum_i alpha^i G_i,
    where x_piv^e gives G_i the Taylor coefficient binom(e, i) w^(e - i).
    One row per coefficient of G_i, i < min(m, deg + 1), asks it to vanish.
    """
    rows = []
    for c, m in zip(forms, mult):
        piv, w, last = _pivot_frame(c)
        wpow = [[one]]
        for _ in range(deg):
            wpow.append(_conv(wpow[-1], w, zero))
        for i in range(min(m, deg + 1)):
            cols = []
            for cv, group in zip(c, groups):
                for mono in group:
                    col = [zero] * len(wpow[deg - i])
                    e = mono[piv]
                    if cv and e >= i:
                        s = cv * comb(e, i)
                        b = 0 if last is None else mono[last]
                        for j, x in enumerate(wpow[e - i]):
                            col[b + j] = s * x if x else zero
                    cols.append(col)
            rows.extend(map(list, zip(*cols)))
    return rows


def _is_derivation(F: CycField, forms, mult, deg: int, theta) -> bool:
    """Exact check, with no inverse, that theta, one {monomial:
    coefficient} map per variable, is nonzero, homogeneous of degree deg
    and sends each form alpha into (alpha^m), m its multiplicity.
    theta(alpha) as a polynomial in x_piv over forms in the other variables
    (_pivot_frame) must leave the zero remainder in min(m, deg + 1) Horner
    divisions by x_piv - w.  A quotient is held like theta(alpha): its k-th
    slice is the coefficient of x_piv^k, by the exponent of last.
    """
    if not any(a for part in theta for a in part.values()) or any(
            sum(mono) != deg for part in theta for mono in part):
        return False
    zero = F.zero
    for c, m in zip(forms, mult):
        piv, w, last = _pivot_frame(c)
        # slices[k]: the coefficient of x_piv^k, a form of degree deg - k
        # in the other variables
        slices = [[zero] * (1 if last is None else deg - k + 1)
                  for k in range(deg + 1)]
        for v, part in enumerate(theta):
            if c[v]:
                for mono, a in part.items():
                    if a:
                        a = a if v == piv else c[v] * a
                        sl = slices[mono[piv]]
                        j = 0 if last is None else mono[last]
                        sl[j] = sl[j] + a if sl[j] else a
        for _ in range(min(m, deg + 1)):
            acc, quot = slices[-1], []
            for sl in reversed(slices[:-1]):
                quot.append(acc)
                acc = [a + b if b else a
                       for a, b in zip(_conv(acc, w, zero), sl)]
            if any(acc):
                return False
            slices = quot[::-1]
    return True


def _derivation_dim(F: CycField, forms, mult, monomials, deg: int) -> int:
    """Certified dim of the degree-deg derivations on the columns
    monomials(deg) of _derivation_rows; a lifted vector is checked as the
    derivation it holds, by _is_derivation, so no exact rows are built."""
    groups = monomials(deg)
    return certified_nullity(
        F, sum(map(len, groups)), forms,
        lambda red, zero, one: _derivation_rows(
            red, mult, groups, deg, zero, one),
        lambda vec: _is_derivation(F, forms, mult, deg, _parts(groups, vec)),
    )


def _parts(groups, vec) -> list[dict]:
    """A flat coefficient vector on the columns groups, as one {monomial:
    coefficient} map per variable."""
    coeffs = iter(vec)  # zip ends each group before taking from coeffs
    return [dict(zip(group, coeffs)) for group in groups]


def _power_fits(form, r: int) -> bool:
    """Whether the power derivation of degree r >= 2, the sum of x^r d_x
    over the variables, sends the normalized form alpha into (alpha): at
    most one nonzero coefficient b after the lead, with (-b)^(r-1) = 1.
    The one table test of the relation search and of the power images of a
    restriction (_relation_search, _power_images_pass)."""
    _, *tail = filter(None, form)
    return not tail or len(tail) == 1 and (-tail[0]) ** (r - 1) == 1


def _relation_top(arr: Arrangement, bound: int | None) -> int:
    # the lattice refuses fewer than two lines, for every question alike
    d = build_lattice(arr).d
    top = (d - 1) // 2 if bound is None else bound
    if type(top) is not int:
        raise ValueError("bound must be an integer")
    if not 0 <= top <= d - 2:
        raise ValueError("bound must be between 0 and d-2")
    return top


def _relation_question(arr: Arrangement):
    """(field, forms, multiplicities) of the relation space as derivations:
    every line's normalized form, to multiplicity one."""
    return arr.field, [line.coords for line in arr.lines], [1] * len(arr.lines)


def syzygy_dimension(arr: Arrangement, r: int) -> int:
    """Dimension of the degree-r relation space, certified: the derivations
    of the relation question on the gauged columns.  It is 0 for r < 0; an
    r that is not an int (a bool included) raises ValueError."""
    if type(r) is not int:
        raise ValueError("degree must be an integer")
    return _derivation_dim(*_relation_question(arr), _gauged_monomials, r)


def mdr(arr: Arrangement, bound: int | None = None) -> int | None:
    """Smallest degree r <= bound carrying a nonzero relation, else None.

    The default bound (d-1)//2 covers every free arrangement.  Bounds at or
    above d-1 are rejected: from there the Koszul relations between the
    partials make the kernel nonzero for trivial reasons.  With m the
    largest multiplicity of a point, the answer is d - m when 2m > d, in
    closed form; else it is the lowest power derivation below d - m that
    the table of the normalized forms passes, when 2r <= d - 1, or the
    lowest passing degree (a power one, else d - m) when a zero relation
    space is certified one degree below, else the first certified nonzero
    degree below it (_relation_search).
    """
    return _relation_search(arr, bound)[0]


def _relation_search(arr: Arrangement, bound: int | None):
    """(mdr(arr, bound), dim): dim(deg) the certified dimension of the
    degree-deg relation space (_derivation_dim), asked at most once per
    degree and kept, or known in closed form at the answer.

    Two independent relations have degrees summing to at least d - 1 (du
    Plessis and Wall, 1999, rho1 x rho2 = h' grad f).  So a relation rho of
    degree c whose forms have no common factor is the minimum when 2c <= d
    - 1: a relation below c would be a multiple of rho, or independent of
    it.  The dimension at c is then 1 when 2c < d - 1; at 2c = d - 1 it is
    asked.

    The pencil relation is such a rho, of degree c = d - m, m the largest
    multiplicity of a point P.  Take P = (0:0:1) and g the product of the
    forms missing P: theta = g d_z sends each form alpha to c_alpha g, its
    z-coefficient c_alpha times g, so it is a relation of degree d - m, and
    rho = d theta - h E = (-h x, -h y, d g - h z) with h = theta(f)/f = g
    sum(c_alpha / alpha) over the forms missing P.  For each such alpha, h
    = c_alpha g / alpha (mod alpha), which is nonzero, so gcd(h, g) = 1; a
    common factor of rho divides h, as it cannot divide both x and y, and
    then d g, so there is none.  Hence when 2m > d, so that 2c <= d - 1,
    c = d - m is the minimum, with no derivation built, no check and no
    coprimality.

    When 2m <= d, d - m is only a degree known to pass.  The power
    derivation theta = x^r d_x + y^r d_y + z^r d_z, r = k + 1 >= 2 for k
    dividing lcm(2, n), n the field order, is no multiple of the Euler
    derivation E, so it is a nonzero relation of degree r exactly when it
    sends every form alpha into (alpha).  That is read off the normalized
    forms by a table (_power_fits), with no derivation built and no check:
    alpha passes when it has at most two nonzero coefficients, its lead 1
    and b, with (-b)^(r-1) = 1.  A form x_i passes, as theta(x_i) = x_i^r.  For
    alpha = x_i + b x_j, theta(alpha) at x_i = -b x_j is b x_j^r (1 -
    (-b)^(r-1)).  With a third coefficient c, alpha = x_i + b x_j + c x_l,
    the monomial x_j^(r-1) x_l of theta(alpha) at x_i = -(b x_j + c x_l)
    keeps the coefficient (-1)^r r b^(r-1) c != 0, for r >= 2, so alpha
    does not divide it.  So r passes when k is a multiple of the order of
    every such -b, a root of unity of Q(zeta_n), whose orders divide
    lcm(2, n): the lowest passing r has k | lcm(2, n).

    Its relation rho = d theta - h E, h = theta(f)/f of degree k, is
    always primitive, whatever h is: rho = (x(d x^k - h), y(d y^k - h),
    z(d z^k - h)), k >= 1.  Take an irreducible G dividing all three.  If
    G is prime to x, y and z, it divides d(x^k - y^k) and d(y^k - z^k),
    which are coprime products of distinct lines (those through (0:0:1),
    and those through (1:0:0)).  If G = x, it divides d y^k - h and d z^k
    - h, so d(y^k - z^k), which is nonzero mod x; the same holds for y and
    z.  So there is no G.

    Let c be the lowest such r below d - m and within the bound, else d -
    m; when r passes with 2c <= d - 1, c is the minimum as above, with no
    kernel.  The spaces only grow with degree, so otherwise c is the
    minimum when dim(c - 1) = 0, else it is the first nonzero degree below
    c - 1, else c - 1.  With c above the bound the answer is the first
    nonzero degree to the bound.  Both scans start at m - 1: the pencil
    relation is primitive, so a relation below d - m is independent of it,
    and du Plessis-Wall gives it degree at least (d - 1) - (d - m).
    """
    F, forms, mult = _relation_question(arr)
    top, half = _relation_top(arr, bound), len(forms) - 1
    m = build_lattice(arr).mult[0]
    dims = {}

    def dim(deg):
        if deg not in dims:
            dims[deg] = _derivation_dim(F, forms, mult, _gauged_monomials, deg)
        return dims[deg]

    c, settled = len(forms) - m, 2 * m > len(forms)
    if not settled:
        for r in (k + 1 for k in divisors(lcm(2, F.order))):
            if r >= c or r > top:
                break
            if all(_power_fits(form, r) for form in forms):
                c, settled = r, 2 * r <= half
                break
    if settled:
        if c > top:
            return None, dim
        if 2 * c < half:
            dims[c] = 1
        return c, dim
    if c > top:
        return next((deg for deg in range(m - 1, top + 1) if dim(deg)),
                    None), dim
    if dim(c - 1):
        c = next((deg for deg in range(m - 1, c - 1) if dim(deg)), c - 1)
    return c, dim


def verify_mdr(arr: Arrangement, r_star: int) -> bool:
    """Two-sided certificate that the minimal relation degree is r_star:
    a nonzero relation at r_star, explicit or lifted, and none below it,
    certified by a primitive relation at r_star or by zero relation spaces
    (mdr searched up to r_star, in 0..d-2)."""
    return mdr(arr, r_star) == r_star


def supersolvable_exponents(arr: Arrangement) -> tuple[int, int, int]:
    """Exponents (1, m-1, d-m) sorted, from a maximal modular point,
    certified by the "tjurina" check of check_identities."""
    return _report_exponents(check_identities(arr))


def _report_exponents(report: ClassifyReport) -> tuple[int, int, int]:
    """(1, m-1, d-m) sorted, m the multiplicity of the report's first
    modular point; ValueError when it has none.  Such an arrangement is
    free with these exponents, so CertificationError when the report's
    "tjurina" check, census against free formula, fails."""
    if not report.modular:
        raise ValueError("arrangement is not supersolvable")
    d, m = report.d, report.modular[0][1]
    d2, d3 = sorted((m - 1, d - m))
    tjurina = report.checks["tjurina"]
    if not tjurina.passed:
        raise CertificationError(
            f"Tjurina census {tjurina.lhs} != (d-1)^2 - {d2}*{d3} at d={d}"
        )
    return (1, d2, d3)


# --- restriction to a line as a rank-two multiarrangement ---------------

@dataclass(frozen=True)
class MultiRestriction:
    """Points of an arrangement on one of its lines, with multiplicities.

    One form per lattice point on the line, in coordinates (u, v) on it:
    the forms are pairwise independent.  On construction each form is
    normalized, with leading coefficient one, and the forms are ordered by
    decreasing multiplicity, then by their coefficients, so forms[0]
    carries the largest multiplicity and two orderings of one
    multiarrangement are one value.  The multiplicity of a point counts
    the other lines through it, so it is at least 1.  Malformed input
    raises ValueError.
    """

    field: CycField
    forms: tuple[tuple[CycNumber, CycNumber], ...]
    mult: tuple[int, ...]

    def __post_init__(self):  # the derivation test needs pivot coefficient 1
        forms = [_normalize(self.field, form) for form in self.forms]
        if not forms:
            raise ValueError("a restriction needs at least one form")
        if len(self.mult) != len(forms) or any(len(f) != 2 for f in forms):
            raise ValueError("need one multiplicity per form, each form a pair")
        if any(type(m) is not int or m < 1 for m in self.mult):
            raise ValueError("multiplicities must be positive integers")
        if len(set(forms)) != len(forms):  # normalized: equal iff dependent
            raise ValueError("forms must be pairwise independent")
        points = sorted(zip(self.mult, forms), key=lambda mf: (
            -mf[0], tuple(x.sort_key() for x in mf[1])))
        object.__setattr__(self, "forms", tuple(f for _, f in points))
        object.__setattr__(self, "mult", tuple(m for m, _ in points))

    @property
    def total(self) -> int:
        return sum(self.mult)


def ziegler_restriction(arr: Arrangement, h: int) -> MultiRestriction:
    """Restriction onto line h, read off the certified lattice.

    Coordinates (u, v) on the line are the two variables other than the
    pivot of its normalized form.  A lattice point X on h sits at (u, v) =
    (X[o1], X[o2]), so it is cut out by the form (X[o2], -X[o1]), with
    multiplicity the number of other lines through X; MultiRestriction
    normalizes and orders the forms.
    """
    d = len(arr.lines)
    if type(h) is not int:
        raise ValueError("line index must be an integer")
    if not 0 <= h < d:
        raise ValueError("line index out of range")
    c = arr.lines[h].coords
    piv = next(i for i in range(3) if c[i])
    o1, o2 = (i for i in range(3) if i != piv)
    lat = build_lattice(arr)
    on_h = [(X.coords, len(inc) - 1)
            for X, inc in zip(lat.points, lat.incidence) if h in inc]
    mult = tuple(m for _, m in on_h)
    if sum(mult) != d - 1:
        raise ValueError("restriction multiplicities do not sum to d - 1")
    return MultiRestriction(
        arr.field, tuple((X[o2], -X[o1]) for X, _ in on_h), mult)


def multi_exponents(R: MultiRestriction) -> tuple[int, int]:
    """Exponent pair (d1, d2) of the restriction, d1 <= d2, summing to total.

    A rank-two multiarrangement is free (Ziegler), so d1 is the least
    degree with a nonzero derivation, d1 <= total/2, and the derivations of
    degree d1 span a space of dimension 1 + (2 d1 == total).

    When one point carries half the total or more, 2 m1 >= total for m1 =
    mult[0], the pair is (total - m1, m1) (Wakamiko, 2007), with no
    candidate and no kernel.  Let alpha_1 = cu u + cv v be its form, and
    D1 = -cv d_u + cu d_v, so D1(alpha_1) = 0.  theta1 = prod_{i>1}
    alpha_i^m_i D1 is a derivation of degree total - m1, as each D1(alpha_i),
    i > 1, is a nonzero constant.  A nonzero derivation theta of lower
    degree has degree below m1, so theta(alpha_1) in (alpha_1^m1) forces
    theta(alpha_1) = 0, and theta = g D1.  Then every alpha_i^m_i, i > 1,
    divides g, and deg theta >= total - m1.

    When total < 2s, s the number of points, the pair is (total - s + 1,
    s - 1) sorted, again with no candidate and no kernel.  Let E = u d_u +
    v d_v and theta a nonzero derivation of degree e.  det(theta, E) has
    degree e + 1 and lies in (alpha) for each form alpha, as theta(alpha)
    is in (alpha) and E(alpha) = alpha, so prod alpha divides it.  If it
    is nonzero, e >= s - 1.  If it is zero, theta = g E with g alpha in
    (alpha^m), so prod alpha^(m - 1) divides g and e >= total - s + 1.  So
    d1 >= min(total - s + 1, s - 1).  prod alpha^(m - 1) E is a derivation
    of degree total - s + 1, which is d1 when total <= 2s - 2; when total =
    2s - 1, d1 <= total/2 leaves d1 = s - 1.

    Otherwise d1 is the least r = k + 1, k | lcm(2, n), max m <= r <=
    total/2 (the order of every root of unity -b in Q(zeta_n) divides
    lcm(2, n)), at which a Ziegler image of x^r d_x + y^r d_y + z^r d_z is
    a derivation (_power_images_pass): it is primitive, and two
    independent derivations have degrees summing to at least total
    (Ziegler: their determinant is divisible by prod alpha^m), so a lower
    one would be a multiple of it or independent of it.  I = u^r d_u +
    v^r d_v, II = (1-r) u^r d_u + (v^r - r u^(r-1) v) d_v and III = (u^r -
    r u v^(r-1)) d_u + (1-r) v^r d_v pass when each normalized form meets
    its entry (* for (-b)^(r-1) = 1):

        form       I          II         III
        v          m <= r     m = 1      m <= r
        u          m <= r     m <= r     m = 1
        u + b v    * m = 1    * m <= 2   * m <= 2

    theta(v) is v^r, v (v^(r-1) - r u^(r-1)), (1-r) v^r, and theta(u)
    likewise.  At u = -b v, b != 0, I(u + b v) = u^r + b v^r has a simple
    root when (-b)^(r-1) = 1; II(u + b v) takes v^r ((-b)^r + b), its first
    u-derivative vanishes, and its second is r (r-1) b (-b)^(r-3) v^(r-2)
    != 0; III is II with u and v swapped, b for 1/b.  Else d1 is the first
    degree whose certified dimension (_derivation_dim) is nonzero;
    CertificationError if no degree <= total/2 has a derivation.  The scan
    starts at max(m1, s - 1): on a balanced restriction a derivation below
    m1 has degree at least total - m1 > m1 (Wakamiko's argument above), and
    total >= 2s leaves d1 >= s - 1 (the count argument).
    """
    m1, total, s = R.mult[0], R.total, len(R.forms)
    if not is_balanced(R):
        return (total - m1, m1)
    if total < 2 * s:
        return tuple(sorted((total - s + 1, s - 1)))
    d1 = next((k + 1 for k in divisors(lcm(2, R.field.order))
               if m1 <= k + 1 <= total // 2
               and any(_power_images_pass(R, k + 1))), None)
    if d1 is None:
        d1 = next((deg for deg in range(max(m1, s - 1), total // 2 + 1)
                   if _derivation_dim(R.field, R.forms, R.mult,
                                      _binary_monomials, deg)), None)
    if d1 is None:
        raise CertificationError(
            f"no derivation of degree <= {total // 2} of total {total}"
        )
    return (d1, total - d1)


def _power_images_pass(R: MultiRestriction, r: int) -> list[bool]:
    """Whether each power image I, II, III of degree r >= 2 is a derivation
    of R, read off its forms and multiplicities (multi_exponents' table)."""
    caps = [(r, 1, r) if not a else (r, r, 1) if not b else (1, 2, 2)
            if _power_fits((a, b), r) else (0, 0, 0) for a, b in R.forms]
    return [all(m <= cap[i] for cap, m in zip(caps, R.mult)) for i in range(3)]


def is_balanced(R: MultiRestriction) -> bool:
    """No single point carries half the total multiplicity or more."""
    return 2 * max(R.mult) < R.total


# --- nodes of a generic arrangement --------------------------------------

def nodal_vanishing_dimension(arr: Arrangement) -> int:
    """dim of the degree-(d'-1) forms vanishing at all nodes, d' lines with
    double points only: d', the last entry of nodal_dimension_profile."""
    return nodal_dimension_profile(arr)[-1]


def nodal_dimension_profile(arr: Arrangement) -> list[int]:
    """dim of the degree-r forms vanishing at all nodes, r = 0..d-1: 0
    below d - 1 and d at d - 1, a theorem, so nothing is built or asked
    (the nodes form a star configuration: A. Geramita, B. Harbourne and J.
    Migliore, "Star configurations in P^n", J. Algebra, 2013).

    The input has d >= 2 lines (the lattice refuses fewer) and double
    points only, else ValueError.  r <= d - 2 gives 0: each line L_i holds
    d - 1 distinct nodes, so a form F of degree r < d - 1 vanishing at them
    restricts to zero on L_i, and L_i divides F; all d distinct lines then
    divide F, so F = 0.  r = d - 1 gives at least d: P_i, the product of
    the lines other than L_i, vanishes at every node, as a node lies on two
    lines and one of them is not L_i; on L_i only P_i is nonzero, so the
    P_i are independent.  r = d - 1 gives at most d: for F vanishing at the
    nodes, F|L_1 and P_1|L_1 != 0 have degree d - 1 and vanish at the same
    d - 1 distinct points, so F - c P_1 = L_1 G for some c, and G, of
    degree d - 2, vanishes at the nodes of the other d - 1 lines, again
    generic.  By induction on d, from d = 2 (the linear forms through one
    point, of dimension 2), F lies in a space of dimension 1 + (d - 1).
    """
    lat = build_lattice(arr)
    if lat.mult[0] != 2:
        raise ValueError("non-nodal input")
    return [0] * (lat.d - 1) + [lat.d]
