import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_linalg
import linarr.algebra as alg
import linarr.linalg as la
from exact_linalg import kernel_basis, kernel_vector, nullity, rank
from linarr.algebra import (
    MultiRestriction,
    Poly,
    _binary_monomials,
    _derivation_dim,
    _derivation_rows,
    _gauged_monomials,
    _is_derivation,
    _node_rows,
    _parts,
    _pencil_derivation,
    _power_derivation,
    _relation_candidates,
    _relation_question,
    defining_polynomial,
    is_balanced,
    mdr,
    multi_exponents,
    nodal_vanishing_dimension,
    partial_products,
    supersolvable_exponents,
    syzygy_dimension,
    verify_mdr,
    ziegler_restriction,
)
from linarr.campaigns import _standard_pool
from linarr.classify import (
    is_pencil,
    is_supersolvable,
    modular_indices,
    modular_points,
    tjurina_census,
)
from linarr.families import (
    ConeSpec,
    a_of_w,
    adversarial_vertex,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
    near_pencil,
    pencil,
)
from linarr.field import CertificationError, CycNumber, cyc_field, divisors
from linarr.projgeo import (
    Arrangement,
    ProjLine,
    _normalize,
    _ortho_pair,
    apply_transform,
    build_lattice,
    random_invertible_matrix,
)


def expand_factors(F, factors):
    """Independent expansion: one variable chosen per factor, accumulated."""
    terms = {(0, 0, 0): F.one}
    for coeffs in factors:
        new = {}
        for mono, c in terms.items():
            for var in range(3):
                cv = coeffs[var]
                if not cv:
                    continue
                m = list(mono)
                m[var] += 1
                m = tuple(m)
                s = new.get(m)
                s = c * cv if s is None else s + c * cv
                if s:
                    new[m] = s
                elif m in new:
                    del new[m]
        terms = new
    return terms


def deriv(poly, var):
    """Partial derivative of a Poly in variable var."""
    terms = {}
    for mono, c in poly.terms.items():
        if mono[var]:
            m = list(mono)
            m[var] -= 1
            terms[tuple(m)] = c * mono[var]
    return Poly(poly.field, terms)


def div_linear(poly, coeffs):
    """Exact quotient of a Poly by the linear form with the given
    coefficients, by synthetic division in the pivot variable: the oracle
    for _is_derivation.  Raises ValueError when the form does not divide."""
    F = poly.field
    if not poly.terms:
        return Poly.zero(F)
    piv = next((i for i in range(3) if coeffs[i]), None)
    if piv is None:
        raise ValueError("zero linear form")
    inv = F.one / coeffs[piv]
    rest = Poly(F, {
        tuple(int(k == i) for k in range(3)): c
        for i, c in enumerate(coeffs) if i != piv and c
    })
    # Slice by the pivot exponent and run synthetic division from the top.
    slices = {}
    for mono, c in poly.terms.items():
        m = list(mono)
        m[piv] = 0
        slices.setdefault(mono[piv], Poly(F)).terms[tuple(m)] = c
    top = max(slices)
    if top == 0:
        raise ValueError("linear form does not divide")
    zero = Poly.zero(F)
    quot = {top - 1: slices[top] * inv}
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
    return Poly(F, terms)


def conv(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _gauged_rows(lines, r, zero, one):
    """Oracle for the relation rows of _derivation_rows: the gauged
    columns (a and b on the degree-r monomials, c on the z-free ones), each
    line parametrized by two points on it, s P + t Q, and the r + 1
    coefficients in (s, t) of theta(alpha) restricted to it."""
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    zfree = [m for m in mons if m[2] == 0]
    rows = []
    for coeffs in lines:
        P, Q = _ortho_pair(coeffs, zero)
        pw = []
        for v in range(3):
            tab = [[one]]
            for _ in range(r):
                tab.append(conv(tab[-1], [P[v], Q[v]], zero))
            pw.append(tab)
        restr = {m: conv(conv(pw[0][m[0]], pw[1][m[1]], zero), pw[2][m[2]],
                         zero) for m in mons}
        for t in range(r + 1):
            rows.append([c * restr[m][t] if c else zero
                         for c, group in zip(coeffs, (mons, mons, zfree))
                         for m in group])
    return rows


def _restriction_rows(forms, mult, deg, zero, one):
    """Oracle for the restriction rows of _derivation_rows: in coordinates
    (s, t) built from the point Z = (-cv, cu) on alpha and W = (1, 0) or
    (0, 1) off it, alpha is a scalar times t, so alpha^m divides
    theta(alpha) when its first min(m, deg + 1) coefficients in t vanish.
    Columns hold P, then Q, on the monomials u^(deg-j) v^j."""
    rows = []
    for (cu, cv), m in zip(forms, mult):
        Z, W = (-cv, cu), ((one, zero) if cu else (zero, one))
        pwu, pwv = [[one]], [[one]]
        for _ in range(deg):
            pwu.append(conv(pwu[-1], [Z[0], W[0]], zero))
            pwv.append(conv(pwv[-1], [Z[1], W[1]], zero))
        restr = [conv(pwu[deg - j], pwv[j], zero) for j in range(deg + 1)]
        for i in range(min(m, deg + 1)):
            rows.append([c * x[i] for c in (cu, cv) for x in restr])
    return rows


def _derives(R, deg, vec):
    """Oracle for the restriction check of _is_derivation on a flat vector
    vec = (P, Q): 2 deg + 2 coefficients, not all zero, and each
    cu P + cv Q divisible by alpha^min(mult, deg + 1), by synthetic division
    at v = 1 by the root -cv/cu, or on the leading coefficients when
    cu = 0."""
    if len(vec) != 2 * deg + 2 or not any(vec):
        return False
    for (cu, cv), m in zip(R.forms, R.mult):
        g = [cu * a + cv * b for a, b in zip(vec[:deg + 1], vec[deg + 1:])]
        k = min(m, deg + 1)
        if not cu:
            if any(g[:k]):
                return False
            continue
        root = -cv / cu
        for _ in range(k):
            quot = [g[0]]
            for c in g[1:]:
                quot.append(c + root * quot[-1])
            if quot.pop():
                return False
            g = quot
    return True


def is_relation(arr, deg, theta):
    """The relation question's exact check on theta, one {monomial:
    coefficient} map per variable."""
    return _is_derivation(*_relation_question(arr), deg, theta)


def binary(vec):
    """A flat vector (P, Q) as the derivation it holds, at the degree its
    length gives."""
    return _parts(_binary_monomials(len(vec) // 2 - 1), vec)


def flat(R, theta, deg):
    """The derivation theta of R as the flat vector (P, Q) of degree
    deg."""
    return [part.get(m, R.field.zero) for part, group in zip(
        theta, _binary_monomials(deg)) for m in group]


def derives(R, deg, vec):
    """The restriction's exact check on a flat vector vec = (P, Q)."""
    return _is_derivation(R.field, R.forms, R.mult, deg, binary(vec))


def restriction_dim(R, deg):
    return _derivation_dim(R.field, R.forms, R.mult, _binary_monomials, deg)


def eval_factors(factors, coords):
    total = None
    for cs in factors:
        v = cs[0] * coords[0] + cs[1] * coords[1] + cs[2] * coords[2]
        total = v if total is None else total * v
    return total


def test_poly_arithmetic():
    F = cyc_field(1)
    x = Poly.from_linear(F, (F.one, F.zero, F.zero))
    y = Poly.from_linear(F, (F.zero, F.one, F.zero))
    prod = (x + y) * (x - y)
    assert prod.terms == {(2, 0, 0): F.one, (0, 2, 0): -F.one}
    assert prod.degree() == 2
    assert deriv(prod, 0).terms == {(1, 0, 0): F.scalar(2)}
    q = div_linear(prod, (F.one, F.one, F.zero))
    assert q == x - y
    with pytest.raises(ValueError):
        div_linear(prod, (F.one, F.one, F.one))


def test_defining_polynomial_two_lines():
    arr = pencil(2)
    f = defining_polynomial(arr)
    F = arr.field
    assert f.terms == {(1, 1, 0): F.one}


def test_braid_sextic_expansion():
    arr = full_monomial(1)
    f = defining_polynomial(arr)
    F = arr.field
    one = F.one
    # xyz(x-y)(y-z)(x-z) expanded by hand
    expected = {
        (3, 2, 1): one,
        (3, 1, 2): -one,
        (2, 3, 1): -one,
        (2, 1, 3): one,
        (1, 3, 2): one,
        (1, 2, 3): -one,
    }
    assert f.terms == expected
    factors = [l.coords for l in arr.lines]
    assert expand_factors(F, factors) == expected
    rng = random.Random(11)
    for _ in range(5):
        pt = tuple(F.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                   for _ in range(3))
        assert f.eval3(pt) == eval_factors(factors, pt)


def test_aw_product_matches_factored_form():
    arr = a_of_w(2, (0,))
    F = arr.field
    f = defining_polynomial(arr)
    assert f.degree() == 8
    factors = [l.coords for l in arr.lines]
    assert f.terms == expand_factors(F, factors)
    # same factor content as xyz(x^2-y^2)(x^2-z^2)(y-z)
    one, zero = F.one, F.zero
    stated = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (one, -one, zero),
        (one, one, zero),
        (one, zero, -one),
        (one, zero, one),
        (zero, one, -one),
    ]
    assert {l.coords for l in arr.lines} == set(stated)
    rng = random.Random(3)
    pt = tuple(F.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
               for _ in range(3))
    assert f.eval3(pt) == eval_factors(stated, pt)


def test_mdr_pencils():
    assert mdr(pencil(2)) == 0
    assert mdr(pencil(5)) == 0
    assert mdr(near_pencil(6)) == 1
    assert mdr(near_pencil(4)) == 1


def test_mdr_braid():
    assert mdr(full_monomial(1)) == 2


def test_mdr_generic_needs_wide_bound():
    arr4 = generic_arrangement(4, seed=5)
    arr5 = generic_arrangement(5, seed=5)
    assert mdr(arr4, bound=2) == 2
    assert mdr(arr5, bound=3) == 3
    assert mdr(arr5) is None  # default bound (d-1)//2 = 2 stops short


def test_mdr_bound_validation():
    arr = full_monomial(1)
    with pytest.raises(ValueError):
        mdr(arr, bound=5)
    assert mdr(arr, bound=4) == 2
    # a negative bound is refused, as verify_mdr refuses r_star < 0, not
    # answered with an empty search
    for bound in (-1, -7):
        with pytest.raises(ValueError, match="between 0 and d-2"):
            mdr(arr, bound=bound)
    assert mdr(arr, bound=0) is None
    # a bound that is not an int is refused, not compared or taken as 1
    for arr, bound in ((full_monomial(2), 2.5), (full_monomial(2), 2.0),
                       (full_monomial(1), True)):
        with pytest.raises(ValueError, match="must be an integer"):
            mdr(arr, bound=bound)
    with pytest.raises(ValueError, match="must be an integer"):
        verify_mdr(full_monomial(2), 2.0)


def test_ziegler_line_index_validation():
    arr = full_monomial(1)
    for h in (1.0, True, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            ziegler_restriction(arr, h)
    for h in (-1, len(arr.lines)):
        with pytest.raises(ValueError, match="out of range"):
            ziegler_restriction(arr, h)


def test_verify_mdr_certificates():
    braid = full_monomial(1)
    assert verify_mdr(braid, 2)
    assert not verify_mdr(braid, 1)
    assert not verify_mdr(braid, 3)
    assert verify_mdr(pencil(7), 0)
    assert verify_mdr(near_pencil(6), 1)
    aw = a_of_w(3, (0,))
    assert verify_mdr(aw, 4)
    with pytest.raises(ValueError):
        verify_mdr(braid, 5)


def test_supersolvable_exponents_values():
    assert supersolvable_exponents(full_monomial(1)) == (1, 2, 3)
    aw = a_of_w(3, (0,))
    assert supersolvable_exponents(aw) == (1, 4, 5)
    assert tjurina_census(build_lattice(aw)) == 61
    assert supersolvable_exponents(near_pencil(7)) == (1, 1, 5)
    assert supersolvable_exponents(pencil(4)) == (1, 0, 3)
    with pytest.raises(ValueError):
        supersolvable_exponents(generic_arrangement(5, seed=2))


def test_ziegler_pencil_and_near_pencil():
    R = ziegler_restriction(pencil(5), 0)
    assert R.mult == (4,)
    assert R.total == 4
    arr = near_pencil(6)
    z_index = next(
        i for i, l in enumerate(arr.lines)
        if l.coords == (arr.field.zero, arr.field.zero, arr.field.one)
    )
    R = ziegler_restriction(arr, z_index)
    assert R.mult == (1,) * 5
    assert len(R.forms) == 5


def test_ziegler_braid_line():
    arr = full_monomial(1)
    F = arr.field
    x_index = next(
        i for i, l in enumerate(arr.lines)
        if l.coords == (F.one, F.zero, F.zero)
    )
    R = ziegler_restriction(arr, x_index)
    # in coordinates (y, z) on x = 0: z = 0 is cut by z and x - z, y = 0 by
    # y and x - y, and y = z by y - z
    assert R.forms == ((F.zero, F.one), (F.one, F.zero), (F.one, -F.one))
    assert R.mult == (2, 2, 1)
    assert R.total == 5


def _over_q_zeta_8(arr):
    """An arrangement over Q(i) = Q(zeta_4) written over Q(zeta_8), with
    i = zeta_8^2."""
    F = cyc_field(8)
    i = F.zeta_pow(2)

    def lift(x):
        return F.scalar(x.coeffs[0]) + i * x.coeffs[1]

    return Arrangement(
        F, [ProjLine(F, [lift(c) for c in line.coords]) for line in arr.lines]
    )


def _grouped_restriction(arr, h):
    """Oracle for ziegler_restriction's forms and multiplicities: restrict
    every other line to h, normalize, and group equal forms, by decreasing
    multiplicity, then by coefficients."""
    F = arr.field
    c = arr.lines[h].coords
    piv = next(i for i in range(3) if c[i])
    o1, o2 = (i for i in range(3) if i != piv)
    groups = {}
    for j, line in enumerate(arr.lines):
        if j != h:
            l = line.coords
            form = _normalize(
                F, (l[o1] - l[piv] * c[o1], l[o2] - l[piv] * c[o2]))
            groups[form] = groups.get(form, 0) + 1
    ordered = sorted(groups.items(), key=lambda fm: (
        -fm[1], tuple(x.sort_key() for x in fm[0])))
    return tuple(f for f, _ in ordered), tuple(m for _, m in ordered)


def test_ziegler_restriction_matches_per_line_grouping():
    # Read off the lattice, every restriction has the forms, multiplicities
    # and order of grouping the restricted lines one by one.
    arrs = [full_monomial(3), full_monomial(6), pencil(5), near_pencil(6),
            a_of_w(4, (0, 1)), a_of_w(5, (0, 2, 3)),
            generic_arrangement(5, seed=1), _over_q_zeta_8(full_monomial(4))]
    for seed in (1, 2):
        base = generic_arrangement(5, seed=seed)
        for vertex in (generic_vertex, adversarial_vertex):
            arrs.append(cone(ConeSpec(base, vertex(base, seed=seed), 1, seed)))
    checked = 0
    for arr in arrs:
        for h in range(len(arr.lines)):
            R = ziegler_restriction(arr, h)
            assert (R.forms, R.mult) == _grouped_restriction(arr, h)
            checked += 1
    assert len(arrs) == 12 and checked > 150


def test_ziegler_restriction_normalizes_one_form_per_point(monkeypatch):
    # One normalized form per lattice point on the line, not one per other
    # line: on full_monomial(3) each line meets the other 11 in fewer points.
    # Each form is normalized once, by MultiRestriction, which normalizes
    # and orders the forms it is given.
    arr = full_monomial(3)
    lat = build_lattice(arr)
    calls = []
    normalize = alg._normalize
    monkeypatch.setattr(alg, "_normalize", lambda F, pair: (
        calls.append(pair) or normalize(F, pair)))
    for h in range(len(arr.lines)):
        del calls[:]
        R = ziegler_restriction(arr, h)
        on_h = sum(h in inc for inc in lat.incidence)
        assert len(calls) == on_h == len(R.forms)
        assert on_h < len(arr.lines) - 1


def test_multi_exponents_boundary_cases():
    F = cyc_field(1)
    one, zero = F.one, F.zero
    single = MultiRestriction(F, ((one, zero),), (4,))
    assert multi_exponents(single) == (0, 4)
    simple3 = MultiRestriction(
        F, ((one, zero), (zero, one), (one, -one)), (1, 1, 1)
    )
    assert multi_exponents(simple3) == (1, 2)


def test_multi_exponents_braid_restriction():
    arr = full_monomial(1)
    F = arr.field
    x_index = next(
        i for i, l in enumerate(arr.lines)
        if l.coords == (F.one, F.zero, F.zero)
    )
    R = ziegler_restriction(arr, x_index)
    assert multi_exponents(R) == (2, 3)


def test_multi_exponents_match_restriction_of_free_triples():
    # restriction exponents drop the 1 from (1, d2, d3)
    cases = [
        (pencil(5), 0, (0, 4)),
        (near_pencil(6), None, (1, 4)),
    ]
    arr, idx, want = cases[0]
    assert multi_exponents(ziegler_restriction(arr, idx)) == want
    arr, _, want = cases[1]
    F = arr.field
    z_index = next(
        i for i, l in enumerate(arr.lines)
        if l.coords == (F.zero, F.zero, F.one)
    )
    assert multi_exponents(ziegler_restriction(arr, z_index)) == want


def _max_modular_lines(arr):
    mods = modular_points(arr)
    m = max(mult for _, mult in mods)
    out = []
    for p, mult in mods:
        if mult != m:
            continue
        for i, line in enumerate(arr.lines):
            if line.contains(p):
                out.append(i)
    return m, out


def test_restriction_exponents_on_modular_lines():
    for arr in (full_monomial(2), a_of_w(4, (0, 2)), near_pencil(6)):
        d = len(arr.lines)
        m, line_idxs = _max_modular_lines(arr)
        want = tuple(sorted((m - 1, d - m)))
        for i in line_idxs:
            R = ziegler_restriction(arr, i)
            assert multi_exponents(R) == want


def test_malformed_multi_restriction_rejected():
    # Over Q, (2, 2) is the point (1, 1) again, so it cannot be a fourth
    # point: the multiarrangement it would mean is three points with
    # multiplicities (1, 1, 2), whose exponents are (2, 2), not the (1, 3)
    # of four distinct points.
    F = cyc_field(1)
    one, zero, two = F.one, F.zero, F.scalar(2)
    three = ((one, zero), (zero, one), (one, one))
    merged = MultiRestriction(F, three, (1, 1, 2))
    assert multi_exponents(merged) == (2, 2)
    for forms, mult, message in (
        (three + ((two, two),), (1, 1, 1, 1), "pairwise independent"),
        (three, (1, 1), "one multiplicity per form"),
        (three, (1, 1, 1, 1), "one multiplicity per form"),
        (three[:2] + ((one, one, one),), (1, 1, 1), "each form a pair"),
        (three[:2], (-1, 1), "positive"),
        (three[:2], (0, 0), "positive"),
        (three, (True, 1, 1), "integers"),
        (three, (1.5, 1, 1), "integers"),
        (three, (2.0, 1, 1), "integers"),
        ((), (), "at least one form"),
    ):
        with pytest.raises(ValueError, match=message):
            MultiRestriction(F, forms, mult)


def test_balancedness():
    F = cyc_field(1)
    one, zero = F.one, F.zero
    braid_like = MultiRestriction(
        F, ((one, zero), (zero, one), (one, -one)), (2, 2, 1)
    )
    assert is_balanced(braid_like)
    assert not is_balanced(MultiRestriction(F, ((one, zero),), (4,)))
    four = MultiRestriction(
        F,
        ((one, zero), (zero, one), (one, -one), (one, one)),
        (3, 1, 1, 1),
    )
    assert not is_balanced(four)


def test_balanced_exponent_gap_bound():
    # |d2 - d1| <= s - 2 whenever balanced
    arr = full_monomial(2)
    _, line_idxs = _max_modular_lines(arr)
    for i in line_idxs:
        R = ziegler_restriction(arr, i)
        if is_balanced(R):
            d1, d2 = multi_exponents(R)
            assert d2 - d1 <= len(R.forms) - 2
    braid = full_monomial(1)
    _, line_idxs = _max_modular_lines(braid)
    R = ziegler_restriction(braid, line_idxs[0])
    assert is_balanced(R)
    d1, d2 = multi_exponents(R)
    assert d2 - d1 <= len(R.forms) - 2


def _exact_multi_dim(R, deg):
    F = R.field
    rows = _restriction_rows(R.forms, R.mult, deg, F.zero, F.one)
    return nullity(rows, 2 * deg + 2)


def _scan_exponents(R):
    """Reference exponents: the least degree with exact nullity > 0, by the
    oracle's elimination."""
    p = 0
    while _exact_multi_dim(R, p) == 0:
        p += 1
    return (p, R.total - p)


def _cone_over_q(dprime, seed, extra):
    base = generic_arrangement(dprime, seed=seed)
    return cone(ConeSpec(base, generic_vertex(base, seed=seed), extra, seed))


def _scan_restrictions():
    """Restrictions on maximal modular lines of the standard pool, and on
    every line of two cones over Q."""
    restrictions = []
    for _, arr in _standard_pool(0, 3, 4):
        if is_pencil(arr) or not is_supersolvable(arr):
            continue
        _, line_idxs = _max_modular_lines(arr)
        restrictions += [ziegler_restriction(arr, i) for i in set(line_idxs)]
    for seed in (1, 2):
        arr = _cone_over_q(4, seed, 1)
        restrictions += [
            ziegler_restriction(arr, i) for i in range(len(arr.lines))
        ]
    assert len(restrictions) > 100
    return restrictions


def test_multi_exponents_match_exact_scan():
    for R in _scan_restrictions():
        want = _scan_exponents(R)
        assert multi_exponents(R) == want
        # the certified dimensions the CLI prints as degree_dims
        for deg in range(want[0] + 1):
            assert restriction_dim(R, deg) == _exact_multi_dim(R, deg)


@st.composite
def restrictions(draw):
    n = draw(st.sampled_from((1, 3, 4, 5, 8)))
    F = cyc_field(n)
    coeff = st.integers(-3, 3)
    slopes = draw(st.lists(
        st.tuples(*[coeff] * F.degree), min_size=1, max_size=5, unique=True,
    ))
    forms = [(F.one, F.element(c)) for c in slopes]
    if draw(st.booleans()):
        forms.append((F.zero, F.one))
    mult = draw(st.lists(
        st.integers(1, 3), min_size=len(forms), max_size=len(forms),
    ))
    order = draw(st.permutations(range(len(forms))))
    return F, forms, mult, order


@settings(max_examples=25, deadline=None)
@given(restrictions())
def test_multi_exponents_property(case):
    F, forms, mult, order = case
    R = MultiRestriction(F, tuple(forms), tuple(mult))
    shuffled = MultiRestriction(
        F, tuple(forms[i] for i in order), tuple(mult[i] for i in order)
    )
    want = _scan_exponents(R)
    assert multi_exponents(R) == want
    assert multi_exponents(shuffled) == want


def _route_log(monkeypatch):
    """Record in order the exact derivation checks, the coprimality
    certificates (by degree, with their answer), the certified nullities
    (by column count, with their answer) and the kernel vectors lifted that
    algebra asks."""
    log = []
    quotients, coprime = alg._quotients, alg.certified_coprime
    nullity, lift = alg.certified_nullity, la.lift_flat_vector

    def spy_check(F, forms, mult, deg, theta):
        out = quotients(F, forms, mult, deg, theta)
        log.append(("check", deg, out is not None))
        return out

    def spy_coprime(F, deg, forms):
        ok = coprime(F, deg, forms)
        log.append(("coprime", deg, ok))
        return ok

    def spy_nullity(F, ncols, *args):
        k = nullity(F, ncols, *args)
        log.append(("nullity", ncols, k))
        return k

    def spy_lift(*args):
        log.append(("lift",))
        return lift(*args)

    monkeypatch.setattr(alg, "_quotients", spy_check)
    monkeypatch.setattr(alg, "certified_coprime", spy_coprime)
    monkeypatch.setattr(alg, "certified_nullity", spy_nullity)
    monkeypatch.setattr(la, "lift_flat_vector", spy_lift)
    return log


def _wide_restrictions():
    """Hand-built restrictions that no closed form answers: balanced, with
    total >= 2s, s the number of points, over Q and Q(zeta_4), in general
    position, so no power image passes.  Among them are mult (2, 2, 2) and
    (2, 2, 2, 2), at total = 2s, with exponents (3, 3) and (4, 4), not the
    count bound's (total - s + 1, s - 1)."""
    out = []
    for n in (1, 4):
        F = cyc_field(n)
        forms = [(F.one, F.zero), (F.zero, F.one), (F.one, F.one),
                 (F.one, F.scalar(2) + F.zeta_pow(1)), (F.one, F.scalar(-3))]
        for mult in ((2, 2, 2), (2, 2, 2, 2), (3, 2, 2), (3, 3, 2),
                     (3, 2, 2, 2)):
            out.append(MultiRestriction(F, tuple(forms[:len(mult)]), mult))
    return out


def test_multi_exponents_certifies_a_primitive_candidate_with_no_kernel(
        monkeypatch):
    # An unbalanced restriction, 2 max m >= total, and a balanced one with
    # total < 2s, s its number of points, boundaries included, are answered
    # in closed form: no candidate is checked and nothing is asked.  On any
    # other, d1 is the least degree at which a power image is a
    # derivation, read off the forms and multiplicities by a table: each
    # image is primitive, and two independent derivations have degrees
    # summing to at least total (Ziegler), so no exact check, coprimality
    # or kernel is asked.  That degree is the lowest candidate of the
    # oracle that passes the exact check.  A restriction with no passing
    # image (hand-built in general position) asks each degree once, up to
    # the first nonzero one, d1, where a kernel vector is lifted.
    log = _route_log(monkeypatch)
    closed = boundary = counted = edge = settled = scanned = 0
    for R in _scan_restrictions() + _wide_restrictions():
        passing = [deg for deg, theta in _restriction_candidates(R)
                   if _is_derivation(R.field, R.forms, R.mult, deg, theta)]
        del log[:]
        d1, _ = multi_exponents(R)
        s = len(R.forms)
        if not is_balanced(R):
            assert log == [] and d1 == R.total - max(R.mult)
            closed += 1
            boundary += 2 * max(R.mult) == R.total
            continue
        if R.total < 2 * s:
            assert log == [] and d1 == min(R.total - s + 1, s - 1)
            counted += 1
            edge += R.total == 2 * s - 1
            continue
        if ("lift",) in log:
            assert passing == []
            asked = [event[1:] for event in log if event[0] == "nullity"]
            assert asked[:-1] == [(2 * deg + 2, 0) for deg in range(d1)]
            assert asked[-1][0] == 2 * d1 + 2 and asked[-1][1] > 0
            assert all(event[0] != "coprime" for event in log)
            scanned += 1
            continue
        assert log == [] and d1 == min(passing)
        settled += 1
    assert closed > 100 and boundary > 20 and counted > 30 and edge > 20
    assert settled > 25 and scanned >= 10


def _power_images(F, r):
    """The Ziegler images I, II, III of x^r d_x + y^r d_y + z^r d_z on a
    restriction, in closed form: u^r d_u + v^r d_v, (1-r) u^r d_u + (v^r -
    r u^(r-1) v) d_v and (u^r - r u v^(r-1)) d_u + (1-r) v^r d_v."""
    one, a, b = F.one, F.scalar(1 - r), F.scalar(-r)
    return [[{(r, 0): one}, {(0, r): one}],
            [{(r, 0): a}, {(0, r): one, (r - 1, 1): b}],
            [{(r, 0): one, (1, r - 1): b}, {(0, r): a}]]


def _restriction_candidates(R):
    """Oracle for the power images that multi_exponents decides by its
    table: (degree, derivation) of I, II and III at each r = k + 1, k
    dividing the field order, with max m <= r <= total/2, for the exact
    check to decide."""
    return [(k + 1, theta) for k in divisors(R.field.order)
            if max(R.mult) <= k + 1 <= R.total // 2
            for theta in _power_images(R.field, k + 1)]


def _power_image(F, c1, c2, r):
    """Oracle for the power images of _restriction_candidates: the Ziegler
    image on the line x_piv = w, w = -(c1 u + c2 v), of theta = x^r d_x +
    y^r d_y + z^r d_z, as it was built from the parent line.  theta' =
    theta - (theta(a)/a) E with a the line's form kills a, and restricts to
    P then Q on the monomials u^(r-j) v^j.  theta(a) = x_piv^r + c1 u^r +
    c2 v^r vanishes on the line exactly when c1 c2 = 0 and (-c)^(r-1) = 1
    for c = c1, c2 nonzero; then theta(a)/a restricts to its
    x_piv-derivative r w^(r-1).  None when theta(a) does not vanish
    there."""
    if c1 and c2 or any(c and (-c) ** (r - 1) != F.one for c in (c1, c2)):
        return None
    g = [F.scalar(r)]
    for _ in range(r - 1):
        g = conv(g, [-c1, -c2], F.zero)
    P = [-x for x in g] + [F.zero]
    Q = [F.zero] + [-x for x in g]
    P[0] = P[0] + F.one
    Q[r] = Q[r] + F.one
    return P + Q


def test_power_images_read_off_the_restriction():
    # Every image the parent line gives, of degree r <= total/2, is one of
    # the closed forms offered from the restriction alone when r >= max m;
    # below max m it fails the exact check, so leaving it out loses nothing.
    arrs = [full_monomial(n) for n in range(1, 7)] + [
        a_of_w(4, (0, 1)), a_of_w(5, (0, 2, 3)),
        _over_q_zeta_8(full_monomial(4)),
        apply_transform(full_monomial(3),
                        random_invertible_matrix(random.Random(0)))]
    offered = rejected = 0
    for arr in arrs:
        F = arr.field
        for h, line in enumerate(arr.lines):
            R = ziegler_restriction(arr, h)
            c = line.coords
            piv = next(i for i in range(3) if c[i])
            o1, o2 = (i for i in range(3) if i != piv)
            for k in divisors(F.order):
                r = k + 1
                vec = _power_image(F, c[o1], c[o2], r)
                if vec is None or 2 * r > R.total:
                    continue
                if r >= max(R.mult):
                    assert vec in [flat(R, theta, deg) for deg, theta
                                   in _restriction_candidates(R) if deg == r]
                    offered += 1
                else:
                    assert not derives(R, r, vec)
                    rejected += 1
    assert offered > 100 and rejected > 10


def test_modular_lines_take_a_power_image_without_a_lift(monkeypatch):
    # On every line through the first modular point, the exponents
    # (m-1, d-m) are settled by a power image at r = max m, read off the
    # restriction by the table, with no exact check, no coprimality and no
    # kernel asked: the oracle's exact check passes an image at max m and
    # none below, and the table passes exactly the images it passes.
    log = _route_log(monkeypatch)
    pinned = 0
    for arr in (a_of_w(4, (0, 1)), a_of_w(5, (0, 2, 3)), full_monomial(3),
                _over_q_zeta_8(full_monomial(4))):
        lat = build_lattice(arr)
        top = modular_indices(arr)[0]
        m, d = lat.mult[top], len(arr.lines)
        for h in lat.incidence[top]:
            R = ziegler_restriction(arr, h)
            r = max(R.mult)
            assert is_balanced(R) and R.total >= 2 * len(R.forms)
            exact = [_is_derivation(R.field, R.forms, R.mult, r, theta)
                     for theta in _power_images(R.field, r)]
            assert any(exact) and alg._power_images_pass(R, r) == exact
            assert not any(
                _is_derivation(R.field, R.forms, R.mult, deg, theta)
                for deg in range(2, r) for theta in _power_images(R.field, deg))
            del log[:]
            assert multi_exponents(R) == tuple(sorted((m - 1, d - m)))
            assert log == []
            pinned += 1
    assert pinned > 20


def test_multi_exponents_raises_when_no_degree_certifies(monkeypatch):
    # With no power image passing and every certified dimension zero up to
    # total/2, no d1 is certified: the scan asks each degree once, then
    # CertificationError.  Only a balanced restriction with total >= 2s
    # reaches the images and the scan: any other is answered in closed
    # form.
    asked = []
    monkeypatch.setattr(alg, "_power_images_pass",
                        lambda R, r: [False] * 3)
    monkeypatch.setattr(alg, "_derivation_dim",
                        lambda F, forms, mult, monomials, deg:
                        asked.append(deg) or 0)
    balanced = [R for R in _scan_restrictions() + _wide_restrictions()
                if is_balanced(R) and R.total >= 2 * len(R.forms)]
    assert len(balanced) > 20
    for R in balanced[-20:]:
        del asked[:]
        with pytest.raises(CertificationError):
            multi_exponents(R)
        assert asked == list(range(R.total // 2 + 1))


def _in_exact_kernel(R, deg, vec):
    F = R.field
    rows = _restriction_rows(R.forms, R.mult, deg, F.zero, F.one)
    return all(not sum((a * b for a, b in zip(row, vec)), F.zero)
               for row in rows)


def _product(R, exps):
    """prod alpha_i^exps[i], on the monomials u^(deg-j) v^j."""
    out = [R.field.one]
    for form, e in zip(R.forms, exps):
        for _ in range(e):
            out = conv(out, list(form), R.field.zero)
    return out


def _low_restriction_candidates(R):
    """Both closed forms, at any degree, with one exponent lowered: one
    degree too low."""
    zero = R.field.zero
    top = R.mult.index(max(R.mult))
    cu, cv = R.forms[top]
    c1 = [m * (i != top) for i, m in enumerate(R.mult)]
    c2 = [m - 1 for m in R.mult]
    out = []
    for j in range(len(R.mult)):
        if c1[j]:
            h = _product(R, c1[:j] + [c1[j] - 1] + c1[j + 1:])
            out.append((len(h) - 1, [-cv * x for x in h] + [cu * x for x in h]))
        if c2[j]:
            h = _product(R, c2[:j] + [c2[j] - 1] + c2[j + 1:])
            out.append((len(h), h + [zero, zero] + h))
    return out


def test_candidate_one_degree_too_low_is_rejected():
    # relations: the power derivation needs r = 1 (mod n) (r = 1 is the
    # Euler derivation), and the pencil derivation every form missing its
    # point
    for n in (2, 3, 4):
        for arr in (full_monomial(n), a_of_w(n, (0,))):
            F = arr.field
            assert not is_relation(arr, n, _power_derivation(F, n))
            assert is_relation(arr, n + 1, _power_derivation(F, n + 1))
    for arr in (near_pencil(6), _cone_over_q(4, 1, 1)):
        theta = _pencil_derivation(arr)
        lat = build_lattice(arr)
        deg = len(arr.lines) - lat.mult[0]
        assert is_relation(arr, deg, theta)
        off = next(l for j, l in enumerate(arr.lines)
                   if j not in lat.incidence[0])
        low = [div_linear(Poly(arr.field, t), off.coords).terms
               for t in theta]
        assert not is_relation(arr, deg - 1, low)
    # restrictions: both closed forms with one exponent lowered fail the
    # exact check, as they fail the division oracle
    rejected = 0
    for R in _scan_restrictions():
        for deg, vec in _low_restriction_candidates(R):
            assert not derives(R, deg, vec) and not _derives(R, deg, vec)
            rejected += 1
    assert rejected > 100


def oracle_is_derivation(arr, deg, theta):
    """_is_derivation by division: theta is nonzero, homogeneous of degree
    deg, and div_linear divides each line's form into its image."""
    if not any(theta) or any(sum(mono) != deg
                             for poly in theta for mono in poly.terms):
        return False
    for line in arr.lines:
        image = Poly.zero(arr.field)
        for coeff, poly in zip(line.coords, theta):
            image = image + poly * coeff
        try:
            div_linear(image, line.coords)
        except ValueError:
            return False
    return True


@st.composite
def small_elements(draw, F):
    """0, a small rational, or, when phi(n) > 1, often a non-rational."""
    def q():
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    if F.degree > 1 and draw(st.booleans()):
        return F.element([q() for _ in range(F.degree)])
    return F.scalar(q())


def _monomial(draw, F, deg):
    i = draw(st.integers(0, deg))
    j = draw(st.integers(0, deg - i))
    return Poly(F, {(i, j, deg - i - j): draw(small_elements(F))})


@st.composite
def derivation_cases(draw):
    """(arrangement, degree, theta): derivations of the arrangement, of all
    but its last line, one degree too low (the pencil one divided by a form
    missing its point), and power derivations, then multiplied by a form,
    shifted by a multiple of the Euler derivation, perturbed by one term or
    claimed at a wrong degree."""
    n = draw(st.sampled_from((1, 3, 4, 5, 8)))
    F = cyc_field(n)
    # lines with root-of-unity coefficients, which the power derivations
    # fit, and drawn ones
    mono = full_monomial(n).lines
    lines = [mono[i] for i in draw(st.lists(
        st.integers(0, len(mono) - 1), min_size=2, max_size=5, unique=True))]
    for _ in range(draw(st.integers(0, 2))):
        t = [draw(small_elements(F)) for _ in range(3)]
        if any(t):
            lines.append(ProjLine(F, t))
    lines = list(dict.fromkeys(lines))
    assume(len(lines) >= 3)
    arr = Arrangement(F, lines)
    kind = draw(st.sampled_from(("pencil", "all-but-last", "low", "power")))
    if kind == "power":
        deg = draw(st.sampled_from(divisors(n))) + 1
        theta = [Poly(F, t) for t in _power_derivation(F, deg)]
    else:
        base = arr if kind != "all-but-last" else Arrangement(F, lines[:-1])
        theta = [Poly(F, t) for t in _pencil_derivation(base)]
        lat = build_lattice(base)
        deg = len(base.lines) - lat.mult[0]
        off = [l for j, l in enumerate(base.lines) if j not in lat.incidence[0]]
        if kind == "low" and off:
            theta = [div_linear(t, draw(st.sampled_from(off)).coords)
                     for t in theta]
            deg -= 1
    if draw(st.booleans()):
        h = Poly.from_linear(F, [draw(small_elements(F)) for _ in range(3)])
        theta = [t * h for t in theta]
        deg += 1
    if deg >= 1 and draw(st.booleans()):
        s = _monomial(draw, F, deg - 1)
        theta = [t + s * Poly.from_linear(F, [F.one if i == v else F.zero
                                              for i in range(3)])
                 for v, t in enumerate(theta)]
    if draw(st.booleans()):
        v = draw(st.integers(0, 2))
        theta[v] = theta[v] + _monomial(draw, F, deg)
    return arr, deg + draw(st.sampled_from((0, 0, 0, -1, 1))), theta


@settings(max_examples=150, deadline=None)
@given(derivation_cases())
def test_is_derivation_matches_division_oracle(case):
    # restricting theta(alpha) to each line decides membership exactly as
    # dividing it by alpha does
    arr, deg, theta = case
    assert is_relation(arr, deg, [t.terms for t in theta]) == (
        oracle_is_derivation(arr, deg, theta))


def _monomials(nvars, deg):
    if nvars == 2:
        return [(deg - j, j) for j in range(deg + 1)]
    return [(i, j, deg - i - j) for i in range(deg + 1)
            for j in range(deg + 1 - i)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derivation_test_matches_the_former_builders_and_checks(data):
    # One row builder and one exact check, in pivot coordinates, against
    # the two builders and checks they replace, kept here as oracles: on
    # drawn restrictions (mult 1 to 3, sometimes with the form (0, 1)) the
    # rows have the oracle rows' exact nullity, and so has the certified
    # dimension, whose lifted vectors the check decides; on subsets of a moved
    # full_monomial(n) they are the oracle rows entry for entry.  The check
    # agrees with division on the explicit candidates, the kernel vectors,
    # derivations one degree too low, any of them perturbed by one term,
    # and any of them claimed one degree low.
    deg = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        F, forms, mult, _ = data.draw(restrictions())
        R = MultiRestriction(F, tuple(forms), tuple(mult))
        forms, mult, groups = R.forms, R.mult, _binary_monomials(deg)
        rows = _derivation_rows(forms, mult, groups, deg, F.zero, F.one)
        old = _restriction_rows(forms, mult, deg, F.zero, F.one)
        assert nullity(rows, 2 * deg + 2) == nullity(old, 2 * deg + 2) == (
            restriction_dim(R, deg))
        elems = _restriction_candidates(R) + [
            (d, binary(vec)) for d, vec in _low_restriction_candidates(R)]

        def oracle(claim, d, theta):
            return _derives(R, claim, flat(R, theta, d))
    else:
        n = data.draw(st.sampled_from((1, 3, 4, 5, 8)))
        M = random_invertible_matrix(random.Random(
            data.draw(st.integers(0, 10**6))))
        moved = apply_transform(full_monomial(n), M).lines
        arr = Arrangement(moved[0].field, [moved[i] for i in data.draw(
            st.lists(st.integers(0, len(moved) - 1), min_size=3, max_size=5,
                     unique=True))])
        F, forms, mult = _relation_question(arr)
        groups = _gauged_monomials(deg)
        rows = _derivation_rows(forms, mult, groups, deg, F.zero, F.one)
        old = _gauged_rows(forms, deg, F.zero, F.one)
        assert rows == old
        elems = list(_relation_candidates(arr))
        lat = build_lattice(arr)
        off = [l for j, l in enumerate(arr.lines) if j not in lat.incidence[0]]
        if off:
            pencil_deg, theta = elems[0]
            elems.append((pencil_deg - 1, [
                div_linear(Poly(F, t), off[0].coords).terms for t in theta]))

        def oracle(claim, d, theta):
            return oracle_is_derivation(arr, claim,
                                        [Poly(F, t) for t in theta])
    ncols = sum(map(len, groups))
    elems += [(deg, _parts(groups, vec))
              for vec in kernel_basis(old, ncols, F.one, F.zero)]
    for d, theta in list(elems):
        v = data.draw(st.integers(0, len(theta) - 1))
        mono = data.draw(st.sampled_from(_monomials(len(theta), d)))
        bad = [dict(part) for part in theta]
        bad[v][mono] = bad[v].get(mono, F.zero) + F.one
        elems.append((d, bad))
    for d, theta in elems:
        for claim in (d, d - 1):
            assert _is_derivation(F, forms, mult, claim, theta) == oracle(
                claim, d, theta)


def test_multi_restriction_normalizes_its_forms():
    # The derivation test reads each form's point off a pivot coefficient
    # of one.  A form given scaled, by 2, by p (a split prime) or by zeta,
    # is the same restriction, with the same dimensions and exponents as
    # the normalized one; read unnormalized, (p, 1) would be tested as
    # (1, 1).
    for F in (cyc_field(1), cyc_field(3)):
        p, _ = la.split_prime(F.order)
        one, zero, q = F.one, F.zero, F.scalar(p)
        forms = ((one, zero), (one, one / q), (zero, one), (one, F.zeta))
        mult = (2, 2, 1, 1)
        R = MultiRestriction(F, forms, mult)
        assert R.forms == forms
        # forms come by decreasing multiplicity, then by coefficients, so
        # any order of the same points is the same value
        assert MultiRestriction(F, forms[::-1], mult[::-1]) == R
        want = [_exact_multi_dim(R, deg) for deg in range(5)]
        for scale in (F.scalar(2), q, F.zeta):
            S = MultiRestriction(F, tuple(
                tuple(scale * c for c in form) for form in forms), mult)
            assert S == R and S.forms == forms
            assert [restriction_dim(S, deg) for deg in range(5)] == want
            assert multi_exponents(S) == multi_exponents(R) == (3, 3)
        S = MultiRestriction(F, (forms[0], (q, one)) + forms[2:], mult)
        assert S.forms == forms


def _exact_relation_dim(arr, r):
    F = arr.field
    rows = _gauged_rows([l.coords for l in arr.lines], r, F.zero, F.one)
    return nullity(rows, (r + 1) * (r + 3))


def test_candidate_claiming_one_degree_less_is_rejected(monkeypatch):
    # A candidate's exact check binds the degree it claims: every real
    # candidate stated one degree low is rejected, and so is the zero
    # element; offered first, the low relations leave every answer equal
    # to the exact one.
    real_rel = alg._relation_candidates
    monkeypatch.setattr(alg, "_relation_candidates", lambda arr: [
        (deg - 1, theta) for deg, theta in real_rel(arr)] + real_rel(arr))
    rejected = 0
    for _, arr in _standard_pool(0, 3, 4):
        d = len(arr.lines)
        if d < 4:
            continue
        for deg, theta in _relation_candidates(arr):
            assert not is_relation(arr, deg - 1, theta)
            assert not is_relation(arr, deg, [{}, {}, {}])
            rejected += 1
        r = mdr(arr)
        if r is None:
            assert _exact_relation_dim(arr, (d - 1) // 2) == 0
        else:
            assert _exact_relation_dim(arr, r) > 0
            assert r == 0 or _exact_relation_dim(arr, r - 1) == 0
    assert rejected > 50
    rejected = 0
    for R in _scan_restrictions():
        zero, real = R.field.zero, _restriction_candidates(R)
        for deg, theta in real:
            assert not _is_derivation(R.field, R.forms, R.mult, deg - 1,
                                      theta)
            assert not derives(R, deg, [zero] * (2 * deg + 2))
            rejected += 1
    assert rejected > 100


def test_perturbed_candidate_is_rejected():
    # One coefficient + 1: the exact check agrees with the oracle rows and
    # the division oracle on it, unless that makes it zero, which both
    # checks reject.
    rejected = 0
    for R in _scan_restrictions():
        for deg, theta in _restriction_candidates(R):
            bad = flat(R, theta, deg)
            j = next(j for j, x in enumerate(bad) if x)
            bad[j] = bad[j] + R.field.one
            ok = derives(R, deg, bad)
            assert ok == _derives(R, deg, bad) == (
                any(bad) and _in_exact_kernel(R, deg, bad))
            rejected += not ok
    assert rejected > 100


def test_candidate_above_d1_is_caught_by_the_zero_kernel_below(monkeypatch):
    # u times a derivation of degree d1 is an exact derivation of degree
    # d1 + 1: the exact check and the division oracle both pass it, so a
    # passing check alone never certifies a minimal degree.
    cases = 0
    for R in _scan_restrictions():
        if not is_balanced(R):
            continue
        d1, _ = _scan_exponents(R)
        good = [flat(R, theta, deg) for deg, theta
                in _restriction_candidates(R) if deg == d1]
        good = [vec for vec in good if derives(R, d1, vec)]
        if not good:
            continue
        P, Q = good[0][:d1 + 1], good[0][d1 + 1:]
        zero = R.field.zero
        shifted = P + [zero] + Q + [zero]
        assert derives(R, d1 + 1, shifted) and _derives(R, d1 + 1, shifted)
        cases += 1
    assert cases > 20
    # relations: on this cone the pencil derivation has degree 3, above
    # the half-bound, so no coprimality is asked; the relation space at 2
    # is not zero (a kernel vector is lifted and checked), so the search
    # goes below it, certifies zero spaces at 0 and 1, each degree asked
    # once, and answers 2
    [arr] = [a for label, a in _standard_pool(0, 1, 3)
             if label == "cone-d3-generic-e0-s1"]
    assert is_relation(arr, 3, _pencil_derivation(arr))
    assert len(arr.lines) - build_lattice(arr).mult[0] == 3
    log = _route_log(monkeypatch)
    assert mdr(arr, bound=3) == 2 and ("lift",) in log
    assert [event for event in log if event != ("lift",)] == [
        ("check", 2, False), ("check", 3, True), ("check", 2, True),
        ("nullity", 15, 1), ("nullity", 3, 0), ("nullity", 8, 0)]
    assert verify_mdr(arr, 2) and not verify_mdr(arr, 3)


def test_mdr_certifies_a_primitive_candidate_with_no_kernel(monkeypatch):
    # The power derivation at r = n + 1 passes its exact check, after the
    # lower power derivations fail theirs, and the relation it gives is
    # certified primitive with 2r < d - 1: two independent relations have
    # degrees summing to at least d - 1 (du Plessis and Wall), so r is the
    # minimum and the relation space at r is one-dimensional, with no
    # kernel asked.
    log = _route_log(monkeypatch)
    dims = []
    real = alg._derivation_dim
    monkeypatch.setattr(alg, "_derivation_dim", lambda *args: (
        dims.append(args[-1]) or real(*args)))
    for n in (2, 3, 4):
        del log[:]
        value, dim = alg._relation_search(full_monomial(n), None)
        assert value == n + 1 and dim(value) == 1
        assert log == [("check", k + 1, False) for k in divisors(n)[:-1]] + [
            ("check", n + 1, True), ("coprime", n + 1, True)]
        assert mdr(full_monomial(n)) == n + 1
    assert dims == []


def test_mdr_without_coprimality_takes_one_zero_kernel(monkeypatch):
    # When certified_coprime proves nothing (it answers False), the passing
    # power derivation at r = n + 1 is still the answer, certified by one
    # zero relation space at n, and the dimension at r is asked, not taken
    # in closed form.
    monkeypatch.setattr(alg, "certified_coprime", lambda *args: False)
    log = _route_log(monkeypatch)
    for n in (2, 3, 4):
        del log[:]
        value, dim = alg._relation_search(full_monomial(n), None)
        assert value == n + 1
        assert log == [("check", k + 1, False) for k in divisors(n)[:-1]] + [
            ("check", n + 1, True), ("coprime", n + 1, False),
            ("nullity", (n + 1) * (n + 3), 0)]
        assert dim(value) == 1
        assert log[-1][:2] == ("nullity", (n + 2) * (n + 4))


def test_candidates_the_certificate_does_not_settle_take_one_zero_kernel(
        monkeypatch):
    # A generic arrangement's pencil derivation, of degree d - 2, is above
    # the half-bound (d - 1)/2 for d >= 4: no coprimality is asked, and one
    # zero kernel below certifies it.  No restriction takes this route:
    # it has no candidate, and a power image that is a derivation, read off
    # a table, is primitive.  The lines that used to
    # take it, through the Euler product prod alpha^(m - 1) (u d_u + v d_v),
    # have total < 2s and are answered in closed form, (total - s + 1,
    # s - 1) sorted, with nothing checked or asked: a cone's line with
    # mult (2, 2, 1, 1), and the near-pencil's transversal, mult (1, 1, 1,
    # 1, 1).  So is the near-pencil's line through its point of
    # multiplicity 5, mult (4, 1), which is unbalanced.
    [arr] = [a for label, a in _standard_pool(0, 1, 3)
             if label == "cone-d3-generic-e1-s1"]
    log = _route_log(monkeypatch)
    for a, h, mult, want, balanced in (
            (arr, 0, (2, 2, 1, 1), (3, 3), True),
            (near_pencil(6), 5, (1, 1, 1, 1, 1), (1, 4), True),
            (near_pencil(6), 0, (4, 1), (1, 4), False)):
        del log[:]
        R = ziegler_restriction(a, h)
        assert R.mult == mult and is_balanced(R) == balanced
        assert multi_exponents(R) == want and log == []
    for d in (4, 5):
        del log[:]
        assert mdr(generic_arrangement(d, seed=0), d - 2) == d - 2
        assert log[-2:] == [("check", d - 2, True),
                            ("nullity", (d - 2) * d, 0)]
        assert all(event[0] == "check" and not event[2]
                   for event in log[:-2])


def test_relation_vector_is_the_relation_of_its_candidate():
    # rho = d theta - h E, h = theta(f)/f read off the quotients of the
    # exact check: rho(f) = 0, and rho - d theta is a multiple of E.
    moved = apply_transform(full_monomial(2),
                            random_invertible_matrix(random.Random(0)))
    arrs = [full_monomial(n) for n in (1, 2, 3)] + [
        a_of_w(4, (0, 1)), near_pencil(6), moved, generic_arrangement(5, 0),
        _over_q_zeta_8(full_monomial(4))]
    checked = 0
    for arr in arrs:
        F, forms, mult = _relation_question(arr)
        f = defining_polynomial(arr)
        grad = [deriv(f, v) for v in range(3)]
        xs = [Poly.from_linear(F, [int(i == v) for i in range(3)])
              for v in range(3)]
        for deg, theta in _relation_candidates(arr):
            quotients = alg._quotients(F, forms, mult, deg, theta)
            if quotients is None or not deg:
                continue
            rho = [Poly(F, part) for part in
                   alg._relation_vector(forms, deg, theta, quotients)]
            assert any(rho)
            assert not sum((a * g for a, g in zip(rho, grad)), Poly.zero(F))
            rest = [a - Poly(F, part) * len(forms)
                    for a, part in zip(rho, theta)]
            for u in range(3):
                for v in range(u + 1, 3):
                    assert rest[u] * xs[v] == rest[v] * xs[u]
            checked += 1
    assert checked >= 10


def _restriction_profile(R):
    """(d1, dim) as linarr algebra ziegler reads them: d1 from
    multi_exponents, and dim(d1) = 1 + (2 d1 == total) in closed form."""
    return multi_exponents(R)[0], lambda deg: 1 + (2 * deg == R.total)


def _settled_by_primitivity(arr):
    """Run the relation search and every restriction's exponents of arr,
    and check each answer c that a primitive element settled, a relation
    certified coprime or a power image read off the table, against the
    kernel: the certified dimension is 0 at c - 1 and at least 1 at c, and
    the dimension read at c (closed form or asked) is the same.  Returns
    how many answers it settled."""
    questions = [(*_relation_question(arr), _gauged_monomials,
                  lambda: alg._relation_search(arr, None))]
    for h in range(len(arr.lines)):
        R = ziegler_restriction(arr, h)
        questions.append((R.field, R.forms, R.mult, _binary_monomials,
                          partial(_restriction_profile, R)))
    fired, coprime, images = [], alg.certified_coprime, alg._power_images_pass

    def spy_images(R, r):
        out = images(R, r)
        fired.append(any(out))
        return out

    settled = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "certified_coprime",
                   lambda *args: fired.append(coprime(*args)) or fired[-1])
        mp.setattr(alg, "_power_images_pass", spy_images)
        for F, forms, mult, monomials, search in questions:
            del fired[:]
            c, dim = search()
            if fired and fired[-1]:
                assert _derivation_dim(F, forms, mult, monomials, c - 1) == 0
                k = _derivation_dim(F, forms, mult, monomials, c)
                assert k >= 1 and dim(c) == k
                settled += 1
    return settled


def test_primitive_certificate_agrees_with_the_kernel():
    # An unbalanced restriction, or one with total < 2s, is answered in
    # closed form before any power image, so it is not counted here: the
    # closed-form tests below check it against the kernel.
    own = moved = 0
    for i, (_, arr) in enumerate(_standard_pool(0, 3, 4)):
        own += _settled_by_primitivity(arr)
        moved += _settled_by_primitivity(
            apply_transform(arr, random_invertible_matrix(random.Random(i))))
    assert own > 60 and moved > 20


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_primitive_certificate_agrees_with_the_kernel_property(data):
    _, arr = data.draw(st.sampled_from(_standard_pool(0, 3, 4)))
    seed = data.draw(st.none() | st.integers(0, 2 ** 32))
    if seed is not None:
        arr = apply_transform(arr,
                              random_invertible_matrix(random.Random(seed)))
    _settled_by_primitivity(arr)


def _exponents_agree_with_the_kernel(R):
    """Check multi_exponents(R), and the dimension linarr algebra ziegler
    prints at d1, against the certified kernel: d1 is the first degree with
    a nonzero space of derivations (zero at d1 - 1 suffices, as the spaces
    only grow with degree), and that space has dimension 1 + (2 d1 ==
    total)."""
    d1, d2 = multi_exponents(R)
    assert d1 <= d2 and d1 + d2 == R.total
    assert d1 == 0 or restriction_dim(R, d1 - 1) == 0
    assert restriction_dim(R, d1) == 1 + (2 * d1 == R.total)


@st.composite
def weighted_restrictions(draw):
    """restrictions(), often reweighted: the multiplicity of one drawn form
    set near the sum of the others, both sides of 2 max m = total; or every
    multiplicity drawn again, to a total near 2s, s the number of forms,
    both sides of total = 2s - 1 / 2s."""
    F, forms, mult, _ = draw(restrictions())
    how = draw(st.sampled_from(("as drawn", "one heavy", "near 2s")))
    if how == "one heavy":
        i = draw(st.integers(0, len(forms) - 1))
        rest = sum(mult) - mult[i]
        mult[i] = draw(st.integers(max(1, rest - 2), rest + 2))
    elif how == "near 2s":
        s = len(forms)
        mult = [1] * s
        for _ in range(draw(st.integers(s - 2, s + 1))):
            mult[draw(st.integers(0, s - 1))] += 1
    return MultiRestriction(F, tuple(forms), tuple(mult))


@settings(max_examples=60, deadline=None)
@given(weighted_restrictions())
def test_closed_form_agrees_with_the_kernel_property(R):
    _exponents_agree_with_the_kernel(R)


def _pool_restrictions(seed=0, max_n=3, max_dprime=4):
    """Every line of the pool, in its own frame and moved."""
    out = []
    for i, (_, arr) in enumerate(_standard_pool(seed, max_n, max_dprime)):
        moved = apply_transform(arr, random_invertible_matrix(random.Random(i)))
        for a in (arr, moved):
            out += [ziegler_restriction(a, h) for h in range(len(a.lines))]
    return out


def test_closed_form_agrees_with_the_kernel(monkeypatch):
    # On every line of the pool, in its own frame and moved, and on the
    # hand-built restrictions: an unbalanced restriction, a balanced one
    # with total < 2s, and one that a power image settles check no
    # candidate and ask no coprimality or nullity, and every answer, closed
    # form or scanned, agrees with the kernel.  A power image settles
    # exactly the restrictions on which the oracle's exact check passes
    # one.  At total = 2s the count bound is not the answer: mult (2, 2,
    # 2) and (2, 2, 2, 2) have exponents (3, 3) and (4, 4).
    log = _route_log(monkeypatch)
    closed = counted = edge = powered = scanned = 0
    for R in _pool_restrictions() + _wide_restrictions():
        passing = [deg for deg, theta in _restriction_candidates(R)
                   if _is_derivation(R.field, R.forms, R.mult, deg, theta)]
        del log[:]
        d1, _ = multi_exponents(R)
        s = len(R.forms)
        if not is_balanced(R):
            assert log == []
            closed += 1
        elif R.total < 2 * s:
            assert log == []
            counted += 1
            edge += R.total == 2 * s - 1
        elif passing:
            assert log == [] and d1 == min(passing)
            powered += 1
        else:
            assert ("lift",) in log
            scanned += 1
        _exponents_agree_with_the_kernel(R)
    assert closed > 200 and counted > 100 and edge > 40
    assert powered > 30 and scanned > 10
    for R in _wide_restrictions():
        if R.mult in ((2, 2, 2), (2, 2, 2, 2)):
            assert multi_exponents(R) == (R.total // 2, R.total // 2)


def _table_matches_the_exact_check(R):
    """The table decides each power image I, II, III at every r in 2..8
    as the exact check does; returns how many r pass, for each image."""
    passed = [0, 0, 0]
    for r in range(2, 9):
        exact = [_is_derivation(R.field, R.forms, R.mult, r, theta)
                 for theta in _power_images(R.field, r)]
        assert alg._power_images_pass(R, r) == exact
        passed = [k + ok for k, ok in zip(passed, exact)]
    return passed


def test_power_image_table_matches_the_exact_check():
    # On every line of the pool, own frame and moved, on the hand-built
    # restrictions, and on v, u and u + b v with -b every root of unity of
    # the field and 2, at multiplicities 1 to 3: each image passes in some
    # cases and fails in others.
    restrictions = _pool_restrictions() + _wide_restrictions()
    for n in (1, 4, 6):
        F = cyc_field(n)
        for b in {-sign * F.zeta_pow(j) for j in range(n) for sign in (1, -1)
                  } | {F.scalar(2)}:
            for mult in ((1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 1),
                         (1, 3, 2), (2, 2, 1), (1, 1, 3)):
                restrictions.append(MultiRestriction(
                    F, ((F.zero, F.one), (F.one, F.zero), (F.one, b)), mult))
    passed = [sum(k) for k in zip(*map(_table_matches_the_exact_check,
                                       restrictions))]
    assert all(200 < k < 7 * len(restrictions) for k in passed)


@st.composite
def pool_or_drawn_restrictions(draw):
    """restrictions(), or a line of the pool, in its own frame or moved."""
    if draw(st.booleans()):
        F, forms, mult, _ = draw(restrictions())
        return MultiRestriction(F, tuple(forms), tuple(mult))
    _, arr = draw(st.sampled_from(_standard_pool(0, 3, 4)))
    seed = draw(st.none() | st.integers(0, 2 ** 32))
    if seed is not None:
        arr = apply_transform(arr,
                              random_invertible_matrix(random.Random(seed)))
    return ziegler_restriction(arr, draw(st.integers(0, len(arr.lines) - 1)))


@settings(max_examples=60, deadline=None)
@given(pool_or_drawn_restrictions())
def test_power_image_table_matches_the_exact_check_property(R):
    _table_matches_the_exact_check(R)


def test_derivation_check_rejects_perturbed_vector(monkeypatch):
    R = ziegler_restriction(_cone_over_q(3, 0, 1), 1)
    lifted = []

    def spy(F, forms, mult, deg, theta):
        ok = _is_derivation(F, forms, mult, deg, theta)
        if ok:
            lifted.append((deg, flat(R, theta, deg)))
        return ok

    monkeypatch.setattr(alg, "_is_derivation", spy)
    assert multi_exponents(R) == (3, 3)
    # D_3 has dimension 2 at d1 = d2 = 3: both basis vectors are checked
    assert restriction_dim(R, 3) == 2
    assert {deg for deg, _ in lifted} == {3} and len(lifted) >= 2
    one = R.field.one
    for deg, vec in lifted:
        assert _derives(R, deg, vec)
        for j in range(len(vec)):
            bad = list(vec)
            bad[j] = bad[j] + one
            assert not derives(R, deg, bad) and not _derives(R, deg, bad)


def _count_primes_without_oracle(monkeypatch):
    """Record the split primes linalg tries, and make the exact oracle
    raise, so an answer can only come from the certified path."""
    skips = []
    split_prime = la.split_prime

    def counting_split_prime(n, skip):
        skips.append(skip)
        return split_prime(n, skip)

    def no_exact(*args):
        raise AssertionError("exact elimination")

    monkeypatch.setattr(la, "split_prime", counting_split_prime)
    for name in ("echelon", "rank", "nullity", "kernel_basis",
                 "kernel_vector"):
        monkeypatch.setattr(exact_linalg, name, no_exact)
    return skips


def test_restriction_over_q_needs_three_primes(monkeypatch):
    # Its kernel vectors have coefficients too large to reconstruct from one
    # or two primes; CRT over the primes so far certifies them.
    R = ziegler_restriction(_cone_over_q(3, 0, 1), 1)
    assert R.field.order == 1 and R.mult == (2, 2, 1, 1)
    want = _scan_exponents(R)
    skips = _count_primes_without_oracle(monkeypatch)
    assert multi_exponents(R) == want == (3, 3)
    del skips[:]
    assert restriction_dim(R, 3) == 2
    assert max(skips) >= 2


def test_wide_coefficients_certify_past_eight_primes(monkeypatch):
    # At campaign seed 3, cone-d4-adversarial-e0-s2 restricts to four
    # lines with mult (4, 2, 1, 1), whose degree-4 derivations have
    # 125-137-bit coefficients: more than eight 30-bit primes of CRT.
    [arr] = [a for label, a in _standard_pool(3, 1, 4)
             if label == "cone-d4-adversarial-e0-s2"]
    wide = [R for R in (ziegler_restriction(arr, i)
                        for i in range(len(arr.lines)))
            if R.mult == (4, 2, 1, 1)]
    assert len(wide) == 4
    skips = _count_primes_without_oracle(monkeypatch)
    for R in wide:
        assert multi_exponents(R) == (4, 4)
        del skips[:]
        assert restriction_dim(R, 4) == 2
        assert max(skips) >= 8


def test_relation_degree_out_of_range_raises():
    braid = full_monomial(1)
    for r in (-1, len(braid.lines) - 1):
        with pytest.raises(ValueError):
            verify_mdr(braid, r)
    with pytest.raises(ValueError):
        mdr(braid, bound=len(braid.lines) - 1)


def test_nodal_vanishing_dimensions():
    for dprime in (3, 4, 5):
        arr = generic_arrangement(dprime, seed=1)
        assert nodal_vanishing_dimension(arr) == dprime
    with pytest.raises(ValueError):
        nodal_vanishing_dimension(near_pencil(4))
    with pytest.raises(ValueError):
        nodal_vanishing_dimension(full_monomial(1))


@st.composite
def builder_cases(draw):
    """(F, inputs, build): the derivation row builder on relation or
    restriction inputs, or the node row builder, at a degree up to 3, on
    inputs with zero entries and tuples that are not normalized.
    Over Q most rows also hold two distinct entries that are equal mod one
    of the two split primes the property uses: x and x +- p, x nonzero."""
    order = draw(st.sampled_from((1, 1, 1, 3, 4, 5)))
    F = cyc_field(order)
    primes = [la.split_prime(order, skip)[0] for skip in range(2)]

    def entries(width, nonzero):
        row = [F.element([Fraction(c, draw(st.sampled_from((1, 2, 3))))
                          for c in draw(st.lists(
                              st.sampled_from((0, 0, 0, 1, -1, 2, 3)),
                              min_size=F.degree, max_size=F.degree))])
               for _ in range(width)]
        if nonzero and not any(row):
            row[draw(st.integers(0, width - 1))] = F.one
        if order == 1 and draw(st.integers(0, 3)):
            i, j = draw(st.permutations(range(width)))[:2]
            row[i] = row[i] or F.one
            row[j] = row[i] + F.scalar(draw(st.sampled_from((1, -1)))
                                       * draw(st.sampled_from(primes)))
        return row

    deg = draw(st.integers(0, 3))
    count = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("relation", "restriction", "node")))
    if kind == "relation":
        lines = [entries(3, True) for _ in range(count)]
        return F, lines, lambda ins, z, o: _derivation_rows(
            ins, [1] * count, _gauged_monomials(deg), deg, z, o)
    if kind == "restriction":
        forms = [entries(2, True) for _ in range(count)]
        mult = draw(st.lists(st.integers(1, 3), min_size=count,
                             max_size=count))
        return F, forms, lambda ins, z, o: _derivation_rows(
            ins, mult, _binary_monomials(deg), deg, z, o)
    points = [entries(3, False) for _ in range(count)]
    return F, points, lambda ins, z, o: _node_rows(ins, deg, z, o)


@settings(max_examples=150, deadline=None)
@given(builder_cases())
def test_builders_on_reduced_inputs_give_the_reduced_exact_rows(case):
    # The premise of every certificate: at a root of a split prime where no
    # nonzero input reduces to 0, a builder run on the reduced inputs gives
    # the exact rows reduced entry by entry.  certified_nullity skips every
    # other root's prime.
    F, inputs, build = case
    exact = build(inputs, F.zero, F.one)
    for skip in range(2):
        p, roots = la.split_prime(F.order, skip)
        for root in roots:
            red = la.reduce_at(inputs, root, p)
            if any(y and not x for xs, ys in zip(red, inputs)
                   for x, y in zip(xs, ys)):
                continue
            built = [[x % p for x in row] for row in build(red, 0, 1)]
            assert built == la.reduce_at(exact, root, p)


def test_node_rows_match_monomials_evaluated_exactly():
    # Nodes of a generic arrangement impose independent conditions, so the
    # nodal answers alone cannot tell a wrong monomial table from the right
    # one.  Points in special position can: four on the line z = 0 impose
    # min(4, r + 1) conditions on degree-r forms, and two more off it tell
    # the coordinates apart.
    F = cyc_field(3)
    line = [(F.one, c, F.zero) for c in (F.zero, F.scalar(2), F.zeta)]
    line.append((F.zero, F.one, F.zero))
    more = line + [(F.one, F.zero, F.one), (F.one, F.scalar(2), F.scalar(3))]
    for r in range(5):
        mons = [(i, j, r - i - j) for i in range(r + 1)
                for j in range(r + 1 - i)]
        nulls = []
        for points in (line, more):
            null = la.certified_nullity(
                F, len(mons), points,
                lambda pts, zero, one: alg._node_rows(pts, r, zero, one))
            exact = [[Poly(F, {m: F.one}).eval3(p) for m in mons]
                     for p in points]
            assert null == nullity(exact, len(mons))
            nulls.append(null)
        assert nulls[0] == len(mons) - min(4, r + 1)


def test_partial_products_form_basis():
    arr = generic_arrangement(5, seed=1)
    F = arr.field
    lat = build_lattice(arr)
    prods = partial_products(arr)
    assert len(prods) == 5
    for g in prods:
        assert g.degree() == 4
        for pt in lat.points:
            assert not g.eval3(pt.coords)
    mons = sorted({m for g in prods for m in g.terms})
    rows = [[g.terms.get(m, F.zero) for m in mons] for g in prods]
    assert rank(rows, len(mons)) == 5


def test_gauged_kernel_vector_gives_relation():
    # unpack a gauged kernel vector and check a f_x + b f_y + c f_z = 0
    arr = full_monomial(1)
    F = arr.field
    r = 2
    groups = _gauged_monomials(r)
    rows = _derivation_rows(*_relation_question(arr)[1:], groups, r, F.zero,
                            F.one)
    vec = kernel_vector(rows, len(rows[0]), F.one, F.zero)
    assert vec is not None
    mons = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    zfree = [m for m in mons if m[2] == 0]
    assert groups == (mons, mons, zfree)
    nm = len(mons)
    a = Poly(F, dict(zip(mons, vec[:nm])))
    b = Poly(F, dict(zip(mons, vec[nm:2 * nm])))
    c = Poly(F, dict(zip(zfree, vec[2 * nm:])))
    f = defining_polynomial(arr)
    d = len(arr.lines)
    h = Poly.zero(F)
    for line in arr.lines:
        cx, cy, cz = line.coords
        theta_alpha = a * cx + b * cy + c * cz
        h = h + div_linear(theta_alpha, line.coords)
    x = Poly.from_linear(F, (F.one, F.zero, F.zero))
    y = Poly.from_linear(F, (F.zero, F.one, F.zero))
    z = Poly.from_linear(F, (F.zero, F.zero, F.one))
    inv_d = F.scalar(Fraction(1, d))
    sa = a - h * x * inv_d
    sb = b - h * y * inv_d
    sc = c - h * z * inv_d
    assert sa or sb or sc
    combo = sa * deriv(f, 0) + sb * deriv(f, 1) + sc * deriv(f, 2)
    assert not combo


def test_syzygy_dimension_free_resolution():
    # free with exponents (1, d2, d3): dim at r is dim S_(r-d2) + dim S_(r-d3)
    braid = full_monomial(1)
    assert [syzygy_dimension(braid, r) for r in range(4)] == [0, 0, 1, 4]
    np6 = near_pencil(6)
    assert [syzygy_dimension(np6, r) for r in range(3)] == [0, 1, 3]
    assert syzygy_dimension(pencil(5), 0) == 1


@pytest.mark.parametrize("r", ("1", True, False, 1.0, None))
def test_syzygy_dimension_rejects_a_degree_that_is_not_an_int(r):
    # a string escaped as a raw TypeError, and True was read as 1
    with pytest.raises(ValueError, match="integer"):
        syzygy_dimension(full_monomial(1), r)


def test_syzygy_dimension_below_zero_is_zero():
    assert [syzygy_dimension(full_monomial(1), r) for r in (-3, -1)] == [0, 0]


def test_wide_syzygy_dimension_matches_exact_oracle():
    # 48 to 99 columns, past the old 40-column limit of exact elimination
    arr = full_monomial(6)
    F = arr.field
    for r in range(5, 9):
        rows = _gauged_rows([l.coords for l in arr.lines], r, F.zero, F.one)
        ncols = len(rows[0])
        assert ncols > 40
        assert syzygy_dimension(arr, r) == nullity(rows, ncols)


def test_zero_kernel_relation_question_builds_no_exact_rows(monkeypatch):
    # verify_mdr's r-1 side is a zero kernel mod p: rows built from the
    # reduced line coordinates certify it.  Its r side is the power
    # derivation, checked by _is_derivation, so it builds no exact rows at
    # all; a certified dimension at r checks its lifted vector as a
    # derivation too, so it builds none either
    arr = full_monomial(3)
    r = mdr(arr)
    exact = []
    real = alg._derivation_rows

    def spy(forms, mult, groups, deg, zero, one):
        if isinstance(zero, CycNumber):
            exact.append(deg)
        return real(forms, mult, groups, deg, zero, one)

    monkeypatch.setattr(alg, "_derivation_rows", spy)
    assert verify_mdr(arr, r)
    assert exact == []
    assert syzygy_dimension(arr, r - 1) == 0 and exact == []
    assert syzygy_dimension(arr, r) == 1
    assert exact == []


def _primes_tried(monkeypatch):
    seen = []
    real = la.fp_kernel_basis

    def spy(rows, ncols, p):
        seen.append(p)
        return real(rows, ncols, p)

    monkeypatch.setattr(la, "fp_kernel_basis", spy)
    return seen


def test_restriction_input_vanishing_mod_p_skips_the_prime(monkeypatch):
    # A form (1, p) has a nonzero input that reduces to 0 mod p, where the
    # rows would read another point; the form (p, 1), normalized to
    # (1, 1/p), has a denominator that vanishes mod p.  Either way that
    # prime is bad, and the next ones certify.
    F = cyc_field(1)
    p, _ = la.split_prime(1)
    seen = _primes_tried(monkeypatch)
    for form in ((F.one, F.scalar(p)), (F.scalar(p), F.one)):
        R = MultiRestriction(
            F, (form, (F.one, F.zero), (F.zero, F.one), (F.one, F.one)),
            (2, 2, 1, 1),
        )
        del seen[:]
        dims = [restriction_dim(R, deg) for deg in range(5)]
        assert seen and p not in seen
        assert dims == [
            nullity(_restriction_rows(R.forms, R.mult, deg, F.zero, F.one),
                    2 * deg + 2)
            for deg in range(5)
        ]
        assert max(dims) > 0


def test_line_coefficient_vanishing_mod_p_skips_the_prime(monkeypatch):
    F = cyc_field(1)
    p, _ = la.split_prime(1)
    arr = Arrangement(F, [
        ProjLine(F, [F.scalar(c) for c in coords])
        for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                       (1, p, 1), (1, -1, 2))
    ])
    assert any(c == F.scalar(p) for l in arr.lines for c in l.coords)
    seen = _primes_tried(monkeypatch)
    dims = [syzygy_dimension(arr, r) for r in range(5)]
    assert seen and p not in seen
    lines = [l.coords for l in arr.lines]
    assert dims == [
        nullity(_gauged_rows(lines, r, F.zero, F.one), (r + 1) * (r + 3))
        for r in range(5)
    ]
    assert max(dims) > 0


@st.composite
def small_arrangements(draw):
    kind = draw(st.sampled_from(
        ("full_monomial", "a_of_w", "pencil", "near_pencil", "generic", "cone")
    ))
    seed = draw(st.integers(0, 10**6))
    if kind == "full_monomial":
        return full_monomial(draw(st.integers(1, 3)))
    if kind == "a_of_w":
        n = draw(st.integers(2, 4))
        return a_of_w(n, draw(st.lists(st.integers(0, n - 1), unique=True,
                                       max_size=n)))
    if kind == "pencil":
        return pencil(draw(st.integers(3, 6)))
    if kind == "near_pencil":
        return near_pencil(draw(st.integers(4, 7)))
    if kind == "generic":
        return generic_arrangement(draw(st.integers(3, 6)), seed=seed)
    return _cone_over_q(draw(st.integers(3, 4)), seed % 50, draw(st.integers(0, 1)))


def _relation_answers(arr):
    d = len(arr.lines)
    top = (d - 1) // 2
    return (mdr(arr), [syzygy_dimension(arr, r) for r in range(top + 1)])


@settings(max_examples=25, deadline=None)
@given(small_arrangements(), st.data())
def test_relation_answers_invariant_property(arr, data):
    want = _relation_answers(arr)
    perm = data.draw(st.permutations(range(len(arr))))
    shuffled = Arrangement(arr.field, [arr.lines[k] for k in perm])
    M = random_invertible_matrix(random.Random(data.draw(st.integers(0, 10**6))))
    moved = apply_transform(arr, M)
    for other in (shuffled, moved):
        assert _relation_answers(other) == want
        if want[0] is not None:
            assert verify_mdr(other, want[0])
            if want[0] > 0:
                assert not verify_mdr(other, want[0] - 1)


@settings(max_examples=25, deadline=None)
@given(small_arrangements(), st.integers(0, 10**6))
def test_arrangement_json_round_trip_property(arr, seed):
    moved = apply_transform(arr, random_invertible_matrix(random.Random(seed)))
    for a in (arr, moved):
        back = Arrangement.from_json(json.loads(json.dumps(a.to_json())))
        assert back.lines == a.lines and back.field is a.field
        assert back.to_json() == a.to_json()


def test_kernel_nonzero_matches_exact_over_q_zeta_8():
    # full_monomial(4) written over Q(zeta_8): (Z/8)* is not cyclic, so only
    # a split prime gives a modular certificate here.
    arr = _over_q_zeta_8(full_monomial(4))
    F = arr.field
    for r in (4, 5):
        rows = _gauged_rows([l.coords for l in arr.lines], r, F.zero, F.one)
        ncols = len(rows[0])
        exact = kernel_vector(rows, ncols, F.one, F.zero) is not None
        null = la.certified_nullity(F, ncols, rows, lambda rows, z, o: rows)
        assert (null > 0) == exact == (r == 5)
        assert (syzygy_dimension(arr, r) > 0) == exact
    # the power derivation with r = k + 1 for k = 4, a divisor of 8
    assert not any(is_relation(arr, k + 1, _power_derivation(F, k + 1))
                   for k in (1, 2))
    assert is_relation(arr, 5, _power_derivation(F, 5))
    assert mdr(arr, bound=5) == 5 and verify_mdr(arr, 5)


def test_certificates_survive_optimize_flag():
    # A lying kernel computation must still be caught under python -O, where
    # assert statements are stripped.
    # The restriction is balanced with total = 2s, so it reaches the search,
    # and the lying check rejects every lifted vector; the Tjurina identity
    # is decided by check_identities, so the lie is planted in classify.
    script = """
import linarr.algebra as alg
import linarr.classify as cls
from linarr import CertificationError, cyc_field, full_monomial

F = cyc_field(1)
R = alg.MultiRestriction(F, ((F.one, F.zero), (F.zero, F.one), (F.one, F.one)),
                         (2, 2, 2))
alg._quotients = lambda *args: None
cls.tjurina_census = lambda lat: -1
for call in (lambda: alg.multi_exponents(R),
             lambda: alg.supersolvable_exponents(full_monomial(1))):
    try:
        call()
    except CertificationError:
        print("caught")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["caught", "caught"]
