"""Projective geometry: intersections, lattices, transforms, isomorphism."""

import hashlib
import json
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linarr.projgeo as projgeo
from linarr.campaigns import _aw_keys, _build_cone, _standard_pool
from linarr.classify import modular_points
from linarr.families import (
    ConeSpec,
    a_of_w,
    adversarial_vertex,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
    near_pencil,
)
from linarr.field import CertificationError, cyc_field, cyc_to_strings
from linarr.linalg import _cyclotomic_roots, split_prime
from linarr.projgeo import (
    Arrangement,
    ProjLine,
    ProjPoint,
    apply_transform,
    build_lattice,
    census,
    certified_incidence,
    lattice_isomorphic,
    line_intersect,
    line_through,
    random_invertible_matrix,
)

Q = cyc_field(1)


def lines_q(*triples):
    return Arrangement(Q, [ProjLine(Q, t) for t in triples])


# x, y, z, x-y, x-z, y-z: four triple points and three double points
FULL_TRIANGLE = lines_q(
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
)

# four lines through (0:0:1) plus z
NEAR_PENCIL_5 = lines_q(
    (0, 1, 0),
    (-1, 1, 0),
    (-2, 1, 0),
    (-3, 1, 0),
    (0, 0, 1),
)


def test_point_normalization():
    p = ProjPoint(Q, (2, 4, 6))
    assert p.coords == (Q.one, Q.scalar(2), Q.scalar(3))
    assert p == ProjPoint(Q, (Fraction(1, 3), Fraction(2, 3), 1))


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjPoint(Q, (0, 0, 0))


def test_intersect_coordinate_axes():
    x = ProjLine(Q, (1, 0, 0))
    y = ProjLine(Q, (0, 1, 0))
    assert line_intersect(x, y) == ProjPoint(Q, (0, 0, 1))


def test_intersect_shifted_lines():
    a = ProjLine(Q, (-1, 1, 0))  # y - x
    b = ProjLine(Q, (-1, 0, 1))  # z - x
    assert line_intersect(a, b) == ProjPoint(Q, (1, 1, 1))


def test_intersect_cyclotomic():
    F = cyc_field(3)
    x = ProjLine(F, (1, 0, 0))
    l = ProjLine(F, (F.zero, -F.zeta, F.one))  # z - zeta*y
    assert line_intersect(x, l) == ProjPoint(F, (F.zero, F.one, F.zeta))


def test_line_through_points():
    p = ProjPoint(Q, (1, 0, 0))
    q = ProjPoint(Q, (1, 1, 1))
    assert line_through(p, q) == ProjLine(Q, (0, 1, -1))


def test_intersect_identical_lines_rejected():
    l = ProjLine(Q, (1, 2, 3))
    with pytest.raises(ValueError, match="coincident lines have no unique "
                                         "intersection"):
        line_intersect(l, ProjLine(Q, (2, 4, 6)))
    with pytest.raises(ValueError, match="coincident points have no unique "
                                         "connecting line"):
        line_through(ProjPoint(Q, (1, 1, 1)), ProjPoint(Q, (2, 2, 2)))


def test_incidence_across_fields_rejected():
    # Numerators of Q(zeta_5) and Q(zeta_3) have different lengths and mean
    # different numbers: an incidence, a meet or a join across them raises.
    F5, F3 = cyc_field(5), cyc_field(3)
    l, p = ProjLine(F5, (1, 0, 0)), ProjPoint(F3, (F3.zeta, 1, 0))
    with pytest.raises(ValueError, match="line and point from different"):
        l.contains(p)
    with pytest.raises(ValueError, match="lines from different fields"):
        line_intersect(l, ProjLine(F3, (1, 0, 0)))
    with pytest.raises(ValueError, match="points from different fields"):
        line_through(ProjPoint(F5, (1, 0, 0)), p)


def test_operands_of_the_wrong_kind_rejected():
    # A meet of two points would be their join typed as a point, and a line
    # "containing" a line is a dot product of two lines.
    p, q = ProjPoint(Q, (1, 0, 0)), ProjPoint(Q, (0, 1, 0))
    l, m = ProjLine(Q, (1, 0, 0)), ProjLine(Q, (0, 1, 0))
    with pytest.raises(TypeError, match="expected a ProjLine, not ProjPoint"):
        line_intersect(p, q)
    with pytest.raises(TypeError, match="expected a ProjLine, not ProjPoint"):
        line_intersect(l, p)
    with pytest.raises(TypeError, match="expected a ProjPoint, not ProjLine"):
        line_through(l, m)
    with pytest.raises(TypeError, match="expected a ProjPoint, not ProjLine"):
        l.contains(m)


def test_through_and_intersect_are_inverse():
    rng = random.Random(7)
    lines = []
    while len(lines) < 6:
        t = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(t):
            l = ProjLine(Q, t)
            if l not in lines:
                lines.append(l)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = line_intersect(lines[i], lines[j])
            assert lines[i].contains(p) and lines[j].contains(p)
            q = ProjPoint(Q, (p.coords[0] + 1, p.coords[1], p.coords[2]))
            if q != p:
                l = line_through(p, q)
                assert l.contains(p) and l.contains(q)


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        lines_q((1, 0, 0), (2, 0, 0))


def test_full_triangle_lattice():
    lat = build_lattice(FULL_TRIANGLE)
    assert len(lat.points) == 7
    assert sorted(lat.mult, reverse=True) == [3, 3, 3, 3, 2, 2, 2]
    assert lat.census() == {2: 3, 3: 4}
    # points come sorted by multiplicity first
    assert lat.mult[0] == 3 and lat.mult[-1] == 2


def test_near_pencil_census():
    assert census(NEAR_PENCIL_5) == {2: 4, 4: 1}


def test_generic_triangle_census():
    arr = lines_q((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert census(arr) == {2: 3}


def test_incidence_is_consistent():
    lat = build_lattice(FULL_TRIANGLE)
    for pi, inc in enumerate(lat.incidence):
        assert len(inc) == lat.mult[pi]
        for li in inc:
            assert FULL_TRIANGLE.lines[li].contains(lat.points[pi])


def test_lattice_is_built_once_per_arrangement(monkeypatch):
    # The lattice lives on its instance: a second call groups nothing, and
    # an equal arrangement built anew groups afresh (fresh_lattice relies
    # on that).
    arr = a_of_w(2, (0,))
    lat = build_lattice(arr)
    grouped = []
    real = projgeo._certified_points
    monkeypatch.setattr(projgeo, "_certified_points",
                        lambda a, skip: grouped.append(a) or real(a, skip))
    assert build_lattice(arr) is lat and not grouped
    again = Arrangement(arr.field, arr.lines)
    assert as_tuple(build_lattice(again)) == as_tuple(lat)
    assert len(grouped) == 1 and grouped[0] is again


def test_lattice_cache_respects_line_order():
    # Equal as sets of lines, so the two arrangements compare equal, but the
    # incidence indices of each lattice must follow its own line order.
    arr = a_of_w(2, (0,))
    rev = Arrangement(arr.field, arr.lines[::-1])
    assert rev == arr
    build_lattice(arr)
    lat = build_lattice(rev)
    for pi, inc in enumerate(lat.incidence):
        for li in inc:
            assert rev.lines[li].contains(lat.points[pi])


def _frozen_cone():
    base = generic_arrangement(4, seed=3)
    vertex = generic_vertex(base, seed=3)  # (1 : -29/4 : -1/2)
    return cone(ConeSpec(base, vertex, 1, 3))


def _lattice_text(lat):
    """Sorted-key JSON of a lattice's points, multiplicities, incidences and
    census, with every coordinate written as its fraction strings."""
    return json.dumps({
        "points": [[cyc_to_strings(c) for c in p.coords] for p in lat.points],
        "multiplicities": list(lat.mult),
        "incidence": [list(inc) for inc in lat.incidence],
        "census": {str(k): v for k, v in lat.census().items()},
    }, sort_keys=True)


# sha256 of _lattice_text of each lattice, recorded before the field moved
# to integer numerators; point order and every coordinate string must not
# change with the representation.
FROZEN_LATTICES = {
    "a_of_w(5, (0, 1, 3))": (
        lambda: a_of_w(5, (0, 1, 3)),
        "49c7f60f15b2c4f58c7c7ba8dfece84989331ca9638db702c88d7c1d207becb8",
    ),
    "cone over Q, fractional vertex": (
        _frozen_cone,
        "8c3a112df7dbfee37f522343a6733d6b8de0ec28578d479cc9c0a7c9950142b7",
    ),
    "transformed full_monomial(4)": (
        lambda: apply_transform(
            full_monomial(4), random_invertible_matrix(random.Random(7))
        ),
        "3af24a6e424df1a2e07ebc5585c8ad2323743f7f613d700fb6fee8e835883eb4",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_LATTICES))
def test_lattice_json_is_byte_identical(name):
    make, want = FROZEN_LATTICES[name]
    text = _lattice_text(build_lattice(make()))
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_json_round_trip(tmp_path):
    F = cyc_field(3)
    arr = Arrangement(
        F,
        [
            ProjLine(F, (F.one, F.zero, F.zero)),
            ProjLine(F, (F.zero, -F.zeta, F.one)),
            ProjLine(F, (F.one, F.one, F.one)),
        ],
    )
    path = tmp_path / "arr.json"
    arr.save(path)
    data = json.loads(path.read_text())
    assert data["cyclotomic_order"] == 3
    assert all(
        "/" in s for line in data["lines"] for coeff in line for s in coeff
    )
    again = Arrangement.load(path)
    assert again == arr


def test_apply_transform_preserves_census():
    rng = random.Random(11)
    base = census(FULL_TRIANGLE)
    for _ in range(20):
        M = random_invertible_matrix(rng)
        moved = apply_transform(FULL_TRIANGLE, M)
        assert census(moved) == base


def oracle_normalized(t):
    """t divided by its first nonzero entry with CycNumber `/`, independent
    of projgeo's integral normalization."""
    lead = next(c for c in t if c)
    return tuple(c / lead for c in t)


def oracle_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def oracle_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# The generic 3x3 determinant and adjugate, over any ring: oracles of the
# integral cross products that transforms and random matrices use.
def det3(rows):
    (a, b, c), (d_, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d_ * i - f * g) + c * (d_ * h - e * g)


def adjugate3(rows):
    (a, b, c), (d_, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d_ * i, a * i - c * g, c * d_ - a * f),
        (d_ * h - e * g, b * g - a * h, a * e - b * d_),
    )


def image(M, p):
    """The normalized coordinates of the point M p."""
    F = p.field
    return oracle_normalized(tuple(
        oracle_dot([F.scalar(x) for x in M[r]], p.coords) for r in range(3)
    ))


def test_apply_transform_moves_points_correctly():
    M = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    moved = apply_transform(FULL_TRIANGLE, M)
    lat0 = build_lattice(FULL_TRIANGLE)
    # image of each lattice point lies on the image arrangement's lines
    for p in lat0.points:
        img = image(M, p)
        n_through = sum(1 for l in moved.lines if not oracle_dot(l.coords, img))
        assert n_through >= 2


def test_singular_transform_rejected():
    with pytest.raises(ValueError, match="singular"):
        apply_transform(FULL_TRIANGLE, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_transform_from_another_field_rejected():
    # Entries of Q(zeta_3) read as numerators of Q(zeta_5) would map x - y
    # to x - zeta_5 y; a matrix entry is refused like a coordinate.
    F3 = cyc_field(3)
    M = [[F3.zero] * 3 for _ in range(3)]
    M[0][0], M[1][1], M[2][2] = F3.zeta, F3.one, F3.one
    with pytest.raises(ValueError, match="from a different field"):
        apply_transform(full_monomial(5), M)


def test_det_and_adjugate_identity():
    # random_invertible_matrix draws nine integers at a time, row by row,
    # and keeps the first draw that the oracle det3 calls invertible; with
    # this seed it skips three singular draws.
    rng, oracle_rng = random.Random(3), random.Random(3)
    skipped = 0
    for _ in range(25):
        M = random_invertible_matrix(rng)
        while not det3(rows := [[Fraction(oracle_rng.randint(-5, 5))
                                 for _ in range(3)] for _ in range(3)]):
            skipped += 1
        assert M == tuple(map(tuple, rows))
        adj = adjugate3(M)
        dM = det3(M)
        for i in range(3):
            for j in range(3):
                acc = sum(M[i][k] * adj[k][j] for k in range(3))
                assert acc == (dM if i == j else 0)
    assert skipped == 3


def test_isomorphic_to_itself_and_transforms():
    lat = build_lattice(FULL_TRIANGLE)
    sigma = lattice_isomorphic(lat, lat)
    assert sigma is not None
    rng = random.Random(5)
    moved = apply_transform(FULL_TRIANGLE, random_invertible_matrix(rng))
    lat2 = build_lattice(moved)
    sigma = lattice_isomorphic(lat, lat2)
    assert sigma is not None
    # verify sigma really is a lattice map: images of concurrent lines concur
    back = lattice_isomorphic(lat2, lat)
    assert back is not None
    for pi, inc in enumerate(lat.incidence):
        imgs = [moved.lines[sigma[li]] for li in inc]
        p = line_intersect(imgs[0], imgs[1])
        assert all(l.contains(p) for l in imgs)


def test_non_isomorphic_detected():
    # same line count, different censuses
    near6 = lines_q(
        (0, 1, 0),
        (-1, 1, 0),
        (-2, 1, 0),
        (-3, 1, 0),
        (-4, 1, 0),
        (0, 0, 1),
    )
    assert lattice_isomorphic(build_lattice(FULL_TRIANGLE), build_lattice(near6)) is None


def test_non_isomorphic_same_census():
    # two arrangements of 5 lines, both all double points, over Q:
    # any two generic arrangements ARE isomorphic, so instead compare
    # a generic 5-line arrangement with one where three lines concur
    generic = lines_q(
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, -2, 3),
        (2, 5, -1),
    )
    concur = lines_q(
        (1, 0, 0),
        (0, 1, 0),
        (1, -1, 0),
        (1, 2, 5),
        (3, -1, 1),
    )
    assert census(generic) == {2: 10}
    assert census(concur) == {2: 7, 3: 1}
    assert lattice_isomorphic(build_lattice(generic), build_lattice(concur)) is None


def test_census_pair_identity_all():
    for arr in (FULL_TRIANGLE, NEAR_PENCIL_5):
        c = census(arr)
        d = len(arr)
        assert sum(v * k * (k - 1) // 2 for k, v in c.items()) == d * (d - 1) // 2


def pairwise_lattice(arr):
    """The exact all-pairs grouping, kept as the oracle for build_lattice:
    every pair of lines intersected with CycNumber operators and grouped by
    the normalized point, ordered by multiplicity, then by coefficients."""
    seen = {}
    lines = [l.coords for l in arr.lines]
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            X = oracle_normalized(oracle_cross(lines[i], lines[j]))
            seen.setdefault(X, set()).update((i, j))
    items = sorted(seen.items(), key=lambda kv: (
        -len(kv[1]), tuple(c.sort_key() for c in kv[0])))
    return (
        tuple(p for p, _ in items),
        tuple(len(inc) for _, inc in items),
        tuple(tuple(sorted(inc)) for _, inc in items),
    )


def fresh_lattice(arr):
    """build_lattice on a fresh Arrangement of the same lines, which keeps
    no lattice yet, so the grouping really runs."""
    return build_lattice(Arrangement(arr.field, arr.lines))


def as_tuple(lat):
    return tuple(p.coords for p in lat.points), lat.mult, lat.incidence


def embed(arr, F):
    """A rational arrangement with its coefficients read in F."""
    return Arrangement(
        F,
        [ProjLine(F, [F.scalar(c.as_fraction()) for c in l.coords]) for l in arr.lines],
    )


@st.composite
def arrangements(draw):
    F = cyc_field(draw(st.sampled_from((1, 3, 4, 5, 8, 12))))
    n = F.order
    kind = draw(st.sampled_from(("generic", "full_monomial", "a_of_w", "cone")))
    seed = draw(st.integers(0, 10**6))
    if kind == "full_monomial":
        return full_monomial(n)
    if kind == "a_of_w":
        w = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        return a_of_w(n, w)
    if kind == "generic":
        return embed(generic_arrangement(draw(st.integers(3, 6)), seed=seed), F)
    # a triangle has no diagonal for an adversarial vertex to sit on
    base = generic_arrangement(draw(st.integers(4, 5)), seed=seed)
    if draw(st.booleans()):
        vertex = generic_vertex(base, seed=seed)
    else:
        vertex = adversarial_vertex(base, seed=seed)
    return embed(cone(ConeSpec(base, vertex, draw(st.integers(0, 2)), seed)), F)


@settings(max_examples=40, deadline=None)
@given(arrangements(), st.data())
def test_lattice_matches_pairwise_oracle_property(arr, data):
    # Every arrangement here is a fresh instance that keeps no lattice yet,
    # so each grouping really runs, and modular_points reads the lattice
    # that its arrangement keeps.
    arr = Arrangement(arr.field, arr.lines)
    lat = build_lattice(arr)
    assert as_tuple(lat) == pairwise_lattice(arr)
    mods = set(modular_points(arr))

    # Permuted lines: the same points, incidences relabelled, same answers.
    perm = data.draw(st.permutations(range(len(arr))))
    shuffled = Arrangement(arr.field, [arr.lines[k] for k in perm])
    lat_s = build_lattice(shuffled)
    assert {
        p: tuple(sorted(perm[k] for k in inc))
        for p, inc in zip(lat_s.points, lat_s.incidence)
    } == dict(zip(lat.points, lat.incidence))
    assert lat_s.census() == lat.census()
    assert set(modular_points(shuffled)) == mods

    # Moved by a projective transform: the oracle again, and the modular
    # points are the images of the old ones.
    M = random_invertible_matrix(random.Random(data.draw(st.integers(0, 10**6))))
    moved = apply_transform(arr, M)
    lat_m = build_lattice(moved)
    assert as_tuple(lat_m) == pairwise_lattice(moved)
    assert certified_incidence(moved) == tuple(sorted(lat_m.incidence))
    assert lat_m.census() == lat.census()
    assert {(p.coords, m) for p, m in modular_points(moved)} == {
        (image(M, p), m) for p, m in mods}


# Primes 7 and 13 are 1 mod 3.  For the first two arrangements, 7 divides a
# denominator or makes two lines coincide, and at 13 two distinct exact
# points meet mod p; only the exact incidence check notices the second.
# full_monomial(3) moved has a denominator divisible by both.
BAD_PRIME_CASES = {
    "generic, bad denominator then collision": lambda: embed(
        generic_arrangement(6, seed=0), cyc_field(3)
    ),
    "generic, coincident lines then collision": lambda: embed(
        generic_arrangement(6, seed=1), cyc_field(3)
    ),
    "moved full_monomial(3), two bad denominators": lambda: apply_transform(
        full_monomial(3), random_invertible_matrix(random.Random(0))
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_PRIME_CASES))
def test_lattice_survives_bad_primes(name, monkeypatch):
    tiny = (7, 13)
    tried = []

    def primes(n, skip=0):
        tried.append(skip)
        if skip < len(tiny):
            return tiny[skip], _cyclotomic_roots(n, tiny[skip])
        return split_prime(n, skip - len(tiny))

    arr = BAD_PRIME_CASES[name]()
    monkeypatch.setattr(projgeo, "split_prime", primes)
    lat = fresh_lattice(arr)
    assert as_tuple(lat) == pairwise_lattice(arr)
    assert tried == [0, 1, 2]
    # the incidences alone take the same primes
    tried.clear()
    incidence = certified_incidence(Arrangement(arr.field, arr.lines))
    assert incidence == tuple(sorted(pairwise_lattice(arr)[2]))
    assert tried == [0, 1, 2]


def _incidence_inputs():
    """Every A(w) class with n <= 6, in its own frame and moved by three
    transforms, the seed-0 cones and pool, near_pencil(5) and
    full_monomial(n) for n <= 4."""
    rng = random.Random(30)
    for label, _, arr in _aw_keys(6):
        yield label, arr
        for t in range(3):
            yield f"{label}-t{t}", apply_transform(
                arr, random_invertible_matrix(rng))
    for dp in range(3, 6):
        for kind in ("generic", "adversarial"):
            for e in (0, 1, 2):
                for s in range(1, 6):
                    label, arr = _build_cone(0, dp, kind, e, s)
                    if arr is not None:
                        yield label, arr
    yield from _standard_pool(0, 6, 5)
    yield "near_pencil(5)", near_pencil(5)
    for n in range(1, 5):
        yield f"full_monomial({n})", full_monomial(n)


def test_certified_incidence_is_the_sorted_lattice_incidence():
    # On fresh instances, so each grouping runs: the incidences are the
    # lattice's, sorted, whichever of the two is asked first, and asking for
    # the incidences leaves the lattice as it was.
    for label, arr in _incidence_inputs():
        first, second = (Arrangement(arr.field, arr.lines) for _ in range(2))
        incidence = certified_incidence(first)
        assert first._lattice is None
        lat = build_lattice(first)
        lat_kept = build_lattice(second)
        assert certified_incidence(second) == incidence, label
        assert incidence == tuple(sorted(lat.incidence)), label
        assert as_tuple(lat) == as_tuple(lat_kept), label


def test_certified_incidence_checks_the_pair_count(monkeypatch):
    # A grouping that lost one double point, so one pair of lines, is
    # refused by the incidences as by the lattice's census.
    real = projgeo._certified_points

    def lossy(arr, skip):
        points = real(arr, skip)
        k = next(i for i, (_, inc) in enumerate(points) if len(inc) == 2)
        return points[:k] + points[k + 1:]

    monkeypatch.setattr(projgeo, "_certified_points", lossy)
    for read in (certified_incidence, build_lattice):
        with pytest.raises(CertificationError, match="pair count"):
            read(Arrangement(Q, NEAR_PENCIL_5.lines))


# A split prime p = 1 (mod n) small enough that distinct points often meet
# mod p, for each order of the exact-operations property.
TINY_PRIMES = {1: 7, 3: 7, 4: 5, 5: 11, 8: 17, 12: 13}

_NUMERATORS = st.sampled_from([k for k in range(-6, 7) if k])
_DENOMINATORS = st.integers(1, 6)
_KINDS = st.sampled_from(("zero", "rational", "irrational"))


@st.composite
def field_elements(draw, F, integral=False):
    """Zero, a rational (negative and fractional ones included) or, when
    phi(n) > 1, an element that is not rational."""
    def nonzero():
        return Fraction(draw(_NUMERATORS), 1 if integral else draw(_DENOMINATORS))

    kind = draw(_KINDS)
    if kind == "zero":
        return F.zero
    if kind == "rational" or F.degree == 1:
        return F.scalar(nonzero())
    cs = [nonzero() if draw(st.booleans()) else 0 for _ in range(F.degree)]
    cs[draw(st.integers(1, F.degree - 1))] = nonzero()
    return F.element(cs)


@st.composite
def raw_triples(draw, F, integral=False):
    """A nonzero triple as drawn, not normalized."""
    t = [draw(field_elements(F, integral)) for _ in range(3)]
    if not any(t):
        t[draw(st.integers(0, 2))] = F.one
    return tuple(t)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_ops_match_cycnumber_oracle(data):
    n = data.draw(st.sampled_from(sorted(TINY_PRIMES)))
    F = cyc_field(n)
    a, b, c = (data.draw(raw_triples(F)) for _ in range(3))

    # Normalizing: the first nonzero coordinate divided out.
    for t in (a, b, c):
        assert ProjPoint(F, t).coords == oracle_normalized(t)
        assert ProjLine(F, t).coords == oracle_normalized(t)

    # Intersecting and joining: the cross product, normalized.
    la, lb = ProjLine(F, a), ProjLine(F, b)
    pa, pb = ProjPoint(F, a), ProjPoint(F, b)
    if la != lb:
        X = oracle_normalized(oracle_cross(a, b))
        assert line_intersect(la, lb).coords == X
        assert line_through(pa, pb).coords == X
        assert la.contains(ProjPoint(F, X)) and lb.contains(ProjPoint(F, X))
        if data.draw(st.booleans()):
            c = oracle_cross(a, X)  # a line through the point a
            assume(any(c))

    # Incidence: the dot product is zero.
    assert ProjLine(F, c).contains(pa) == (not oracle_dot(c, a))

    # Transforming: the image of a line l is the l' with l' M = l.
    M = [[data.draw(field_elements(F)) for _ in range(3)] for _ in range(3)]
    assume(det3(M))
    arr = Arrangement(F, [la] if la == lb else [la, lb])
    for l, moved in zip(arr.lines, apply_transform(arr, M).lines):
        assert oracle_normalized(moved.coords) == moved.coords
        back = tuple(
            sum((moved.coords[r] * M[r][k] for r in range(3)), F.zero)
            for k in range(3)
        )
        assert oracle_normalized(back) == l.coords

    # Certifying a lattice group: lines l1, l2 and l1 + l2 through a point
    # P and a fourth line through it only mod a tiny prime p, so the first
    # three agree with the exact point and only the fourth line's check
    # refuses p.
    P, q1, q2, r = (data.draw(raw_triples(F, integral=True)) for _ in range(4))
    p = TINY_PRIMES[n]
    l1, l2 = oracle_cross(P, q1), oracle_cross(P, q2)
    lines = [l1, l2, tuple(map(add, l1, l2)),
             tuple(x + 2 * y + p * z for x, y, z in zip(l1, l2, r))]
    assume(all(map(any, lines)) and oracle_dot(r, P))
    lines = [ProjLine(F, t) for t in lines]
    assume(len(set(lines)) == 4)
    arr = Arrangement(F, lines)

    def primes(order, skip=0):
        # after p, the first large split prime serves, unless the exact
        # checks refuse every prime
        assert skip < 3, "no split prime serves"
        if skip == 0:
            return p, _cyclotomic_roots(order, p)
        return split_prime(order, skip - 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projgeo, "split_prime", primes)
        assert as_tuple(build_lattice(arr)) == pairwise_lattice(arr)
