"""Projective geometry: intersections, lattices, transforms, isomorphism."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from linarr.families import (
    ConeSpec,
    a_of_w,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
)
from linarr.field import cyc_field
from linarr.projgeo import (
    Arrangement,
    ProjLine,
    ProjPoint,
    adjugate3,
    apply_transform,
    build_lattice,
    census,
    det3,
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
    with pytest.raises(ValueError):
        line_intersect(l, ProjLine(Q, (2, 4, 6)))
    with pytest.raises(ValueError):
        line_through(ProjPoint(Q, (1, 1, 1)), ProjPoint(Q, (2, 2, 2)))


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


# sha256 of the sorted-key JSON of each lattice, recorded before the field
# moved to integer numerators; point order and every coordinate string must
# not change with the representation.
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
    text = json.dumps(build_lattice(make()).to_json(), sort_keys=True)
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


def test_apply_transform_moves_points_correctly():
    M = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    moved = apply_transform(FULL_TRIANGLE, M)
    lat0 = build_lattice(FULL_TRIANGLE)
    # image of each lattice point lies on the image arrangement's lines
    for p in lat0.points:
        img = ProjPoint(
            Q,
            tuple(
                sum((Q.scalar(M[r][c]) * p.coords[c] for c in range(3)), Q.zero)
                for r in range(3)
            ),
        )
        n_through = sum(1 for l in moved.lines if l.contains(img))
        assert n_through >= 2


def test_singular_transform_rejected():
    with pytest.raises(ValueError):
        apply_transform(FULL_TRIANGLE, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_det_and_adjugate_identity():
    rng = random.Random(3)
    for _ in range(10):
        M = random_invertible_matrix(rng)
        adj = adjugate3(M)
        dM = det3(M)
        for i in range(3):
            for j in range(3):
                acc = sum(M[i][k] * adj[k][j] for k in range(3))
                assert acc == (dM if i == j else 0)


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
