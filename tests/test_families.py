"""Family constructors: line counts, censuses, certification, determinism."""

import pytest

from linarr.families import (
    ConeSpec,
    a_of_w,
    adversarial_vertex,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
    joining_lines,
    near_pencil,
    pencil,
)
from linarr.field import cyc_field
from linarr.projgeo import build_lattice, census, lattice_isomorphic


def test_full_monomial_counts():
    for n in range(1, 7):
        arr = full_monomial(n)
        assert len(arr) == 3 * n + 3


def test_full_monomial_small_censuses():
    assert census(full_monomial(1)) == {2: 3, 3: 4}
    assert census(full_monomial(2)) == {2: 6, 3: 4, 4: 3}


def test_a_of_w_counts():
    assert len(a_of_w(2, ())) == 7
    assert len(a_of_w(4, (0, 1))) == 13
    assert len(a_of_w(1, ())) == 5


def test_a_of_w_rejects_bad_entries():
    with pytest.raises(ValueError):
        a_of_w(3, (0, 0))
    with pytest.raises(ValueError):
        a_of_w(3, (5,))
    with pytest.raises(ValueError):
        a_of_w(2, (0, 1, 0))
    # 2 is not a cube root of unity, and 1.5 is no exponent: neither may
    # pass as None or be truncated to 1.
    for w, message in (
        ((cyc_field(3).scalar(2),), "not an n-th root of unity"),
        ((1.5,), "not an integer"),
        ((0, True), "not an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            a_of_w(3, w)


def test_a_of_w_accepts_field_elements():
    F = cyc_field(4)
    assert a_of_w(4, (F.one, F.zeta)) == a_of_w(4, (0, 1))


def test_a_of_w_full_set_is_full_monomial():
    assert a_of_w(3, (0, 1, 2)).line_set == full_monomial(3).line_set
    assert a_of_w(1, (0,)).line_set == full_monomial(1).line_set


def test_b_census():
    b = a_of_w(1, ())
    assert census(b) == {2: 4, 3: 2}


def test_pencil_and_near_pencil():
    assert census(pencil(4)) == {4: 1}
    assert census(near_pencil(5)) == {2: 4, 4: 1}
    assert census(near_pencil(3)) == {2: 3}


def test_generic_arrangement_certified():
    for d in (3, 4, 5):
        arr = generic_arrangement(d, seed=2)
        assert census(arr) == {2: d * (d - 1) // 2}


def test_large_generic_arrangement():
    # coefficients from [-9, 9] run out of lines that miss every node long
    # before d' = 80; the range grows with d' (and stays [-9, 9] for d' <= 6)
    assert census(generic_arrangement(80, seed=0)) == {2: 3160}


def test_generic_arrangement_deterministic():
    assert generic_arrangement(5, seed=9) == generic_arrangement(5, seed=9)


def test_generic_vertex_off_everything():
    base = generic_arrangement(4, seed=1)
    p = generic_vertex(base, seed=1)
    assert not any(l.contains(p) for l in base.lines)
    assert len(joining_lines(base, p)) == 6


def test_cone_over_triangle_is_full_monomial_lattice():
    base = generic_arrangement(3, seed=3)
    p = generic_vertex(base, seed=3)
    c = cone(ConeSpec(base, p))
    assert len(c) == 6
    assert census(c) == {2: 3, 3: 4}
    sigma = lattice_isomorphic(build_lattice(c), build_lattice(full_monomial(1)))
    assert sigma is not None


def test_cone_generic_four():
    base = generic_arrangement(4, seed=5)
    p = generic_vertex(base, seed=5)
    c = cone(ConeSpec(base, p))
    assert len(c) == 10
    assert census(c) == {2: 12, 3: 6, 6: 1}


def test_cone_extra_lines():
    base = generic_arrangement(4, seed=5)
    p = generic_vertex(base, seed=5)
    c = cone(ConeSpec(base, p, extra=2, seed=11))
    assert len(c) == 12
    assert census(c) == {2: 20, 3: 6, 8: 1}


def test_cone_deterministic():
    base = generic_arrangement(4, seed=7)
    p = generic_vertex(base, seed=7)
    c1 = cone(ConeSpec(base, p, extra=1, seed=13))
    c2 = cone(ConeSpec(base, p, extra=1, seed=13))
    assert c1 == c2


def test_cone_vertex_on_base_rejected():
    base = generic_arrangement(3, seed=1)
    lat = build_lattice(base)
    with pytest.raises(ValueError):
        ConeSpec(base, lat.points[0])


def test_adversarial_vertex_needs_a_diagonal():
    with pytest.raises(ValueError):
        adversarial_vertex(generic_arrangement(3, seed=1), seed=1)


def test_adversarial_cone_census():
    base = generic_arrangement(4, seed=2)
    p = adversarial_vertex(base, seed=2)
    assert not any(l.contains(p) for l in base.lines)
    assert len(joining_lines(base, p)) == 5
    c = cone(ConeSpec(base, p))
    assert len(c) == 9
    assert census(c) == {2: 8, 3: 6, 5: 1}


def test_adversarial_cone_with_extras():
    base = generic_arrangement(4, seed=2)
    p = adversarial_vertex(base, seed=2)
    c = cone(ConeSpec(base, p, extra=1, seed=4))
    assert census(c) == {2: 12, 3: 6, 6: 1}


def test_cone_growth_invariants():
    base = generic_arrangement(5, seed=6)
    p = generic_vertex(base, seed=6)
    c0 = cone(ConeSpec(base, p, extra=0, seed=8))
    c1 = cone(ConeSpec(base, p, extra=1, seed=8))
    n0, n1 = census(c0), census(c1)
    assert len(c1) == len(c0) + 1
    assert n1[2] == n0[2] + 5
    assert max(n1) == max(n0) + 1
