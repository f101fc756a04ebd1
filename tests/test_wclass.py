"""Canonical classes, enumeration, prediction, and recovery round-trips."""

import dataclasses
import random

import pytest

import linarr.classify as classify
import linarr.wclass as wclass
from linarr import CertificationError
from linarr.families import a_of_w, full_monomial, near_pencil, pencil
from linarr.projgeo import (
    apply_transform,
    build_lattice,
    lattice_isomorphic,
    random_invertible_matrix,
)
from linarr.wclass import (
    WClass,
    canonicalize,
    enumerate_classes,
    predicted_modular_count,
    _pencil_ratio,
    recover_class,
)


def test_canonicalize_examples():
    assert canonicalize(4, (1, 3)).exponents == (0, 2)
    assert canonicalize(3, (0, 1)) == canonicalize(3, (0, 2))
    assert canonicalize(5, (0,)) == WClass(5, 1, (0,))
    assert canonicalize(6, ()).k == 0


def test_canonicalize_rejects_non_integers():
    for w in ((1.5,), (0, 2.0), (True,)):
        with pytest.raises(ValueError, match="integers"):
            canonicalize(5, w)


def test_canonicalize_idempotent():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        w = tuple(rng.sample(range(n), k))
        c = canonicalize(n, w)
        assert canonicalize(n, c.exponents) == c


def test_canonicalize_group_invariance():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(1, n)
        w = tuple(rng.sample(range(n), k))
        c = canonicalize(n, w)
        assert canonicalize(n, tuple((e + 1) % n for e in w)) == c
        assert canonicalize(n, tuple(-e % n for e in w)) == c
        shuffled = list(w)
        rng.shuffle(shuffled)
        assert canonicalize(n, tuple(shuffled)) == c


def test_canonicalize_rejects_repeats():
    with pytest.raises(ValueError):
        canonicalize(4, (1, 5))  # 5 = 1 mod 4


def test_enumerate_counts():
    for n in range(1, 7):
        assert len(enumerate_classes(n, n)) == 1
        assert len(enumerate_classes(n, 0)) == 1
    assert len(enumerate_classes(2, 1)) == 1
    assert len(enumerate_classes(4, 2)) == 2
    assert len(enumerate_classes(5, 2)) == 2
    assert len(enumerate_classes(5, 3)) == 2
    assert len(enumerate_classes(6, 2)) == 3
    assert len(enumerate_classes(6, 3)) == 3


def test_enumerate_orbit_sizes_cover_all_subsets():
    # orbits of k-subsets partition all C(n,k) of them
    from itertools import combinations

    for n, k in ((5, 2), (6, 2), (6, 3)):
        classes = enumerate_classes(n, k)
        buckets = {c: 0 for c in classes}
        for sub in combinations(range(n), k):
            buckets[canonicalize(n, sub)] += 1
        import math

        assert sum(buckets.values()) == math.comb(n, k)
        assert all(v > 0 for v in buckets.values())


def test_orders_below_one_are_rejected():
    # there is no class of order n < 1: canonicalize would reduce mod 0,
    # and (0, 0) satisfies 0 <= k <= n
    for call in (lambda: canonicalize(0, (1,)), lambda: canonicalize(0, ()),
                 lambda: canonicalize(-3, (1,)),
                 lambda: enumerate_classes(0, 0),
                 lambda: enumerate_classes(-1, 0),
                 lambda: predicted_modular_count(0, 0)):
        with pytest.raises(ValueError, match="n >= 1"):
            call()


def test_predicted_modular_count():
    assert predicted_modular_count(4, 2) == 2
    assert predicted_modular_count(3, 3) == 3
    assert predicted_modular_count(1, 1) == 4
    assert predicted_modular_count(5, 0) == 2


def test_recover_untransformed():
    r = recover_class(a_of_w(4, (0, 1)))
    assert r.wclass == canonicalize(4, (0, 1)) and not r.full_monomial
    r = recover_class(a_of_w(5, (1,)))
    assert r.wclass == WClass(5, 1, (0,)) and not r.full_monomial
    r = recover_class(a_of_w(2, ()))
    assert r.k == 0 and not r.full_monomial
    r = recover_class(full_monomial(3))
    assert r.full_monomial and r.k == 3
    r = recover_class(full_monomial(1))
    assert r.full_monomial and r.k == 1


def test_recover_round_trip_with_transforms():
    rng = random.Random(31)
    for n, w in ((2, (0,)), (4, (0, 2)), (5, (0, 1)), (6, (0, 1, 3))):
        expected = canonicalize(n, w)
        arr = a_of_w(n, w)
        for _ in range(3):
            moved = apply_transform(arr, random_invertible_matrix(rng))
            got = recover_class(moved)
            assert got.wclass == expected
            assert got.full_monomial == (len(w) == n)


def test_recover_rejects_bad_inputs():
    with pytest.raises(ValueError):
        recover_class(pencil(6))
    with pytest.raises(ValueError):
        recover_class(near_pencil(6))
    with pytest.raises(ValueError):
        recover_class(near_pencil(3))  # triangle: modular multiplicity 2


def test_failed_structural_checks_raise_certification_error(monkeypatch):
    # A structural check that fails is a failed certificate, which callers
    # must tell apart from a bug; an AssertionError would not let them.
    arr = a_of_w(4, (0, 1))
    lat = build_lattice(arr)
    # The two extra lines of A(w) meet at q, on one line through each
    # modular point; a lattice that drops those two lines from q's
    # incidence has no joining lines, and one that moves an extra line off
    # q has no common point.
    mods = [lat.incidence[i] for i, p in enumerate(lat.points)
            if p in {q for q, _ in classify.modular_points(arr)}]
    rest = [j for j in range(len(arr.lines)) if not any(j in i for i in mods)]
    iq = next(i for i, inc in enumerate(lat.incidence)
              if set(rest) <= set(inc))

    def faulty(incidence_q):
        incidence = list(lat.incidence)
        incidence[iq] = incidence_q
        return dataclasses.replace(lat, incidence=tuple(incidence))

    for incidence_q, message in (
        (tuple(rest), "joining lines"),
        (tuple(j for j in lat.incidence[iq] if j != rest[-1]),
         "not concurrent"),
    ):
        monkeypatch.setattr(wclass, "build_lattice",
                            lambda arr, fake=faulty(incidence_q): fake)
        with pytest.raises(CertificationError, match=message):
            recover_class(arr)
    monkeypatch.setattr(wclass, "build_lattice", build_lattice)
    monkeypatch.setattr(wclass, "exponent_in_mu", lambda t, n: None)
    with pytest.raises(CertificationError, match="root of unity"):
        recover_class(arr)
    u = arr.lines[0]
    with pytest.raises(CertificationError, match="degenerate"):
        _pencil_ratio(arr.lines[1], u, u)
    with pytest.raises(CertificationError, match="pair count"):
        dataclasses.replace(lat, d=lat.d + 1).census()


def test_exponent_doubling_preserves_lattice_at_order_five():
    # squaring the root of unity is a field automorphism, so these two
    # arrangements have isomorphic lattices even though their classes differ
    a = a_of_w(5, (0, 1))
    b = a_of_w(5, (0, 2))
    assert canonicalize(5, (0, 1)) != canonicalize(5, (0, 2))
    assert lattice_isomorphic(build_lattice(a), build_lattice(b)) is not None
