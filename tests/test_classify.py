"""Classification: modular points, homogeneity, identity checks, Tjurina."""

from fractions import Fraction

from linarr.campaigns import _standard_pool
from linarr.classify import (
    check_identities,
    homogeneity,
    is_near_pencil,
    is_pencil,
    is_supersolvable,
    modular_points,
    tjurina_census,
)
from linarr.families import (
    ConeSpec,
    a_of_w,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
    near_pencil,
    pencil,
)
from linarr.projgeo import ProjPoint, build_lattice


def test_full_triangle_modular_points():
    arr = full_monomial(1)
    mods = modular_points(arr)
    assert len(mods) == 4
    assert all(m == 3 for _, m in mods)
    Q = arr.field
    found = {p for p, _ in mods}
    assert found == {
        ProjPoint(Q, (1, 0, 0)),
        ProjPoint(Q, (0, 1, 0)),
        ProjPoint(Q, (0, 0, 1)),
        ProjPoint(Q, (1, 1, 1)),
    }


def pairwise_modular(lat):
    """The definition, kept as the oracle for modular_points: point i is
    modular when it shares a line with every other point."""
    masks = [sum(1 << li for li in inc) for inc in lat.incidence]
    return [
        (p, lat.mult[i])
        for i, p in enumerate(lat.points)
        if all(masks[i] & masks[j] for j in range(len(masks)) if j != i)
    ]


def test_modular_points_match_pairwise_definition():
    checked = 0
    for seed in range(3):
        for _, arr in _standard_pool(seed, 6, 5):
            assert modular_points(arr) == pairwise_modular(build_lattice(arr))
            checked += 1
    assert checked == 228


def test_full_monomial_three_modular_points():
    for n in (2, 3, 4):
        arr = full_monomial(n)
        mods = modular_points(arr)
        assert len(mods) == 3
        assert all(m == n + 2 for _, m in mods)
        F = arr.field
        assert {p for p, _ in mods} == {
            ProjPoint(F, (1, 0, 0)),
            ProjPoint(F, (0, 1, 0)),
            ProjPoint(F, (0, 0, 1)),
        }


def test_a_of_w_modular_counts():
    arr = a_of_w(4, (0, 1))
    mods = modular_points(arr)
    assert len(mods) == 2
    assert homogeneity(arr) == 6
    b = a_of_w(1, ())
    assert len(modular_points(b)) == 2
    assert homogeneity(b) == 3


def test_pencil_classification():
    arr = pencil(5)
    assert is_pencil(arr)
    assert is_supersolvable(arr)
    mods = modular_points(arr)
    assert len(mods) == 1 and mods[0][1] == 5


def test_near_pencil_classification():
    arr = near_pencil(5)
    assert is_near_pencil(arr) and not is_pencil(arr)
    mults = sorted(m for _, m in modular_points(arr))
    assert mults == [2, 2, 2, 2, 4]
    assert homogeneity(arr) is None


def test_generic_not_supersolvable():
    assert not is_supersolvable(generic_arrangement(4, seed=1))
    assert not is_supersolvable(generic_arrangement(5, seed=1))


def test_tjurina_values():
    assert tjurina_census(build_lattice(full_monomial(1))) == 19
    assert tjurina_census(build_lattice(full_monomial(2))) == 49
    assert tjurina_census(build_lattice(pencil(6))) == 25
    # the free formula (d-1)^2 - (m-1)(d-m) is the "tjurina" check's rhs
    for n, tau in ((1, 19), (2, 49)):
        tjurina = check_identities(full_monomial(n)).checks["tjurina"]
        assert tjurina.passed and tjurina.lhs == tjurina.rhs == tau


def test_report_full_triangle():
    rep = check_identities(full_monomial(1))
    assert rep.d == 6 and rep.M == 4 and rep.m_homogeneous == 3
    assert rep.census == {2: 3, 3: 4}
    c = rep.checks
    assert c["eqSum"].passed
    assert c["thm1_bound"].passed and c["thm1_bound"].lhs == c["thm1_bound"].rhs == 6
    assert c["conj1"].passed and c["conj1"].lhs == Fraction(6, 2)
    assert c["thm2B_bound"].passed and c["thm2B_bound"].rhs == 3
    assert c["tjurina"].passed and c["tjurina"].lhs == 19


def test_report_pencil_not_applicable():
    rep = check_identities(pencil(7))
    assert rep.is_pencil
    assert not rep.checks["conj1"].applicable
    assert not rep.checks["conj2"].applicable
    assert not rep.checks["hirzebruch"].applicable
    assert rep.checks["tjurina"].applicable and rep.checks["tjurina"].passed


def test_thm1_equality_only_full_monomial():
    for n in (1, 2, 3):
        rep = check_identities(full_monomial(n))
        assert rep.checks["thm1_bound"].lhs == rep.checks["thm1_bound"].rhs
    rep = check_identities(a_of_w(3, (0, 1)))
    assert rep.checks["thm1_bound"].passed
    assert rep.checks["thm1_bound"].lhs < rep.checks["thm1_bound"].rhs


def test_eqss_equality_on_cones_strict_elsewhere():
    base = generic_arrangement(4, seed=5)
    p = generic_vertex(base, seed=5)
    for e in (0, 1):
        rep = check_identities(cone(ConeSpec(base, p, extra=e, seed=2)))
        assert rep.checks["eqSS"].passed
        assert rep.checks["eqSS"].lhs == rep.checks["eqSS"].rhs
    rep = check_identities(full_monomial(2))
    assert rep.checks["eqSS"].passed
    assert rep.checks["eqSS"].lhs > rep.checks["eqSS"].rhs


def test_hirzebruch_on_bigger_arrangements():
    for arr in (full_monomial(2), full_monomial(3), a_of_w(4, (0, 2))):
        ck = check_identities(arr).checks["hirzebruch"]
        assert ck.applicable and ck.passed


def test_m_homogeneous_modular_count_bound():
    for n in range(1, 5):
        for k in range(0, n + 1):
            arr = a_of_w(n, tuple(range(k)))
            rep = check_identities(arr)
            assert rep.m_homogeneous == n + 2
            assert rep.M <= 4
            if (n, k) == (1, 1):
                assert rep.M == 4


def test_report_json_shape():
    data = check_identities(a_of_w(2, (1,))).to_json()
    assert data["d"] == 8
    assert {c["name"] for c in data["checks"]} == {
        "eqSum",
        "hirzebruch",
        "eqSS",
        "thm1_bound",
        "thm2B_bound",
        "conj1",
        "conj2",
        "tjurina",
    }
    for c in data["checks"]:
        if c["applicable"]:
            assert c["pass"] is True
