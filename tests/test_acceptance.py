"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Run with -s (or -rA) to see the verdict lines.  Everything here is exact
arithmetic; there are no tolerances anywhere.
"""

from fractions import Fraction
from itertools import combinations

from exact_poly import partial_products
from linarr.algebra import (
    mdr,
    multi_exponents,
    nodal_vanishing_dimension,
    supersolvable_exponents,
    verify_mdr,
    ziegler_restriction,
)
from linarr.campaigns import _standard_pool, run_campaign
from linarr.classify import (
    check_identities,
    is_pencil,
    is_supersolvable,
    modular_points,
    tjurina_census,
)
from linarr.families import a_of_w, full_monomial, generic_arrangement
from linarr.linalg import certified_nullity
from linarr.projgeo import build_lattice, census, lattice_isomorphic
from linarr.wclass import enumerate_classes


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_multiplicity_bound():
    res = run_campaign("thm1-bound")
    class_ok = res.ok and all(
        c.witness["d"] <= c.witness["bound"]
        and c.witness["equality"] == (c.witness["k"] == c.witness["n"])
        for c in res.cases
    )
    fm_ok = True
    for n in range(1, 7):
        arr = full_monomial(n)
        d = len(arr.lines)
        m = max(mult for _, mult in modular_points(arr))
        fm_ok = fm_ok and d == 3 * m - 3
    ok = class_ok and fm_ok
    verdict(1, ok, f"d <= 3m-3 on {len(res.cases)} classes and 6 extremal "
                   "arrangements, equality exactly at the extremal family")
    assert ok


def test_criterion_02_modular_point_counts():
    res = run_campaign("thm1b-modular-counts")
    ok = res.ok and all(
        c.witness["M"] == c.witness["predicted"] and c.witness["M"] <= 4
        and (c.witness["M"] == 4)
        == ((c.witness["n"], c.witness["k"]) == (1, 1))
        for c in res.cases
    )
    verdict(2, ok, f"counts match the closed form on {len(res.cases)} classes, "
                   "M <= 4, M = 4 only once")
    assert ok


def test_criterion_03_roundtrip_and_separation():
    res = run_campaign("thm1b-roundtrip")
    trip = f"round-trip {sum(1 for c in res.cases if c.verdict == 'pass')}/{len(res.cases)}"
    collisions = []
    for n in range(2, 7):
        for k in range(2, n):
            classes = enumerate_classes(n, k)
            lats = [build_lattice(a_of_w(n, c.exponents)) for c in classes]
            for i, j in combinations(range(len(classes)), 2):
                if lattice_isomorphic(lats[i], lats[j]) is not None:
                    collisions.append(
                        f"(n={n}, w={classes[i].exponents}) ~ "
                        f"(n={n}, w={classes[j].exponents})"
                    )
    ok = res.ok and not collisions
    if collisions:
        verdict(3, False, f"{trip}, but distinct classes share a lattice: "
                          + "; ".join(collisions))
    else:
        verdict(3, True, f"{trip}, all same-(n,k) class pairs separated")
    assert res.ok
    assert not collisions, (
        "lattice isomorphism does not separate these class pairs: "
        + "; ".join(collisions)
    )


def test_criterion_04_double_point_lower_bound():
    res = run_campaign("conj1-two-modular")
    fm_ok = True
    for n in range(1, 7):
        rep = check_identities(full_monomial(n))
        c1 = rep.checks["conj1"]
        fm_ok = fm_ok and c1.applicable and c1.passed
    braid = census(full_monomial(1))
    eq_ok = braid[2] == 3 and 2 * braid[2] == 6
    ok = res.ok and fm_ok and eq_ok
    verdict(4, ok, f"n2 >= d/2 on {len(res.cases)} classes and 6 extremal "
                   "arrangements; 6-line equality case n2 = 3 = d/2")
    assert ok


def test_criterion_05_quadratic_refinement():
    checked = 0
    ok = True
    for label, arr in _standard_pool(0, 6, 5):
        if is_pencil(arr) or not is_supersolvable(arr):
            continue
        d = len(arr.lines)
        m = max(mult for _, mult in modular_points(arr))
        if 2 * m < d:
            continue
        checked += 1
        n2 = census(arr).get(2, 0)
        q = -2 * m * m + (3 * d - 1) * m - d * d + d
        ok = ok and n2 >= q and Fraction(q) >= Fraction(d, 2)
    ok = ok and checked > 0
    verdict(5, ok, f"n2 >= -2m^2+(3d-1)m-d^2+d >= d/2 on {checked} "
                   "supersolvable non-pencil arrangements with 2m >= d")
    assert ok


def test_criterion_06_cone_grid():
    res = run_campaign("conj1-cones")
    plain = [c for c in res.cases if "-generic-e0-" in c.key
             and c.verdict != "not-applicable"]
    plain_ok = all(
        c.witness["census_matches"] and c.witness["eqSS_equality"]
        for c in plain
    )
    ok = res.ok and plain_ok and len(plain) == 15
    verdict(6, ok, f"n2 >= d/2 on {len(res.cases)} cone cases; census and "
                   f"identity equality confirmed on {len(plain)} plain cones")
    assert ok


def test_criterion_07_restriction_exponents():
    res = run_campaign("zmain-exponents")
    kernel_checked = sum(
        1 for c in res.cases if "easy_matches_kernel" in c.witness
    )
    balanced = sum(1 for c in res.cases if "balanced_gap" in c.witness)
    ok = res.ok and all(
        c.witness["exponents"] == c.witness["expected"] for c in res.cases
    ) and kernel_checked > 0 and balanced > 0
    verdict(7, ok, f"exponents {{m-1, d-m}} on {len(res.cases)} restrictions; "
                   f"closed form vs kernel on {kernel_checked}; "
                   f"gap bound on {balanced} balanced ones")
    assert ok


def test_criterion_08_census_identities():
    hz = run_campaign("hirzebruch-sanity")
    eqsum_ok = all(c.witness.get("eqSum") for c in hz.cases)
    tj = run_campaign("tjurina-consistency")
    tau6 = tjurina_census(build_lattice(full_monomial(1)))
    tau9 = tjurina_census(build_lattice(full_monomial(2)))
    braid_mdr = mdr(full_monomial(1))
    ok = (hz.ok and eqsum_ok and tj.ok
          and tau6 == 19 and tau9 == 49 and braid_mdr == 2)
    verdict(8, ok, f"point-count identity everywhere, double/triple bound on "
                   f"{sum(1 for c in hz.cases if c.verdict == 'pass')} cases, "
                   f"tau and certified minimal degree on {len(tj.cases)} "
                   f"supersolvable cases (tau = {tau6}, {tau9}; mdr = {braid_mdr})")
    assert ok


def test_criterion_09_node_vanishing():
    ok = True
    checked = 0
    for dp in (3, 4, 5):
        for seed in (1, 2):
            arr = generic_arrangement(dp, seed=seed)
            checked += 1
            ok = ok and nodal_vanishing_dimension(arr) == dp
            polys = partial_products(arr)
            lat = build_lattice(arr)
            for g in polys:
                for pt in lat.points:
                    ok = ok and g.eval3(pt.coords) == arr.field.zero
            mons = sorted({m for g in polys for m in g.terms})
            rows = [[g.terms.get(m, arr.field.zero) for m in mons]
                    for g in polys]
            null = certified_nullity(arr.field, len(mons), rows,
                                     lambda rows, zero, one: rows)
            ok = ok and len(mons) - null == dp
    verdict(9, ok, f"vanishing dimension d' and an explicit product basis on "
                   f"{checked} nodal arrangements")
    assert ok


def test_criterion_10_triple_homogeneous_classification():
    res = run_campaign("m3-classification")
    hits = [c for c in res.cases if c.verdict == "pass"]
    shape_ok = (census(full_monomial(1)) == {2: 3, 3: 4}
                and census(a_of_w(1, ())) == {2: 4, 3: 2})
    ok = res.ok and len(hits) > 0 and shape_ok
    verdict(10, ok, f"{len(hits)} triple-homogeneous supersolvable cases, all "
                    "matching the 6-line lattice (n2=3, n3=4) or its 5-line "
                    "deletion (n2=4, n3=2)")
    assert ok
