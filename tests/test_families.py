"""Family constructors: line counts, censuses, certification, determinism."""

import random
from itertools import combinations, product

import pytest

import linarr.families as fam
import linarr.projgeo as projgeo
from linarr.families import (
    ConeSpec,
    _connecting_lines,
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
from linarr.projgeo import (
    Arrangement,
    ProjLine,
    _ortho_pair,
    build_lattice,
    census,
    lattice_isomorphic,
    line_intersect,
    line_through,
)


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


# --- oracles: the constructions as they were before the closed arguments ---


def _generic_by_points(d_prime, seed):
    """generic_arrangement's lines, drawn by the same generator, with every
    node normalized (line_intersect) and each candidate tested against them
    (contains); and how many candidates passed through a node."""
    rng = random.Random(seed)
    bound = max(9, d_prime * d_prime // 4)
    Q = cyc_field(1)
    lines, points, through_a_node = [], set(), 0
    while len(lines) < d_prime:
        for _ in range(500):
            t = tuple(rng.randint(-bound, bound) for _ in range(3))
            if not any(t):
                continue
            cand = ProjLine(Q, t)
            if cand in lines:
                continue
            if not any(cand.contains(p) for p in points):
                break
            through_a_node += 1
        else:
            raise RuntimeError("oracle found no generic line")
        points.update(line_intersect(old, cand) for old in lines)
        lines.append(cand)
    return lines, through_a_node


def _diagonals_by_all_pairs(base):
    """Every pair of base points joined, base lines dropped, in order of
    first occurrence, each line with the first pair of points it joins."""
    joins = {}
    for p, q in combinations(build_lattice(base).points, 2):
        joins.setdefault(line_through(p, q), (p, q))
    return {l: pq for l, pq in joins.items() if l not in base.line_set}


def _cone_by_obstacles(spec):
    """The cone with each extra candidate tested against every lattice point
    but the vertex of the arrangement built so far."""
    F, p = spec.base.field, spec.vertex
    lines = list(spec.base.lines) + joining_lines(spec.base, p)
    rng = random.Random(spec.seed)
    u, v = _ortho_pair(p.coords, F.zero)
    for _ in range(spec.extra):
        arr = Arrangement(F, lines)
        obstacles = [q for q in build_lattice(arr).points if q != p]
        for _ in range(500):
            a, b = fam._ratio(rng), fam._ratio(rng)
            coords = tuple(
                x * F.scalar(a) + y * F.scalar(b) for x, y in zip(u, v))
            if not any(coords):
                continue
            cand = ProjLine(F, coords)
            if not any(cand.contains(q) for q in obstacles):
                assert cand not in arr.line_set
                lines.append(cand)
                break
        else:
            raise RuntimeError("oracle found no extra line")
    return Arrangement(F, lines)


def _small_cone():
    base = generic_arrangement(4, seed=5)
    return cone(ConeSpec(base, generic_vertex(base, seed=5), extra=1, seed=2))


def _bases():
    return [generic_arrangement(d, s) for d in range(3, 7) for s in range(5)] + [
        near_pencil(5), full_monomial(2), _small_cone()]


def test_connecting_lines_are_the_diagonals_of_all_pairs():
    for base in _bases():
        joined = _connecting_lines(base)
        assert list(joined.items()) == list(
            _diagonals_by_all_pairs(base).items())
        # each diagonal's first pair is its first two points in lattice order
        pts = build_lattice(base).points
        for line, pair in joined.items():
            assert pair == tuple([q for q in pts if line.contains(q)][:2])
    assert _connecting_lines(near_pencil(5)) == {}
    assert len(_connecting_lines(full_monomial(2))) > 0


def test_vertices_follow_the_all_pairs_path(monkeypatch):
    bases = [b for b in _bases() if _connecting_lines(b)]
    drawn = [(generic_vertex(b, seed=3), adversarial_vertex(b, seed=3))
             for b in bases]
    monkeypatch.setattr(fam, "_connecting_lines", _diagonals_by_all_pairs)
    assert drawn == [(generic_vertex(b, seed=3), adversarial_vertex(b, seed=3))
                     for b in bases]


# Seeds with d' <= 8 at which one drawn candidate passes through a node;
# on the grid d' = 3..8, seeds 0..9, none does.
_NODE_HITS = {(5, 16), (5, 22), (6, 16), (6, 21), (6, 22), (7, 29), (8, 14),
              (8, 35)}


def test_generic_arrangement_matches_the_normalized_point_loop():
    hits = set()
    for d, seed in {*product(range(3, 9), range(10)), *_NODE_HITS}:
        lines, through_a_node = _generic_by_points(d, seed)
        assert list(generic_arrangement(d, seed).lines) == lines
        if through_a_node:
            hits.add((d, seed))
    assert hits == _NODE_HITS


def _drawn_cones(extras=range(4)):
    """(spec, cone) over generic and adversarial vertices of two generic
    bases and of full_monomial(2)."""
    out = []
    for base, seed in ((generic_arrangement(4, 2), 2),
                       (generic_arrangement(5, 6), 6), (full_monomial(2), 1)):
        for vertex in (generic_vertex, adversarial_vertex):
            p = vertex(base, seed)
            for extra in extras:
                spec = ConeSpec(base, p, extra=extra, seed=seed + extra)
                out.append((spec, cone(spec)))
    return out


def test_cone_lemma_every_point_lies_on_a_line_through_the_vertex():
    for spec, c in _drawn_cones():
        p = spec.vertex
        lat = build_lattice(c)
        through = {i for i, l in enumerate(c.lines) if l.contains(p)}
        assert len(through) == len(c) - len(spec.base)
        for q, inc in zip(lat.points, lat.incidence):
            assert q == p or through & set(inc)


def test_cone_obstacles_reject_exactly_the_lines_already_there():
    # At every stage of a cone, a line through the vertex meets a lattice
    # point other than the vertex exactly when it is already a line there:
    # for random lines through the vertex, and for every joining and extra
    # line of the finished cone.
    rng = random.Random(0)
    for spec, c in _drawn_cones(extras=(3,)):
        F, p = spec.base.field, spec.vertex
        u, v = _ortho_pair(p.coords, F.zero)
        drawn = [ProjLine(F, [x * F.scalar(a) + y * F.scalar(b)
                              for x, y in zip(u, v)])
                 for a, b in ((fam._ratio(rng), fam._ratio(rng))
                              for _ in range(6)) if a or b]
        candidates = drawn + list(c.lines[len(spec.base):])
        start = len(c) - spec.extra
        for k in range(spec.extra + 1):
            arr = Arrangement(F, c.lines[:start + k])
            obstacles = [q for q in build_lattice(arr).points if q != p]
            for cand in candidates:
                assert any(cand.contains(q) for q in obstacles) == (
                    cand in arr.line_set)
        assert _cone_by_obstacles(spec).lines == c.lines


def _forced_ratios(monkeypatch, p, lines):
    """Make the first draws of families._ratio give the lines through p in
    `lines`, in order, then draw as usual."""
    piv = next(i for i in range(3) if p.coords[i])
    queue = [l.coords[i].coeffs[0] for l in lines for i in range(3) if i != piv]
    real = fam._ratio
    monkeypatch.setattr(fam, "_ratio", lambda rng: (
        queue.pop(0) if queue else real(rng)))


def test_cone_rejects_drawn_lines_that_are_already_there(monkeypatch):
    # The draws are forced onto a joining line and onto an extra line twice:
    # the cone must skip the repeats exactly as the obstacle scan does.
    base = generic_arrangement(5, seed=6)
    p = generic_vertex(base, seed=6)
    spec = ConeSpec(base, p, extra=3, seed=4)
    first = cone(ConeSpec(base, p, extra=1, seed=4)).lines[-1]
    joining = joining_lines(base, p)
    forced = [first, first, joining[0], joining[-1], first]
    _forced_ratios(monkeypatch, p, forced)
    c = cone(spec)
    _forced_ratios(monkeypatch, p, forced)
    assert c.lines == _cone_by_obstacles(spec).lines
    assert c.lines[-3] == first and len(c) == len(base) + len(joining) + 3


def test_cone_builds_no_lattice_past_its_base(monkeypatch):
    base = generic_arrangement(5, seed=6)
    p = generic_vertex(base, seed=6)
    build_lattice(base)
    calls = []
    real = projgeo._certified_points
    monkeypatch.setattr(projgeo, "_certified_points",
                        lambda *args: calls.append(args) or real(*args))
    c = cone(ConeSpec(base, p, extra=3, seed=8))
    assert calls == [] and len(c) == 5 + 10 + 3
    build_lattice(c)
    assert len(calls) == 1
