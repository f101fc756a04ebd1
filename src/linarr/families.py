"""Constructors for the arrangement families under study.

Everything here is exact: "generic" objects are sampled from a seeded
generator and then certified by inspecting the lattice, never assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .field import CycNumber, cyc_field, exponent_in_mu
from .projgeo import (
    Arrangement,
    ProjLine,
    ProjPoint,
    _int_cross,
    _int_dot,
    _ortho_pair,
    build_lattice,
    census,
    line_through,
)

_RETRIES = 500


def _axes(F) -> list[ProjLine]:
    """The lines x, y and z."""
    return [ProjLine(F, (1, 0, 0)), ProjLine(F, (0, 1, 0)), ProjLine(F, (0, 0, 1))]


def full_monomial(n: int) -> Arrangement:
    """The 3n+3 lines x, y, z and x - wy, y - wz, x - wz for all w in mu_n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    F = cyc_field(n)
    lines = _axes(F)
    for j in range(n):
        z = F.zeta_pow(j)
        lines.append(ProjLine(F, (F.one, -z, F.zero)))
        lines.append(ProjLine(F, (F.zero, F.one, -z)))
        lines.append(ProjLine(F, (F.one, F.zero, -z)))
    return Arrangement(F, lines)


def _as_exponents(n: int, w) -> tuple[int, ...]:
    exps = []
    for item in w:
        if isinstance(item, CycNumber):
            e = exponent_in_mu(item, n)
            if e is None:
                raise ValueError(f"{item!r} is not an n-th root of unity, n = {n}")
        else:
            e = item
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an integer")
            if not 0 <= e < n:
                raise ValueError(f"exponent {e} out of range for order {n}")
        exps.append(e)
    if len(set(exps)) != len(exps):
        raise ValueError("repeated entries")
    return tuple(exps)


def a_of_w(n: int, w) -> Arrangement:
    """Lines of xyz (x^n - y^n)(x^n - z^n) prod_j (z - zeta^{e_j} y).

    Entries of w may be exponents (integers mod n) or the root-of-unity
    values themselves.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    exps = _as_exponents(n, w)
    if len(exps) > n:
        raise ValueError("at most n entries")
    F = cyc_field(n)
    lines = _axes(F)
    for j in range(n):
        z = F.zeta_pow(j)
        lines.append(ProjLine(F, (F.one, -z, F.zero)))
        lines.append(ProjLine(F, (F.one, F.zero, -z)))
    for e in exps:
        lines.append(ProjLine(F, (F.zero, -F.zeta_pow(e), F.one)))
    return Arrangement(F, lines)


def pencil(d: int) -> Arrangement:
    if d < 2:
        raise ValueError("a pencil needs at least 2 lines")
    Q = cyc_field(1)
    lines = [ProjLine(Q, (1, 0, 0))]
    for j in range(d - 1):
        lines.append(ProjLine(Q, (-j, 1, 0)))
    return Arrangement(Q, lines)


def near_pencil(d: int) -> Arrangement:
    if d < 3:
        raise ValueError("a near-pencil needs at least 3 lines")
    Q = cyc_field(1)
    return Arrangement(Q, pencil(d - 1).lines + (ProjLine(Q, (0, 0, 1)),))


def generic_arrangement(d_prime: int, seed: int) -> Arrangement:
    """d' rational lines certified to meet in C(d',2) distinct double points.

    Lines are added one at a time; a candidate is rejected if it repeats a
    line or passes through an existing intersection point.  Coefficients
    lie in [-R, R], R = max(9, d'^2 // 4): room to miss the ~d'^2/2 nodes.
    """
    if d_prime < 3:
        raise ValueError("need at least 3 lines")
    rng = random.Random(seed)
    bound = max(9, d_prime * d_prime // 4)
    Q = cyc_field(1)
    lines: list[ProjLine] = []
    ints: list[tuple] = []
    nodes: list[tuple] = []
    while len(lines) < d_prime:
        for _ in range(_RETRIES):
            t = tuple(rng.randint(-bound, bound) for _ in range(3))
            if not any(t):
                continue
            cand, c = ProjLine(Q, t), tuple((x,) for x in t)
            if cand in lines:
                continue
            if not all(any(_int_dot(Q, c, X)) for X in nodes):
                continue
            break
        else:
            raise RuntimeError("could not certify a generic arrangement")
        nodes.extend(_int_cross(Q, old, c) for old in ints)
        ints.append(c)
        lines.append(cand)
    arr = Arrangement(Q, lines)
    n = d_prime * (d_prime - 1) // 2
    if census(arr) != {2: n}:
        raise RuntimeError("generic certification failed")
    return arr


def _connecting_lines(base: Arrangement) -> dict[ProjLine, tuple]:
    """The diagonals: lines through two base intersection points that are
    not base lines, in order of first occurrence, each with the first pair
    of points it joins.  Two points join in a base line exactly when
    they share one, so only the pairs with disjoint incidences are joined."""
    lat = build_lattice(base)
    pts, inc = lat.points, [frozenset(i) for i in lat.incidence]
    joined: dict[ProjLine, tuple[ProjPoint, ProjPoint]] = {}
    for i, j in combinations(range(len(pts)), 2):
        if inc[i].isdisjoint(inc[j]):
            joined.setdefault(line_through(pts[i], pts[j]), (pts[i], pts[j]))
    return joined


def _ratio(rng) -> Fraction:
    """A random rational for a vertex coordinate or a pencil coefficient."""
    return Fraction(rng.randint(-40, 40), rng.randint(1, 7))


def generic_vertex(base: Arrangement, seed: int) -> ProjPoint:
    """A point off every base line and off every line joining two base
    intersection points."""
    rng = random.Random(seed)
    forbidden = [*base.line_set, *_connecting_lines(base)]
    F = base.field
    for _ in range(_RETRIES):
        p = ProjPoint(F, (_ratio(rng), _ratio(rng), 1))
        if not any(l.contains(p) for l in forbidden):
            return p
    raise RuntimeError("could not certify a generic vertex")


def adversarial_vertex(base: Arrangement, seed: int) -> ProjPoint:
    """A point on exactly one line joining two base intersection points
    (that line not itself in the base), off everything else.

    No such line exists for a triangle; raises ValueError then.
    """
    rng = random.Random(seed)
    joined = _connecting_lines(base)
    if not joined:
        raise ValueError("base has no diagonal to sit on")
    diag = min(joined, key=ProjLine.sort_key)
    others = [*base.line_set, *(l for l in joined if l != diag)]
    F = base.field
    # parametrize diag by its first pair: its first two points in lattice order
    q0, q1 = joined[diag]
    for _ in range(_RETRIES):
        t = _ratio(rng)
        if not t:
            continue
        coords = tuple(
            a + F.scalar(t) * b for a, b in zip(q0.coords, q1.coords)
        )
        if not any(coords):
            continue
        p = ProjPoint(F, coords)
        if p in (q0, q1):
            continue
        if not any(l.contains(p) for l in others):
            return p
    raise RuntimeError("could not certify an adversarial vertex")


@dataclass(frozen=True)
class ConeSpec:
    base: Arrangement
    vertex: ProjPoint
    extra: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.extra < 0:
            raise ValueError("extra line count must be nonnegative")
        if any(l.contains(self.vertex) for l in self.base.lines):
            raise ValueError("vertex lies on a base line")


def joining_lines(base: Arrangement, vertex: ProjPoint) -> list[ProjLine]:
    """Deduplicated lines from the vertex to each base intersection point."""
    return list(dict.fromkeys(
        line_through(vertex, q) for q in build_lattice(base).points
    ))


def cone(spec: ConeSpec) -> Arrangement:
    """Base, plus all vertex-to-point joining lines, plus `extra` certified
    lines through the vertex p that avoid every other intersection point.

    Each point q != p lies on a line through p already there: a point of
    two base lines is a base point, on its joining line, and any other lies
    on a joining or extra line.  So a line through p that meets some q != p
    is the line pq, already there, and rejecting those needs no lattice.
    """
    F = spec.base.field
    p = spec.vertex
    lines = list(spec.base.lines) + joining_lines(spec.base, p)
    arr = Arrangement(F, lines)
    rng = random.Random(spec.seed)
    u, v = _ortho_pair(p.coords, F.zero)
    for _ in range(spec.extra):
        for _ in range(_RETRIES):
            a, b = _ratio(rng), _ratio(rng)
            coords = tuple(
                x * F.scalar(a) + y * F.scalar(b) for x, y in zip(u, v)
            )
            if not any(coords):
                continue
            cand = ProjLine(F, coords)
            if cand in arr.line_set:
                continue
            lines.append(cand)
            arr = Arrangement(F, lines)
            break
        else:
            raise RuntimeError("could not certify an extra cone line")
    return arr
