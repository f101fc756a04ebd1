"""Exact projective geometry in P^2 over a cyclotomic field.

Points and lines are coefficient triples, normalized so the first nonzero
coordinate is 1, so equal points compare and hash equal.  The intersection
lattice of an arrangement records every pairwise intersection point with its
multiplicity and incident lines.

The lattice is grouped modulo a split prime p = 1 (mod n): the lines are
reduced at a root of Phi_n mod p, every pair is intersected mod p, and pairs
are grouped by the normalized point they meet in.  Reduction is a ring map,
so equal exact points stay equal mod p and each group is a union of exact
groups.  Each group is then certified exactly, as one point, on integer
numerators: one integral cross product X of its two lowest lines, and one
integral dot product with X for every further line, all checked before any
point is normalized.  A failed check, a pair of lines that coincide mod p or
a denominator divisible by p sends the whole lattice to the next split prime.
certified_incidence returns the groups' incident lines, sorted; build_lattice
also normalizes each point and orders them by multiplicity, then coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add, neg, sub

from .field import (
    CertificationError,
    CycField,
    CycNumber,
    _inverse,
    _polymul,
    _reduced,
    cyc_field,
    cyc_from_strings,
    cyc_to_strings,
)
from .linalg import reduce_at, split_prime


def _coerce(field: CycField, values) -> list[CycNumber]:
    """values as elements of field; a CycNumber of another field is refused."""
    coords = [c if isinstance(c, CycNumber) else field.scalar(c) for c in values]
    if any(c.field.order != field.order for c in coords):
        raise ValueError("coordinate from a different field")
    return coords


def _normalize(field: CycField, triple) -> tuple[CycNumber, ...]:
    coords = _coerce(field, triple)
    if next((c for c in coords if c), None) == field.one:
        return tuple(coords)
    return _normalized(field, _integral(coords))


def _integral(coords) -> tuple[tuple[int, ...], ...]:
    """The numerators of a tuple of coordinates, each scaled up to the lcm
    of their denominators: the same projective tuple, over Z[t]/(Phi_n).
    Intersections, incidences and transforms compute on these."""
    L = lcm(*[c.den for c in coords])
    return tuple([
        c.num if c.den == L else tuple(map((L // c.den).__mul__, c.num))
        for c in coords
    ])


def _normalized(field: CycField, nums) -> tuple[CycNumber, ...]:
    """The canonical coordinates of integral numerators nums: each divided
    by the first nonzero one, a rational lead with no multiply."""
    k = next((i for i, a in enumerate(nums) if any(a)), None)
    if k is None:
        raise ValueError("zero triple is not projective")
    lead = nums[k]
    if any(lead[1:]):
        inv = _inverse(CycNumber(field, lead, 1))
        den, scaled = inv.den, lambda a: _polymul(field, a, inv.num)
    else:
        den, scaled = abs(lead[0]), tuple if lead[0] > 0 else (
            lambda a: tuple(map(neg, a)))
    coords = [field.zero] * len(nums)
    coords[k] = field.one
    for i in range(k + 1, len(nums)):
        if any(nums[i]):
            coords[i] = _reduced(field, scaled(nums[i]), den)
    return tuple(coords)


def _int_cross(F: CycField, a, b):
    """Cross product of two integral triples, in Z[t]/(Phi_n)."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (tuple(map(sub, _polymul(F, a1, b2), _polymul(F, a2, b1))),
            tuple(map(sub, _polymul(F, a2, b0), _polymul(F, a0, b2))),
            tuple(map(sub, _polymul(F, a0, b1), _polymul(F, a1, b0))))


def _int_dot(F: CycField, a, b) -> tuple[int, ...]:
    """Dot product of two integral triples, in Z[t]/(Phi_n)."""
    return tuple(map(add, map(add, _polymul(F, a[0], b[0]), _polymul(F, a[1], b[1])),
                     _polymul(F, a[2], b[2])))


def _ortho_pair(coeffs, zero):
    """Two independent triples orthogonal to coeffs, for any element type."""
    piv = next(i for i in range(3) if coeffs[i])
    pts = []
    for o in (i for i in range(3) if i != piv):
        w = [zero] * 3
        w[o], w[piv] = coeffs[piv], -coeffs[o]
        pts.append(w)
    return pts


class _ProjTriple:
    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field: CycField, triple):
        self.field = field
        self.coords = _normalize(field, triple)
        self._hash = None

    @classmethod
    def _from_integral(cls, field: CycField, nums):
        """The triple with integral numerators nums, normalized."""
        self = cls.__new__(cls)
        self.field, self.coords, self._hash = field, _normalized(field, nums), None
        return self

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field.order == other.field.order
            and self.coords == other.coords
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self).__name__, self.field.order, self.coords))
            self._hash = h
        return h

    def _integrals(self, other: "_ProjTriple", what: str):
        """Both integral triples, which must share one field."""
        if self.field.order != other.field.order:
            raise ValueError(f"{what} from different fields")
        return _integral(self.coords), _integral(other.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        inner = " : ".join(repr(c) for c in self.coords)
        return f"{type(self).__name__}({inner})"


class ProjPoint(_ProjTriple):
    """Point of P^2, normalized homogeneous coordinates."""


class ProjLine(_ProjTriple):
    """Line of P^2, normalized coefficient triple of its linear form."""

    def contains(self, point: ProjPoint) -> bool:
        _expect(ProjPoint, point)
        return not any(_int_dot(
            self.field, *self._integrals(point, "line and point")))


def _expect(kind, *operands):
    for x in operands:
        if not isinstance(x, kind):
            raise TypeError(f"expected a {kind.__name__}, not {type(x).__name__}")


def _join(cls, u: _ProjTriple, v: _ProjTriple, what: str, result: str):
    """The point on two lines, or the line through two points: a cross product."""
    _expect(ProjLine if cls is ProjPoint else ProjPoint, u, v)
    if u == v:
        raise ValueError(f"coincident {what} have no unique {result}")
    return cls._from_integral(u.field, _int_cross(u.field, *u._integrals(v, what)))


def line_intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    return _join(ProjPoint, l1, l2, "lines", "intersection")


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    return _join(ProjLine, p1, p2, "points", "connecting line")


class Arrangement:
    """Finite set of distinct lines in P^2 over one cyclotomic field.

    The line order is fixed, and with it the indices of the intersection
    lattice, which build_lattice computes once and keeps in _lattice.
    """

    __slots__ = ("field", "lines", "line_set", "_hash", "_lattice")

    def __init__(self, field: CycField, lines):
        self.field = field
        lines = tuple(
            l if isinstance(l, ProjLine) else ProjLine(field, l) for l in lines
        )
        if not lines:
            raise ValueError("arrangement needs at least one line")
        for l in lines:
            if l.field.order != field.order:
                raise ValueError("line from a different field")
        self.line_set = frozenset(lines)
        if len(self.line_set) != len(lines):
            raise ValueError("duplicate lines in arrangement")
        self.lines = lines
        self._hash = None
        self._lattice = None

    def __len__(self):
        return len(self.lines)

    def __eq__(self, other):
        return (
            isinstance(other, Arrangement)
            and self.field.order == other.field.order
            and self.line_set == other.line_set
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field.order, self.line_set))
            self._hash = h
        return h

    def __repr__(self):
        return f"Arrangement(n={self.field.order}, d={len(self.lines)})"

    def to_json(self) -> dict:
        return {
            "cyclotomic_order": self.field.order,
            "lines": [[cyc_to_strings(c) for c in l.coords] for l in self.lines],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Arrangement":
        """Inverse of to_json; raises ValueError on any malformed input."""
        try:
            n = data["cyclotomic_order"]
            if type(n) is not int:
                raise ValueError(f"cyclotomic_order must be an integer, not {n!r}")
            F = cyc_field(n)
            lines = []
            for raw in data["lines"]:
                if len(raw) != 3:
                    raise ValueError("each line needs three coefficients")
                lines.append(ProjLine(F, [cyc_from_strings(F, c) for c in raw]))
        except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(
                f"malformed arrangement JSON: {type(exc).__name__}: {exc}"
            ) from exc
        return cls(F, lines)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Arrangement":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class Lattice:
    """Intersection lattice in rank 2: points, multiplicities, incidences."""

    d: int
    points: tuple[ProjPoint, ...]
    mult: tuple[int, ...]
    incidence: tuple[tuple[int, ...], ...]

    def census(self) -> dict[int, int]:
        _pair_count(self.d, self.mult)
        return {k: self.mult.count(k) for k in sorted(set(self.mult))}


def _pair_count(d: int, mult) -> None:
    if sum(k * (k - 1) // 2 for k in mult) != d * (d - 1) // 2:
        raise CertificationError("pair count identity violated")


def build_lattice(arr: Arrangement) -> Lattice:
    """All pairwise intersection points, grouped at a split prime and
    certified exactly one point at a time (see the module docstring).
    Computed once per arrangement and kept on it."""
    if arr._lattice is not None:
        return arr._lattice
    points = [(ProjPoint._from_integral(arr.field, X), inc)
              for X, inc in _certified(arr)]
    scale = lcm(*(c.den for p, _ in points for c in p.coords))

    def order(item):
        p, inc = item
        # every coefficient over the common denominator `scale`: integers
        # in the order of the Fraction coefficient tuples
        return (-len(inc), tuple(
            a * (scale // c.den) for c in p.coords for a in c.num
        ))

    points.sort(key=order)
    lattice = Lattice(
        d=len(arr.lines),
        points=tuple(p for p, _ in points),
        mult=tuple(len(inc) for _, inc in points),
        incidence=tuple(inc for _, inc in points),
    )
    arr._lattice = lattice
    return lattice


def certified_incidence(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Every intersection point's incident lines, certified as in build_lattice
    with no point normalized.  Sorted: the pair scan meets each point first at
    its two lowest lines, which lead its tuple, and no two points share both."""
    return tuple(inc for _, inc in _certified(arr))


def _certified(arr: Arrangement):
    """_certified_points at the first split prime that serves."""
    if len(arr.lines) < 2:
        raise ValueError("need at least two lines to intersect")
    # Only finitely many primes divide a denominator, a cross-product
    # coordinate or a 2x2 minor of two distinct points, so this ends.
    skip = 0
    while (points := _certified_points(arr, skip)) is None:
        skip += 1
    _pair_count(len(arr.lines), (len(inc) for _, inc in points))
    return points


def _certified_points(arr: Arrangement, skip: int):
    """(integral point, incident lines) for every intersection point, from
    the grouping at split_prime(n, skip); None when that prime does not serve."""
    F = arr.field
    p, roots = split_prime(F.order, skip)
    try:
        red = reduce_at([l.coords for l in arr.lines], roots[0], p)
    except ZeroDivisionError:
        return None
    groups: dict[tuple[int, int, int], set[int]] = {}
    for i, (a0, a1, a2) in enumerate(red):
        for j in range(i + 1, len(red)):
            b0, b1, b2 = red[j]
            x = (a1 * b2 - a2 * b1) % p
            y = (a2 * b0 - a0 * b2) % p
            z = (a0 * b1 - a1 * b0) % p
            if x:
                inv = pow(x, -1, p)
                pt = (1, y * inv % p, z * inv % p)
            elif y:
                pt = (0, 1, z * pow(y, -1, p) % p)
            elif z:
                pt = (0, 0, 1)
            else:
                return None  # lines i and j coincide mod p
            groups.setdefault(pt, set()).update((i, j))
    ints = [_integral(l.coords) for l in arr.lines]
    meets = []
    for grp in groups.values():
        inc = tuple(sorted(grp))
        X = _int_cross(F, ints[inc[0]], ints[inc[1]])
        for li in inc[2:]:
            if any(_int_dot(F, ints[li], X)):
                return None  # distinct exact points met mod p
        meets.append((X, inc))
    return meets


def census(arr: Arrangement) -> dict[int, int]:
    return build_lattice(arr).census()


def _on_line(lat: Lattice) -> list[list[int]]:
    """For each line, the indices of the lattice points on it."""
    on_line: list[list[int]] = [[] for _ in range(lat.d)]
    for pi, inc in enumerate(lat.incidence):
        for li in inc:
            on_line[li].append(pi)
    return on_line


def _line_colors(lat: Lattice, on_line):
    """Refined line invariants: start from the multiplicity profile and
    fold in neighbour colors through shared points, twice."""
    colors = [
        tuple(sorted(lat.mult[pi] for pi in on_line[li])) for li in range(lat.d)
    ]
    for _ in range(2):
        canon = {}
        new_colors = []
        for li in range(lat.d):
            env = []
            for pi in on_line[li]:
                others = tuple(
                    sorted(colors[lj] for lj in lat.incidence[pi] if lj != li)
                )
                env.append((lat.mult[pi], others))
            key = (colors[li], tuple(sorted(env)))
            new_colors.append(canon.setdefault(key, key))
        colors = new_colors
    return colors


def lattice_isomorphic(lat1: Lattice, lat2: Lattice) -> list[int] | None:
    """Search for a line bijection inducing a lattice isomorphism.

    Returns the image list (line i of lat1 maps to sigma[i] of lat2) or
    None.  Exhaustive backtracking with invariant pruning, meant for the
    desk scale (d <= 30).
    """
    if lat1.d != lat2.d:
        return None
    if lat1.census() != lat2.census():
        return None
    on_line1 = _on_line(lat1)
    colors1 = _line_colors(lat1, on_line1)
    colors2 = _line_colors(lat2, _on_line(lat2))
    if sorted(map(hash, colors1)) != sorted(map(hash, colors2)):
        return None
    # the point of lat2 on each pair of its lines
    pair2 = {pair: pi for pi, inc in enumerate(lat2.incidence)
             for pair in combinations(inc, 2)}
    d = lat1.d

    candidates = [
        [j for j in range(d) if colors2[j] == colors1[i]] for i in range(d)
    ]

    sigma: list[int | None] = [None] * d
    used = [False] * d
    point_map: dict[int, int] = {}
    point_used: set[int] = set()

    def get_point(table, a, b):
        return table[(a, b)] if a < b else table[(b, a)]

    def order_next():
        best, best_score = None, None
        for i in range(d):
            if sigma[i] is not None:
                continue
            links = sum(
                1
                for pi in on_line1[i]
                if any(sigma[lj] is not None for lj in lat1.incidence[pi])
            )
            score = (-links, len(candidates[i]))
            if best is None or score < best_score:
                best, best_score = i, score
        return best

    def consistent(i, j):
        # every point shared with an assigned line must map coherently
        new_pairs = []
        for pi in on_line1[i]:
            inc = lat1.incidence[pi]
            assigned = [lj for lj in inc if lj != i and sigma[lj] is not None]
            if not assigned:
                continue
            q = get_point(pair2, j, sigma[assigned[0]])
            for lj in assigned[1:]:
                if get_point(pair2, j, sigma[lj]) != q:
                    return None
            if lat2.mult[q] != lat1.mult[pi]:
                return None
            prev = point_map.get(pi)
            if prev is not None:
                if prev != q:
                    return None
            else:
                if q in point_used:
                    return None
                new_pairs.append((pi, q))
        # no two distinct points of line i may collapse to one target
        targets = [q for _, q in new_pairs]
        if len(set(targets)) != len(targets):
            return None
        return new_pairs

    def backtrack():
        i = order_next()
        if i is None:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            new_pairs = consistent(i, j)
            if new_pairs is None:
                continue
            sigma[i] = j
            used[j] = True
            for pi, q in new_pairs:
                point_map[pi] = q
                point_used.add(q)
            if backtrack():
                return True
            sigma[i] = None
            used[j] = False
            for pi, q in new_pairs:
                del point_map[pi]
                point_used.discard(q)
        return False

    if backtrack():
        return [int(x) for x in sigma]  # fully assigned
    return None


def apply_transform(arr: Arrangement, matrix) -> Arrangement:
    """Image arrangement under the projective map x -> M x.

    Lines transform contragradiently, l -> l adj(M): scalar factors do not
    matter projectively, so the adjugate stands in for the inverse.  All
    nine entries of M are scaled by one lcm to integral rows a, b, c; then
    adj(M) has the columns b x c, c x a, a x b, and det M = a . (b x c).
    """
    F = arr.field
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix):
        raise ValueError("expected a 3x3 matrix")
    M = _integral(_coerce(F, [x for row in matrix for x in row]))
    a, b, c = M[0:3], M[3:6], M[6:9]
    adj = _int_cross(F, b, c), _int_cross(F, c, a), _int_cross(F, a, b)
    if not any(_int_dot(F, a, adj[0])):
        raise ValueError("singular transform")
    return Arrangement(F, [
        ProjLine._from_integral(F, tuple(_int_dot(F, l, col) for col in adj))
        for l in map(_integral, (line.coords for line in arr.lines))
    ])


def random_invertible_matrix(rng):
    """3x3 matrix of integers in [-5, 5] with nonzero determinant."""
    Q = cyc_field(1)
    while True:
        M = [(rng.randint(-5, 5),) for _ in range(9)]
        if any(_int_dot(Q, M[0:3], _int_cross(Q, M[3:6], M[6:9]))):
            return tuple(tuple(Fraction(x) for (x,) in M[k:k + 3]) for k in (0, 3, 6))
