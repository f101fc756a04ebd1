"""Modular points, supersolvability, and the combinatorial checks.

A point is modular when the connecting line to every other intersection
point belongs to the arrangement; equivalently, when it shares an
arrangement line with every other intersection point.  All inequality
checks run in exact arithmetic and record both sides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .field import cyc_to_strings
from .projgeo import Arrangement, Lattice, ProjPoint, build_lattice


def modular_indices(arr: Arrangement) -> list[int]:
    """Indices of the modular points in build_lattice(arr), in lattice
    order, so the first has the largest multiplicity.

    Two distinct points share at most one line, so point i shares a line
    with sum(points_on[l] - 1 for l through i) others, each counted once,
    and is modular exactly when that is all P - 1 of them."""
    lat = build_lattice(arr)
    points_on = Counter(li for inc in lat.incidence for li in inc)
    others = len(lat.points) - 1
    return [
        i for i, inc in enumerate(lat.incidence)
        if sum(points_on[li] for li in inc) - lat.mult[i] == others
    ]


def modular_points(arr: Arrangement) -> list[tuple[ProjPoint, int]]:
    lat = build_lattice(arr)
    return [(lat.points[i], lat.mult[i]) for i in modular_indices(arr)]


def is_supersolvable(arr: Arrangement) -> bool:
    return bool(modular_indices(arr))


def homogeneity(arr: Arrangement) -> int | None:
    """The common modular multiplicity, when all modular points agree."""
    return _homogeneity(build_lattice(arr), modular_indices(arr))


def _homogeneity(lat: Lattice, mods: list[int]) -> int | None:
    mults = {lat.mult[i] for i in mods}
    return mults.pop() if len(mults) == 1 else None


def is_pencil(arr: Arrangement) -> bool:
    return len(build_lattice(arr).points) == 1


def is_near_pencil(arr: Arrangement) -> bool:
    lat = build_lattice(arr)
    d = lat.d
    if d < 3 or is_pencil(arr):
        return False
    return lat.mult[0] == d - 1 and all(m == 2 for m in lat.mult[1:])


def tjurina_census(lat: Lattice) -> int:
    return sum(n_k * (k - 1) ** 2 for k, n_k in lat.census().items())


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool | None
    lhs: object = None
    rhs: object = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "pass": self.passed,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
        }


def _num(v):
    if v is None or isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


@dataclass(frozen=True)
class ClassifyReport:
    d: int
    is_pencil: bool
    is_near_pencil: bool
    modular: tuple[tuple[ProjPoint, int], ...]
    m_homogeneous: int | None
    max_multiplicity: int
    census: dict[int, int]
    checks: dict[str, CheckResult]

    @property
    def M(self) -> int:
        return len(self.modular)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "is_pencil": self.is_pencil,
            "is_near_pencil": self.is_near_pencil,
            "modular_points": [
                {"point": [cyc_to_strings(c) for c in p.coords], "multiplicity": m}
                for p, m in self.modular
            ],
            "M": self.M,
            "m_homogeneous": self.m_homogeneous,
            "max_multiplicity": self.max_multiplicity,
            "census": {str(k): v for k, v in self.census.items()},
            "checks": [self.checks[k].to_json() for k in CHECK_NAMES],
        }


CHECK_NAMES = (
    "eqSum",
    "hirzebruch",
    "eqSS",
    "thm1_bound",
    "thm2B_bound",
    "conj1",
    "conj2",
    "tjurina",
)


def check_identities(arr: Arrangement) -> ClassifyReport:
    """Every check is not applicable unless its hypotheses hold; m is the
    multiplicity of the first (a maximal) modular point.  "tjurina" is the
    one comparison of the census Tjurina number with (d-1)^2 - (m-1)(d-m),
    its value on a free arrangement with exponents (1, m-1, d-m)."""
    lat = build_lattice(arr)
    d = lat.d
    cen = lat.census()
    n2 = cen.get(2, 0)
    n3 = cen.get(3, 0)
    mods = modular_indices(arr)
    pencil = is_pencil(arr)
    near = is_near_pencil(arr)
    m_homog = _homogeneity(lat, mods)
    checks = {name: CheckResult(name, False, None) for name in CHECK_NAMES}

    def check(name, passed, lhs, rhs):
        checks[name] = CheckResult(name, True, passed, lhs, rhs)

    pair_sum = sum(n_k * k * (k - 1) // 2 for k, n_k in cen.items())
    check("eqSum", pair_sum == d * (d - 1) // 2, pair_sum, d * (d - 1) // 2)

    if not (pencil or near):
        lhs = n2 + Fraction(3, 4) * n3 - d
        rhs = sum((k - 4) * n_k for k, n_k in cen.items() if k > 4)
        check("hirzebruch", lhs >= rhs, lhs, rhs)

    if mods:
        m = lat.mult[mods[0]]
        rhs = 2 * len(lat.points) - m * (d - m) - 2
        check("eqSS", n2 >= rhs, n2, rhs)
        tau = tjurina_census(lat)
        tau_free = (d - 1) ** 2 - (m - 1) * (d - m)
        check("tjurina", tau == tau_free, tau, tau_free)

    if m_homog is not None:
        check("thm1_bound", d <= 3 * m_homog - 3, d, 3 * m_homog - 3)

    if mods and not pencil:
        half = Fraction(d, 2)
        big = {lat.mult[i] for i in mods if 2 * lat.mult[i] >= d}
        if big:
            bounds = [-2 * m * m + (3 * d - 1) * m - d * d + d for m in big]
            ok = all(n2 >= b and b >= half for b in bounds)
            check("thm2B_bound", ok, n2, max(bounds))
        check("conj1", n2 >= half, n2, half)
        check("conj2", n2 > 0, n2, 0)

    return ClassifyReport(
        d=d,
        is_pencil=pencil,
        is_near_pencil=near,
        modular=tuple((lat.points[i], lat.mult[i]) for i in mods),
        m_homogeneous=m_homog,
        max_multiplicity=lat.mult[0],
        census=cen,
        checks=checks,
    )
