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


def modular_points(arr: Arrangement) -> list[tuple[ProjPoint, int]]:
    """Two distinct points share at most one line, so point i shares a line
    with sum(points_on[l] - 1 for l through i) others, each counted once,
    and is modular exactly when that is all P - 1 of them."""
    lat = build_lattice(arr)
    points_on = Counter(li for inc in lat.incidence for li in inc)
    others = len(lat.points) - 1
    return [
        (p, lat.mult[i])
        for i, p in enumerate(lat.points)
        if sum(points_on[li] for li in lat.incidence[i]) - lat.mult[i] == others
    ]


def is_supersolvable(arr: Arrangement) -> bool:
    return bool(modular_points(arr))


def homogeneity(arr: Arrangement) -> int | None:
    """The common modular multiplicity, when all modular points agree."""
    mods = modular_points(arr)
    if not mods:
        return None
    mults = {m for _, m in mods}
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


def tjurina_free(d: int, d2: int, d3: int) -> int:
    return (d - 1) ** 2 - d2 * d3


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
    lat = build_lattice(arr)
    d = lat.d
    cen = lat.census()
    n2 = cen.get(2, 0)
    n3 = cen.get(3, 0)
    total_points = sum(cen.values())
    mods = modular_points(arr)
    mod_mults = sorted({m for _, m in mods})
    supersolvable = bool(mods)
    pencil = is_pencil(arr)
    near = is_near_pencil(arr)
    m_homog = mod_mults[0] if len(mod_mults) == 1 else None
    checks: dict[str, CheckResult] = {}

    pair_sum = sum(n_k * k * (k - 1) // 2 for k, n_k in cen.items())
    checks["eqSum"] = CheckResult(
        "eqSum", True, pair_sum == d * (d - 1) // 2, pair_sum, d * (d - 1) // 2
    )

    if pencil or near:
        checks["hirzebruch"] = CheckResult("hirzebruch", False, None)
    else:
        lhs = n2 + Fraction(3, 4) * n3 - d
        rhs = sum((k - 4) * n_k for k, n_k in cen.items() if k > 4)
        checks["hirzebruch"] = CheckResult("hirzebruch", True, lhs >= rhs, lhs, rhs)

    if supersolvable:
        m = mod_mults[-1]
        rhs = 2 * total_points - m * (d - m) - 2
        checks["eqSS"] = CheckResult("eqSS", True, n2 >= rhs, n2, rhs)
        tau = tjurina_census(lat)
        tau_free = tjurina_free(d, m - 1, d - m)
        checks["tjurina"] = CheckResult("tjurina", True, tau == tau_free, tau, tau_free)
    else:
        checks["eqSS"] = CheckResult("eqSS", False, None)
        checks["tjurina"] = CheckResult("tjurina", False, None)

    if m_homog is not None:
        checks["thm1_bound"] = CheckResult(
            "thm1_bound", True, d <= 3 * m_homog - 3, d, 3 * m_homog - 3
        )
    else:
        checks["thm1_bound"] = CheckResult("thm1_bound", False, None)

    big = [m for m in mod_mults if 2 * m >= d]
    if supersolvable and not pencil and big:
        half = Fraction(d, 2)
        bounds = [-2 * m * m + (3 * d - 1) * m - d * d + d for m in big]
        ok = all(n2 >= b and b >= half for b in bounds)
        checks["thm2B_bound"] = CheckResult(
            "thm2B_bound", True, ok, n2, max(bounds)
        )
    else:
        checks["thm2B_bound"] = CheckResult("thm2B_bound", False, None)

    if supersolvable and not pencil:
        half = Fraction(d, 2)
        checks["conj1"] = CheckResult("conj1", True, n2 >= half, n2, half)
        checks["conj2"] = CheckResult("conj2", True, n2 > 0, n2, 0)
    else:
        checks["conj1"] = CheckResult("conj1", False, None)
        checks["conj2"] = CheckResult("conj2", False, None)

    return ClassifyReport(
        d=d,
        is_pencil=pencil,
        is_near_pencil=near,
        modular=tuple(mods),
        m_homogeneous=m_homog,
        max_multiplicity=lat.mult[0],
        census=cen,
        checks=checks,
    )
