"""Parameter classes for two-modular-point arrangements.

A class is a set of k distinct exponents mod n, taken modulo translation
(adding a constant), inversion (negating), and reordering.  The canonical
representative is the lexicographically smallest sorted image.  Recovery
reads the class back off an arrangement using only its modular structure,
so it is invariant under projective transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .classify import modular_indices
from .field import MAX_ORDER, CertificationError, exponent_in_mu
from .projgeo import Arrangement, build_lattice


@dataclass(frozen=True, order=True)
class WClass:
    n: int
    k: int
    exponents: tuple[int, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "exponents": list(self.exponents)}


def canonicalize(n: int, exponents) -> WClass:
    if n < 1:
        raise ValueError("need n >= 1")
    exps = tuple(exponents)
    if any(type(e) is not int for e in exps):
        raise ValueError(f"exponents must be integers, not {exps!r}")
    exps = tuple(e % n for e in exps)
    if len(set(exps)) != len(exps):
        raise ValueError("repeated exponents")
    if len(exps) > n:
        raise ValueError("at most n exponents")
    if not exps:
        return WClass(n, 0, ())
    best = None
    for base in (exps, tuple(-e % n for e in exps)):
        for a in range(n):
            img = tuple(sorted((e + a) % n for e in base))
            if best is None or img < best:
                best = img
    return WClass(n, len(exps), best)


def enumerate_classes(n: int, k: int) -> list[WClass]:
    if not 0 <= k <= n or n < 1:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    return sorted({canonicalize(n, c) for c in combinations(range(n), k)})


def predicted_modular_count(n: int, k: int) -> int:
    if not 0 <= k <= n or n < 1:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if k < n:
        return 2
    return 3 if n >= 2 else 4


@dataclass(frozen=True)
class Recovery:
    wclass: WClass
    full_monomial: bool

    @property
    def k(self) -> int:
        return self.wclass.k

    def to_json(self) -> dict:
        out = self.wclass.to_json()
        out["full_monomial"] = self.full_monomial
        return out


def recover_class(arr: Arrangement) -> Recovery:
    """Read the class off a homogeneous arrangement with >= 2 modular points.

    The lines missing both chosen modular pencils are concurrent; their
    coefficients decompose in the pencil spanned by the two lines joining
    that common point to the modular points, and the coefficient ratios,
    normalized to make one of them 1, are the roots of unity defining the
    class.  Ratios survive projective transforms, so recovery round-trips.
    Every incidence is read off the certified lattice.
    """
    mods = modular_indices(arr)
    if len(mods) < 2:
        raise ValueError("need at least two modular points")
    lat = build_lattice(arr)
    mults = {lat.mult[i] for i in mods}
    if len(mults) != 1:
        raise ValueError("modular points of unequal multiplicity")
    m = mults.pop()
    if m < 3:
        raise ValueError("modular multiplicity below 3")
    n = m - 2
    # equal multiplicities: the lattice orders these points by coordinates
    inc1, inc2 = (lat.incidence[i] for i in mods[:2])
    rest = [j for j in range(len(arr.lines)) if j not in inc1 and j not in inc2]
    k = len(rest)
    if k != len(arr.lines) - 2 * m + 1:
        raise CertificationError("modular pencil sizes inconsistent")
    if k == 0:
        return Recovery(WClass(n, 0, ()), False)
    if k == 1:
        return Recovery(canonicalize(n, (0,)), k == n)
    inc_q = next((inc for inc in lat.incidence if set(rest) <= set(inc)), None)
    if inc_q is None:
        raise CertificationError("extra lines are not concurrent")
    u, v = (next((j for j in inc_q if j in inc), None) for inc in (inc1, inc2))
    if u is None or v is None:
        raise CertificationError("joining lines missing from the arrangement")
    lambdas = [_pencil_ratio(arr.lines[j], arr.lines[u], arr.lines[v])
               for j in rest]
    ref = lambdas[0]
    exps = []
    for lam in lambdas:
        e = exponent_in_mu(lam / ref, n)
        if e is None:
            raise CertificationError("ratio is not an n-th root of unity")
        exps.append(e)
    return Recovery(canonicalize(n, exps), k == n)


def _pencil_ratio(l, u, v):
    """alpha/beta in the decomposition l = alpha u + beta v."""
    uc, vc, lc = u.coords, v.coords, l.coords
    for i in range(3):
        for j in range(i + 1, 3):
            det = uc[i] * vc[j] - uc[j] * vc[i]
            if det:
                alpha = lc[i] * vc[j] - lc[j] * vc[i]
                beta = uc[i] * lc[j] - uc[j] * lc[i]
                return alpha / beta
    raise CertificationError("pencil basis is degenerate")
