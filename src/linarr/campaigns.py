"""Verification campaigns over parameter grids.

Each campaign sweeps a documented grid of arrangements, records one verdict
per case with enough witness data to re-run that case standalone, and
aggregates everything into a result whose JSON is byte-identical across runs
with the same seed.  Verdicts are "pass", "fail", or "not-applicable".
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    _report_exponents,
    is_balanced,
    multi_exponents,
    verify_mdr,
    ziegler_restriction,
)
from .classify import (
    _num,
    check_identities,
    homogeneity,
    is_pencil,
    is_supersolvable,
    modular_indices,
)
from .families import (
    ConeSpec,
    a_of_w,
    adversarial_vertex,
    cone,
    full_monomial,
    generic_arrangement,
    generic_vertex,
    near_pencil,
    pencil,
)
from .projgeo import (
    Arrangement,
    apply_transform,
    build_lattice,
    census,
    lattice_isomorphic,
    random_invertible_matrix,
)
from .wclass import enumerate_classes, predicted_modular_count, recover_class


@dataclass(frozen=True)
class Case:
    key: str
    verdict: str
    witness: dict


@dataclass(frozen=True)
class CampaignResult:
    campaign: str
    seed: int
    grid: dict
    cases: tuple[Case, ...]

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "not-applicable": 0}
        for c in self.cases:
            out[c.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_json(self) -> dict:
        counts = self.counts
        return {
            "schema": 1,
            "campaign": self.campaign,
            "seed": self.seed,
            "grid": self.grid,
            "summary": {
                "pass": counts["pass"],
                "fail": counts["fail"],
                "not-applicable": counts["not-applicable"],
                "total": len(self.cases),
                "ok": self.ok,
            },
            "cases": [
                {"case": c.key, "verdict": c.verdict, **c.witness}
                for c in sorted(self.cases, key=lambda c: c.key)
            ],
        }


def _derive(seed: int, tag: str) -> int:
    """Stable per-case integer seed from the campaign seed and a label."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=None)
def _aw_roster(n: int) -> tuple:
    out = []
    for k in range(n + 1):
        for cls in enumerate_classes(n, k):
            w = cls.exponents
            wtag = ".".join(map(str, w)) if w else "empty"
            out.append((f"aw-n{n}-k{k}-w{wtag}", cls, a_of_w(n, w)))
    return tuple(out)


def _aw_keys(max_n):
    """(label, class, arrangement) for every A(w) class with n <= max_n.
    Each arrangement is built once per process, so every campaign reads
    the lattice it keeps."""
    for n in range(1, max_n + 1):
        yield from _aw_roster(n)


@lru_cache(maxsize=1)
def _seed_memo(seed: int) -> dict:
    """The cones, by label, and the pools, by grid, built so far for one
    campaign seed.  Asking for another seed drops them together, so a
    process holds one seed's, and no pool outlives the cones it holds."""
    return {}


def _build_cone(
    seed: int, dp: int, kind: str, e: int, s: int
) -> tuple[str, Arrangement | None]:
    """The label and cone of sample s, built once per campaign seed; the
    cone is None when it has no adversarial vertex (over a triangle)."""
    tag = f"cone-d{dp}-{kind}-e{e}-s{s}"
    memo = _seed_memo(seed)
    if tag not in memo:
        vertex = generic_vertex if kind == "generic" else adversarial_vertex
        sseed = _derive(seed, str(s))
        try:
            base = generic_arrangement(dp, seed=_derive(sseed, f"{tag}:base"))
            v = vertex(base, seed=_derive(sseed, f"{tag}:vertex"))
            memo[tag] = cone(ConeSpec(base, v, extra=e,
                                      seed=_derive(sseed, f"{tag}:extra")))
        except ValueError:
            memo[tag] = None
    return tag, memo[tag]


def _standard_pool(seed: int, max_n: int, max_dprime: int) -> tuple:
    """Shared roster of generated arrangements: every A(w) class up to
    max_n, pencils, near-pencils, and a spread of cones.  Built once per
    campaign seed and grid."""
    memo = _seed_memo(seed)
    key = ("pool", max_n, max_dprime)
    if key in memo:
        return memo[key]
    pool = [(label, arr) for label, _, arr in _aw_keys(max_n)]
    for d in range(3, 8):
        pool.append((f"pencil-d{d}", pencil(d)))
    for d in range(4, 9):
        pool.append((f"nearpencil-d{d}", near_pencil(d)))
    for dp in range(3, max_dprime + 1):
        for kind in ("generic", "adversarial"):
            for e in (0, 1, 2):
                for s in (1, 2):
                    label, arr = _build_cone(seed, dp, kind, e, s)
                    if arr is not None:
                        pool.append((label, arr))
    memo[key] = tuple(pool)
    return memo[key]


def thm1_bound(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """d <= 3m-3 on every A(w) class, equality exactly at k = n."""
    cases = []
    for label, cls, arr in _aw_keys(max_n):
        n, k = cls.n, cls.k
        d = len(arr.lines)
        m = build_lattice(arr).mult[modular_indices(arr)[0]]
        ok = d <= 3 * m - 3 and (d == 3 * m - 3) == (k == n)
        cases.append(Case(label, "pass" if ok else "fail", {
            "n": n, "k": k, "w": list(cls.exponents), "d": d, "m": m,
            "bound": 3 * m - 3, "equality": d == 3 * m - 3,
        }))
    return CampaignResult("thm1-bound", seed, {"max_n": max_n}, tuple(cases))


def thm1b_roundtrip(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """Class recovery survives random projective transforms."""
    cases = []
    for label, cls, arr in _aw_keys(max_n):
        n, k = cls.n, cls.k
        for t in range(3):
            rng = random.Random(_derive(seed, f"{label}:t{t}"))
            mat = random_invertible_matrix(rng)
            moved = apply_transform(arr, mat)
            rec = recover_class(moved)
            ok = rec.wclass == cls and rec.full_monomial == (k == n)
            cases.append(Case(f"{label}-t{t}", "pass" if ok else "fail", {
                "n": n, "k": k, "w": list(cls.exponents),
                "recovered_w": list(rec.wclass.exponents),
                "recovered_full_monomial": rec.full_monomial,
            }))
    return CampaignResult(
        "thm1b-roundtrip", seed, {"max_n": max_n, "transforms": 3}, tuple(cases)
    )


def thm1b_modular_counts(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """Modular point counts match the closed-form prediction; M <= 4."""
    cases = []
    for label, cls, arr in _aw_keys(max_n):
        n, k = cls.n, cls.k
        M = len(modular_indices(arr))
        want = predicted_modular_count(n, k)
        ok = M == want and M <= 4 and (M == 4) == ((n, k) == (1, 1))
        cases.append(Case(label, "pass" if ok else "fail", {
            "n": n, "k": k, "w": list(cls.exponents), "M": M, "predicted": want,
        }))
    return CampaignResult(
        "thm1b-modular-counts", seed, {"max_n": max_n}, tuple(cases)
    )


def conj1_two_modular(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """n2 >= d/2 and n2 > 0 on every A(w) class."""
    cases = []
    for label, cls, arr in _aw_keys(max_n):
        report = check_identities(arr)
        c1, c2 = report.checks["conj1"], report.checks["conj2"]
        ok = c1.applicable and c1.passed and c2.applicable and c2.passed
        cases.append(Case(label, "pass" if ok else "fail", {
            "n": cls.n, "k": cls.k, "w": list(cls.exponents), "d": report.d,
            "n2": report.census.get(2, 0),
            "equality": c1.lhs == c1.rhs,
        }))
    return CampaignResult(
        "conj1-two-modular", seed, {"max_n": max_n}, tuple(cases)
    )


def conj1_cones(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """n2 >= d/2 on cones; census and eqSS equality for plain generic cones."""
    cases = []
    for dp in range(3, max_dprime + 1):
        for kind in ("generic", "adversarial"):
            for e in (0, 1, 2):
                for s in range(1, 6):
                    label, arr = _build_cone(seed, dp, kind, e, s)
                    if arr is None:
                        cases.append(Case(label, "not-applicable", {
                            "reason": "no connecting line off a triangle base",
                        }))
                        continue
                    report = check_identities(arr)
                    c1 = report.checks["conj1"]
                    ok = c1.applicable and c1.passed
                    witness = {
                        "d": report.d,
                        "n2": report.census.get(2, 0),
                        "census": {str(a): b for a, b in report.census.items()},
                    }
                    if kind == "generic" and e == 0:
                        N = dp * (dp - 1) // 2
                        m = N + e
                        want = {2: N * (dp - 2), 3: N}
                        want[m] = want.get(m, 0) + 1
                        eqss = report.checks["eqSS"]
                        census_ok = report.census == want
                        eq_ok = (
                            eqss.applicable and eqss.passed
                            and eqss.lhs == eqss.rhs
                        )
                        witness["census_matches"] = census_ok
                        witness["eqSS_equality"] = eq_ok
                        ok = ok and census_ok and eq_ok
                    cases.append(Case(label, "pass" if ok else "fail", witness))
    return CampaignResult(
        "conj1-cones", seed,
        {"max_dprime": max_dprime, "e": [0, 1, 2], "samples": 5},
        tuple(cases),
    )


def zmain_exponents(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """Restriction exponents {m-1, d-m} on every line through a maximal
    modular point, the count bound's closed form (total - s + 1, s - 1)
    where it applies (multi_exponents reads that in closed form too), and
    the balanced exponent-gap inequality."""
    cases = []
    for label, arr in _standard_pool(seed, max_n, max_dprime):
        if is_pencil(arr) or not (mods := modular_indices(arr)):
            continue
        d = len(arr.lines)
        lat = build_lattice(arr)
        m = lat.mult[mods[0]]
        want = tuple(sorted((m - 1, d - m)))
        idxs = sorted({
            i for j in mods if lat.mult[j] == m for i in lat.incidence[j]
        })
        for i in idxs:
            R = ziegler_restriction(arr, i)
            got = multi_exponents(R)
            checks = {"zmain": got == want}
            s = len(R.forms)
            if R.total - s + 1 <= s - 1:
                checks["easy_matches_kernel"] = got == (R.total - s + 1, s - 1)
            if is_balanced(R):
                checks["balanced_gap"] = got[1] - got[0] <= s - 2
            ok = all(checks.values())
            cases.append(Case(f"{label}-line{i}", "pass" if ok else "fail", {
                "d": d, "m": m, "mult": list(R.mult),
                "exponents": list(got), "expected": list(want),
                **{k: v for k, v in checks.items()},
            }))
    return CampaignResult(
        "zmain-exponents", seed,
        {"max_n": max_n, "max_dprime": max_dprime}, tuple(cases),
    )


def tjurina_consistency(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """Census Tjurina number vs the free formula (the "tjurina" check of
    one report, which certifies the exponents or raises), certified
    minimal relation degree, and the modular-multiplicity quadratic bound."""
    cases = []
    for label, arr in _standard_pool(seed, max_n, max_dprime):
        report = check_identities(arr)
        if not report.modular:
            continue
        d, m = report.d, report.modular[0][1]
        exps = _report_exponents(report)
        r_star = min(m - 1, d - m)
        mdr_ok = verify_mdr(arr, r_star)
        t2b = report.checks["thm2B_bound"]
        t2b_ok = t2b.passed if t2b.applicable else True
        ok = mdr_ok and t2b_ok
        cases.append(Case(label, "pass" if ok else "fail", {
            "d": d, "m": m, "tau": report.checks["tjurina"].lhs,
            "exponents": list(exps), "mdr": r_star, "mdr_certified": mdr_ok,
            "thm2B": "pass" if t2b.applicable and t2b.passed
                     else ("not-applicable" if not t2b.applicable else "fail"),
        }))
    return CampaignResult(
        "tjurina-consistency", seed,
        {"max_n": max_n, "max_dprime": max_dprime}, tuple(cases),
    )


def hirzebruch_sanity(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """The double/triple point inequality on everything non-trivial."""
    cases = []
    pool = list(_standard_pool(seed, max_n, max_dprime))
    for dp in range(3, max_dprime + 1):
        for s in (1, 2):
            label = f"generic-d{dp}-s{s}"
            pool.append((label, generic_arrangement(dp, seed=_derive(seed, label))))
    for label, arr in pool:
        report = check_identities(arr)
        eqsum = report.checks["eqSum"]
        hz = report.checks["hirzebruch"]
        if not hz.applicable:
            cases.append(Case(label, "not-applicable", {
                "reason": "pencil or near-pencil",
                "eqSum": eqsum.passed,
            }))
            continue
        ok = eqsum.passed and hz.passed
        cases.append(Case(label, "pass" if ok else "fail", {
            "d": report.d, "lhs": _num(hz.lhs), "rhs": _num(hz.rhs),
            "eqSum": eqsum.passed,
        }))
    return CampaignResult(
        "hirzebruch-sanity", seed,
        {"max_n": max_n, "max_dprime": max_dprime}, tuple(cases),
    )


def m3_classification(seed=0, max_n=6, max_dprime=5) -> CampaignResult:
    """Every 3-homogeneous supersolvable non-pencil in the pool has the
    lattice of the 6-line full monomial arrangement or of its 5-line
    deletion."""
    ref_full = full_monomial(1)
    [ref_deleted] = [a for _, cls, a in _aw_roster(1) if not cls.exponents]
    cases = []
    for label, arr in _standard_pool(seed, max_n, max_dprime):
        if is_pencil(arr) or not is_supersolvable(arr):
            continue
        h = homogeneity(arr)
        if h != 3:
            cases.append(Case(label, "not-applicable", {
                "homogeneity": h,
            }))
            continue
        d = len(arr.lines)
        lat = build_lattice(arr)
        if d == 6 and lattice_isomorphic(lat, build_lattice(ref_full)):
            matched = "full_monomial(1)"
        elif d == 5 and lattice_isomorphic(lat, build_lattice(ref_deleted)):
            matched = "deletion"
        else:
            matched = None
        cases.append(Case(label, "pass" if matched else "fail", {
            "d": d, "census": {str(a): b for a, b in census(arr).items()},
            "matches": matched,
        }))
    return CampaignResult(
        "m3-classification", seed,
        {"max_n": max_n, "max_dprime": max_dprime}, tuple(cases),
    )


CAMPAIGNS = {
    "thm1-bound": thm1_bound,
    "thm1b-roundtrip": thm1b_roundtrip,
    "thm1b-modular-counts": thm1b_modular_counts,
    "conj1-two-modular": conj1_two_modular,
    "conj1-cones": conj1_cones,
    "zmain-exponents": zmain_exponents,
    "tjurina-consistency": tjurina_consistency,
    "hirzebruch-sanity": hirzebruch_sanity,
    "m3-classification": m3_classification,
}


def run_campaign(
    name: str, seed: int = 0, max_n: int = 6, max_dprime: int = 5
) -> CampaignResult:
    fn = CAMPAIGNS.get(name)
    if fn is None:
        raise ValueError(f"unknown campaign: {name}")
    return fn(seed=seed, max_n=max_n, max_dprime=max_dprime)
