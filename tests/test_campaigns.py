"""Campaign runner checks: structure, determinism, and frozen small sweeps."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import linarr.campaigns as campaigns
from linarr.algebra import _binary_monomials, _derivation_dim, is_balanced
from linarr.campaigns import CAMPAIGNS, run_campaign
from linarr.projgeo import build_lattice

BENCH = Path(__file__).resolve().parent.parent / "bench"


def by_key(result):
    return {c.key: c for c in result.cases}


def test_registry_names():
    assert sorted(CAMPAIGNS) == [
        "conj1-cones",
        "conj1-two-modular",
        "hirzebruch-sanity",
        "m3-classification",
        "thm1-bound",
        "thm1b-modular-counts",
        "thm1b-roundtrip",
        "tjurina-consistency",
        "zmain-exponents",
    ]
    with pytest.raises(ValueError):
        run_campaign("nope")


def test_thm1_bound_full_grid():
    res = run_campaign("thm1-bound")
    assert res.ok
    # one case per canonical class with n <= 6
    assert len(res.cases) == 36
    cases = by_key(res)
    braid = cases["aw-n1-k1-w0"].witness
    assert braid["d"] == 6 and braid["m"] == 3 and braid["equality"]
    tail = cases["aw-n4-k2-w0.1"].witness
    assert tail["d"] == 13 and not tail["equality"]


def test_roundtrip_recovers_every_class():
    res = run_campaign("thm1b-roundtrip")
    assert res.ok
    assert len(res.cases) == 36 * 3
    assert all(c.verdict == "pass" for c in res.cases)


def test_modular_count_prediction():
    res = run_campaign("thm1b-modular-counts")
    assert res.ok
    cases = by_key(res)
    assert cases["aw-n1-k1-w0"].witness["M"] == 4
    assert cases["aw-n1-k0-wempty"].witness["M"] == 2
    assert cases["aw-n4-k2-w0.1"].witness["M"] == 2
    assert max(c.witness["M"] for c in res.cases) == 4


def test_double_point_lower_bound_on_classes():
    res = run_campaign("conj1-two-modular")
    assert res.ok
    cases = by_key(res)
    # the 6-line case meets the bound with equality: n2 = 3 = d/2
    assert cases["aw-n1-k1-w0"].witness["equality"]
    assert cases["aw-n1-k1-w0"].witness["n2"] == 3


def test_cone_campaign_small():
    res = run_campaign("conj1-cones", max_dprime=4)
    assert res.ok
    cases = by_key(res)
    na = [k for k, c in cases.items() if c.verdict == "not-applicable"]
    # a triangle base admits no adversarial vertex, every sample
    assert na == [f"cone-d3-adversarial-e{e}-s{s}" for e in (0, 1, 2)
                  for s in range(1, 6)]
    plain = cases["cone-d4-generic-e0-s1"].witness
    assert plain["census_matches"] and plain["eqSS_equality"]
    assert plain["census"] == {"2": 12, "3": 6, "6": 1}


def test_campaigns_share_one_instance_per_arrangement():
    # Each grid arrangement is built once per process, so every campaign
    # reads the one lattice it keeps.
    first, second = list(campaigns._aw_keys(3)), list(campaigns._aw_keys(3))
    assert [label for label, _, _ in first] == [label for label, _, _ in second]
    assert all(a is b for (_, _, a), (_, _, b) in zip(first, second))
    pool = dict(campaigns._standard_pool(0, 3, 4))
    assert all(pool[label] is arr for label, _, arr in first)
    label, cone = campaigns._build_cone(0, 4, "generic", 0, 1)
    assert label == "cone-d4-generic-e0-s1" and pool[label] is cone
    label, cone = campaigns._build_cone(0, 3, "adversarial", 0, 1)
    assert label == "cone-d3-adversarial-e0-s1" and cone is None
    assert label not in pool


def test_campaign_caches_hold_only_the_last_seed():
    # Cones and the pool are kept for one campaign seed: asking for another
    # drops them, so a process that runs many seeds holds only the last
    # seed's, and every campaign still matches its recorded digest.
    workloads = _bench_module("workloads")
    recorded = json.loads((BENCH / "digests.json").read_text())
    grid = workloads.GRIDS["full"]["combinatorics"]
    for seed in range(6):
        for name in ("conj1-cones", "hirzebruch-sanity"):
            result = run_campaign(name, seed=seed, max_n=grid["max_n"],
                                  max_dprime=grid["max_dprime"])
            key = workloads.digest_key("full", seed, name)
            assert _digest(result) == recorded[key], key
    info = campaigns._seed_memo.cache_info()
    assert info.currsize == 1
    held = campaigns._seed_memo(5)
    assert campaigns._seed_memo.cache_info().hits == info.hits + 1
    # d' = 3..5, two vertex kinds, e = 0..2, five samples: each built once;
    # and the one pool hirzebruch-sanity asked for, by its grid
    pool_key = ("pool", grid["max_n"], grid["max_dprime"])
    cones = {label for label in held if label != pool_key}
    assert len(cones) == 3 * 2 * 3 * 5 and pool_key in held
    pool = dict(campaigns._standard_pool(5, grid["max_n"], grid["max_dprime"]))
    assert pool == dict(held[pool_key])
    assert all(pool[label] is held[label] for label in pool if label in held)
    assert campaigns._seed_memo(0) == {}


def test_pool_is_dropped_with_the_cones_of_its_seed():
    # A pool is kept in the same per-seed memo as its cones, so running
    # another seed drops both: back on the first seed, the pool and the
    # cones are built again together, and the pool holds the very cone
    # instances every campaign reads.
    campaigns._standard_pool(0, 2, 4)
    run_campaign("conj1-cones", seed=1, max_dprime=4)
    run_campaign("zmain-exponents", seed=0, max_n=2, max_dprime=4)
    run_campaign("conj1-cones", seed=0, max_dprime=4)
    label, cone = campaigns._build_cone(0, 4, "generic", 0, 1)
    assert dict(campaigns._standard_pool(0, 2, 4))[label] is cone


def test_restriction_exponent_sweep_small():
    res = run_campaign("zmain-exponents", max_n=2, max_dprime=3)
    assert res.ok
    assert len(res.cases) > 0
    for c in res.cases:
        assert c.witness["exponents"] == c.witness["expected"]


def test_kernel_answer_off_the_closed_form_fails_its_case(monkeypatch):
    # The closed form (total - s + 1, s - 1) is an independent cross-check:
    # an answer of multi_exponents that disagrees shows as a failed case,
    # not a crash.
    kernel = campaigns.multi_exponents

    def off_by_one(R):
        d1, d2 = kernel(R)
        return (d1 + 1, d2 - 1)

    monkeypatch.setattr(campaigns, "multi_exponents", off_by_one)
    res = run_campaign("zmain-exponents", max_n=2, max_dprime=3)
    checked = [c for c in res.cases if "easy_matches_kernel" in c.witness]
    assert checked and not res.ok
    for c in checked:
        assert c.witness["easy_matches_kernel"] is False
        assert c.verdict == "fail"


def test_easy_closed_form_cases_are_backed_by_the_kernel(monkeypatch):
    # Where zmain-exponents compares the closed form (total - s + 1, s - 1)
    # with multi_exponents (2s >= total + 2), every restriction at the bench
    # grid is unbalanced, so multi_exponents answers it in closed form too:
    # the case compares two closed forms.  The certified kernel backs both:
    # the first degree with a nonzero space of derivations is d1.
    restrictions = []
    real = campaigns.ziegler_restriction
    monkeypatch.setattr(campaigns, "ziegler_restriction", lambda arr, h: (
        restrictions.append(real(arr, h)) or restrictions[-1]))
    res = run_campaign("zmain-exponents", seed=0, max_n=5, max_dprime=4)
    assert len(restrictions) == len(res.cases)
    easy = [(R, c) for R, c in zip(restrictions, res.cases)
            if "easy_matches_kernel" in c.witness]
    assert len(easy) == 42
    for R, c in easy:
        assert not is_balanced(R) and c.witness["easy_matches_kernel"]
        d1 = next(deg for deg in range(R.total + 1) if _derivation_dim(
            R.field, R.forms, R.mult, _binary_monomials, deg))
        assert c.witness["exponents"] == [d1, R.total - d1]


def test_tjurina_sweep_small():
    res = run_campaign("tjurina-consistency", max_n=3, max_dprime=3)
    assert res.ok
    cases = by_key(res)
    assert cases["aw-n1-k1-w0"].witness["tau"] == 19
    assert cases["aw-n1-k1-w0"].witness["mdr_certified"]


def test_tjurina_identity_is_decided_once_per_case(monkeypatch):
    # One check_identities report per case gives the modular points, m,
    # tau, the Tjurina identity, the exponents it certifies and thm2B: at
    # most two modular_indices calls and one tjurina_census call per case.
    # A census off the free formula still raises CertificationError.
    import linarr.classify as classify
    from linarr.field import CertificationError

    calls = {"modular_indices": 0, "tjurina_census": 0}
    for module, name in ((classify, "modular_indices"),
                         (campaigns, "modular_indices"),
                         (classify, "tjurina_census")):
        def spy(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    res = run_campaign("tjurina-consistency", seed=0, max_n=4, max_dprime=4)
    assert res.ok and len(res.cases) == 43
    assert calls["modular_indices"] <= 2 * len(res.cases)
    assert calls["tjurina_census"] == len(res.cases)
    monkeypatch.setattr(classify, "tjurina_census", lambda lat: -1)
    with pytest.raises(CertificationError):
        run_campaign("tjurina-consistency", max_n=1, max_dprime=3)


def test_hirzebruch_sweep():
    res = run_campaign("hirzebruch-sanity")
    assert res.ok
    cases = by_key(res)
    for d in range(3, 8):
        assert cases[f"pencil-d{d}"].verdict == "not-applicable"
    for d in range(4, 9):
        assert cases[f"nearpencil-d{d}"].verdict == "not-applicable"
    assert cases["aw-n1-k1-w0"].witness["lhs"] == 0


def test_m3_pass_set_is_the_two_lattices():
    res = run_campaign("m3-classification")
    assert res.ok
    passes = sorted(c.key for c in res.cases if c.verdict == "pass")
    assert passes == [
        "aw-n1-k0-wempty",
        "aw-n1-k1-w0",
        "cone-d3-generic-e0-s1",
        "cone-d3-generic-e0-s2",
    ]
    assert all(c.verdict != "fail" for c in res.cases)


def test_m3_reference_deletion_is_the_roster_instance(monkeypatch):
    # a_of_w(1, ()) comes from the A(w) roster, so its lattice is grouped
    # once per process
    [roster] = [a for _, cls, a in campaigns._aw_roster(1)
                if not cls.exponents]
    refs = []
    real = campaigns.lattice_isomorphic

    def spy(lat, ref):
        refs.append(ref)
        return real(lat, ref)

    monkeypatch.setattr(campaigns, "lattice_isomorphic", spy)
    assert run_campaign("m3-classification", max_n=2, max_dprime=3).ok
    assert any(ref is build_lattice(roster) for ref in refs)


def _digest(result):
    """sha256 of a campaign's JSON as the benchmark records it."""
    return hashlib.sha256(
        json.dumps(result.to_json(), indent=2).encode()).hexdigest()


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_digests_match_the_recorded_ones():
    # The benchmark's recorded sha256 of each campaign's JSON: all nine at
    # the tiny grid, and the two kernel campaigns at the full grid, seed 0.
    workloads = _bench_module("workloads")
    recorded = json.loads((BENCH / "digests.json").read_text())
    runs = [("tiny", workloads.TINY_SEED, grid)
            for grid in workloads.GRIDS["tiny"].values()]
    runs += [("full", 0, workloads.GRIDS["full"][w])
             for w in ("restriction-exponents", "jacobian-certify")]
    checked = set()
    for label, seed, grid in runs:
        for name in grid["campaigns"]:
            result = run_campaign(name, seed=seed, max_n=grid["max_n"],
                                  max_dprime=grid["max_dprime"])
            key = workloads.digest_key(label, seed, name)
            assert _digest(result) == recorded[key], key
            checked.add(key)
    assert len(checked) == len(CAMPAIGNS) + 2


def test_json_shape_and_determinism():
    a = run_campaign("thm1b-modular-counts", seed=5)
    b = run_campaign("thm1b-modular-counts", seed=5)
    ja = json.dumps(a.to_json(), sort_keys=True)
    jb = json.dumps(b.to_json(), sort_keys=True)
    assert ja == jb
    data = a.to_json()
    assert data["schema"] == 1
    assert data["seed"] == 5
    keys = [c["case"] for c in data["cases"]]
    assert keys == sorted(keys)
    s = data["summary"]
    assert s["total"] == s["pass"] + s["fail"] + s["not-applicable"]
