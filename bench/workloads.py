"""Workload grids and the seeds whose campaign digests are recorded."""

COMBINATORICS = (
    "thm1-bound",
    "thm1b-roundtrip",
    "thm1b-modular-counts",
    "conj1-two-modular",
    "conj1-cones",
    "hirzebruch-sanity",
    "m3-classification",
)

# Per workload and grid: campaigns with their grid, and for jacobian-certify
# the full monomial orders analysed as files, plus (k, N): full_monomial(k)
# written over Q(zeta_N).  Order 4 over Q(zeta_8) is the case where (Z/8)*
# is not cyclic, so no prime keeps Phi_8 irreducible.  The full grids are
# sized so that two to four fresh-process reps fit in a 42 s run on 2 vCPU;
# restriction-exponents keeps max_n=5 for its phi = 4 restrictions, and
# tjurina-consistency stops at max_n=4 because full_monomial(5) already
# brings phi = 4 kernels to jacobian-certify.
GRIDS = {
    "full": {
        "combinatorics": {"campaigns": COMBINATORICS, "max_n": 6, "max_dprime": 5},
        "restriction-exponents": {
            "campaigns": ("zmain-exponents",), "max_n": 5, "max_dprime": 4,
        },
        "jacobian-certify": {
            "campaigns": ("tjurina-consistency",), "max_n": 4, "max_dprime": 4,
            "monomial": (3, 4, 5, 6), "embedded": (4, 8),
        },
    },
    "tiny": {
        "combinatorics": {"campaigns": COMBINATORICS, "max_n": 2, "max_dprime": 3},
        "restriction-exponents": {
            "campaigns": ("zmain-exponents",), "max_n": 2, "max_dprime": 3,
        },
        "jacobian-certify": {
            "campaigns": ("tjurina-consistency",), "max_n": 2, "max_dprime": 3,
            "monomial": (2, 3), "embedded": (2, 4),
        },
    },
}

# Campaigns run at seed (--seed mod RECORDED_SEEDS); digests.json holds the
# expected sha256 of every campaign's JSON at each of those seeds on the full
# grid, and at TINY_SEED only on the tiny grid, which bench/selfcheck.py runs.
RECORDED_SEEDS = 16
TINY_SEED = 0


def campaign_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


def digest_key(grid: str, seed: int, campaign: str) -> str:
    return f"{grid}/{campaign_seed(seed)}/{campaign}"
