"""Record the expected campaign digests that the benchmark's gate checks.

    python3 bench/record_digests.py

Runs every campaign of every workload on the full grid at each recorded
seed, and on the tiny grid at the self-check's seed, one process per CPU,
and rewrites bench/digests.json.  Run it only on a commit whose
campaign JSON is known to be right: a change that alters campaign output
must show up as a digest mismatch, not be re-recorded.
"""

import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
from workloads import GRIDS, RECORDED_SEEDS, TINY_SEED, digest_key  # noqa: E402


def _digests(task):
    grid, seed = task
    out = {}
    for spec in GRIDS[grid].values():
        for name in spec["campaigns"]:
            result = child.linarr.run_campaign(
                name, seed=seed, max_n=spec["max_n"], max_dprime=spec["max_dprime"]
            )
            if not result.ok:
                raise SystemExit(f"{name} at seed {seed} records a failure")
            out[digest_key(grid, seed, name)] = child.campaign_digest(result)
    return out


def main() -> int:
    tasks = [("full", s) for s in range(RECORDED_SEEDS)] + [("tiny", TINY_SEED)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count(), maxtasksperchild=1) as pool:
        digests = {}
        for part in pool.imap_unordered(_digests, tasks):
            digests.update(part)
    with open(os.path.join(child.BENCH, "digests.json"), "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
