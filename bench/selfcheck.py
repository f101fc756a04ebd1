"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py [--grid tiny|full]

Runs bench/run.py on every workload, untraced and traced, and checks that
each run passes its correctness gate and emits exactly the metrics that
BENCHMARK.json lists, each with its unit.  At the default tiny grid this
takes well under a minute; with ``--grid full`` it prints every metric of
every workload at the benchmark's own grids.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402
from workloads import TINY_SEED  # noqa: E402

SECONDS = 1  # each run stops after its minimum number of reps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", choices=("tiny", "full"), default="tiny")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from bench/run.py", file=sys.stderr)
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"),
                   "--workload", workload, "--seed", str(TINY_SEED),
                   "--seconds", str(SECONDS), "--trace", str(trace),
                   "--grid", args.grid]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            where = f"{workload} trace={trace}"
            print(f"== {where}: exit {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[1:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: no result line")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: gate failed ({result['failed']} failed)")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            missing = sorted(set(want[trace]) - set(got))
            extra = sorted(set(got) - set(want[trace]))
            wrong = sorted(n for n in got if n in want[trace] and got[n] != want[trace][n])
            for label, names in (("missing", missing), ("extra", extra), ("wrong unit", wrong)):
                if names:
                    problems.append(f"{where}: {label}: {', '.join(names)}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
