"""Layered benchmark for linarr.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--grid full|tiny]

Run from the root of a checkout; the program under test is ``src/linarr``
of that checkout.  Each rep of a workload runs in a fresh child interpreter,
so every cache starts cold, and the children run one at a time.

Workloads (campaigns run at seed N mod 16, the seeds whose campaign JSON
digests are recorded in bench/digests.json):

* ``combinatorics``: the seven lattice-level campaigns in one session at
  their default grids.  Exercises projgeo, classify, wclass, families and
  field division; it asks no kernel questions, so a linalg or algebra
  change must leave it flat.  The campaigns share the lattice cache.
* ``restriction-exponents``: ``zmain-exponents`` at max_n=5, max_dprime=4.
  Thousands of small exact eliminations (``linalg.nullity``) with
  multiply-heavy field arithmetic, including the phi = 4 restrictions.
* ``jacobian-certify``: ``tjurina-consistency`` at max_n=4, max_dprime=4,
  then ``linarr analyze --json`` on full_monomial(n), n = 3..6, and on
  full_monomial(4) written over Q(zeta_8).  A few large certified kernel
  questions through the modular path, with the exact fallback where
  (Z/8)* is not cyclic.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(spawn until ``import linarr`` returns, median over several spawns),
``wall_s`` (median wall time of one rep after import), ``cpu_s`` and
``peak_rss_mb`` (the child's user+sys time and max RSS, medians).  With
``--trace 1`` it alternates untraced and traced reps and reports the
per-layer metrics of bench/tracer.py, the field kernel micro-run and
``trace.overhead_frac``; each traced rep writes its spans to bench/out.

Every rep is checked: each campaign case must pass, each campaign's JSON
must match its recorded sha256, each analysed file must give its closed
form, and all reps of a run must give the same answers.  Any failure makes
the run exit 1; ``fail_frac`` is printed with the metrics.  The last line
of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import GRIDS, campaign_seed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src", "linarr")
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("combinatorics", "restriction-exponents", "jacobian-certify")
SETUP_SPAWNS = 6  # import-only children before each rep
MIN_REPS = 2
DEADLINE_S = 170  # a run must end within 180 s
# A fixed hash seed makes every rep of a seed do the same work.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    grid = {k: list(v) if isinstance(v, tuple) else v
            for k, v in GRIDS[args.grid][args.workload].items()}
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "campaign_seed": campaign_seed(args.seed),
        "grid": {"name": args.grid, **grid},
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    def __init__(self, args, stamp):
        self.args = args
        self.stamp = stamp
        self.deadline = time.monotonic() + DEADLINE_S
        self.setup = []
        self.reps = []  # (traced, result)

    def spawn(self, mode, **extra) -> dict:
        payload = json.dumps({"seed": self.args.seed, **extra})
        t0 = time.monotonic()
        timeout = self.deadline - t0
        if timeout <= 0:
            raise RunFailed("out of time before the next child")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, repr(t0), payload],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=timeout,
                env=CHILD_ENV,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} child timed out") from None
        if proc.returncode != 0:
            raise RunFailed(f"{mode} child exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.setup.append(result["setup_s"])
        return result

    def rep(self, traced: bool):
        a = self.args
        spans = os.path.join(
            OUT, f"spans-{a.workload}-seed{a.seed}-rep{len(self.reps)}.jsonl"
        )
        result = self.spawn(
            "rep", workload=a.workload, grid=a.grid, trace=int(traced),
            spans=spans, stamp=self.stamp,
        )
        self.reps.append((traced, result))

    def run(self) -> dict:
        a = self.args
        os.makedirs(OUT, exist_ok=True)
        # Start another round only while it is predicted to end in time, so
        # every run measures about --seconds whatever its rep length.  Set-up
        # is sampled before every rep, so its median spans the whole run.
        start = time.monotonic()
        rounds = 0
        while True:
            if not a.trace:
                for _ in range(SETUP_SPAWNS):
                    self.spawn("import")
            self.rep(False)
            if a.trace:
                self.rep(True)
            rounds += 1
            elapsed = time.monotonic() - start
            if len(self.reps) >= MIN_REPS and elapsed * (rounds + 1) / rounds > a.seconds:
                break
        if a.trace:
            return self.layer_metrics()
        return self.end_to_end_metrics()

    def end_to_end_metrics(self) -> dict:
        reps = [r for _, r in self.reps]
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }

    def layer_metrics(self) -> dict:
        plain = [r["wall_s"] for t, r in self.reps if not t]
        traced = [r for t, r in self.reps if t]
        layers = dict(self.spawn("micro")["layers"])
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1
        return {name: (value, layer_unit(name)) for name, value in layers.items()}

    def gate(self):
        """(attempted, failed, messages) over every rep, answers included."""
        attempted = sum(r["attempted"] for _, r in self.reps)
        failed = sum(r["failed"] for _, r in self.reps)
        messages = [m for _, r in self.reps for m in r["failures"]]
        first = self.reps[0][1]["answers"]
        for traced, r in self.reps[1:]:
            attempted += 1
            if r["answers"] != first:
                failed += 1
                messages.append(f"{'traced' if traced else 'untraced'} rep "
                                "answers differ from the first rep")
        return attempted, failed, messages


def layer_unit(name: str) -> str:
    if "_us." in name:
        return "us"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="linarr layered benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", choices=("full", "tiny"), default="full",
                    help="tiny is for checking the harness, not for timing; "
                    "its digests are recorded for seed 0 only")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no linarr sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    info = stamp(args)
    runner = Runner(args, info)
    try:
        metrics = runner.run()
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = runner.gate()
    for m in messages:
        print(f"FAIL {m}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    for k, (traced, r) in enumerate(runner.reps):
        print(f"rep {k}{' traced' if traced else ''}: wall_s {r['wall_s']:.4f} "
              f"cpu_s {r['cpu_s']:.4f} peak_rss_mb {r['peak_rss_mb']:.2f}")
    print(f"reps: {len(runner.reps)}  fail_frac: {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
