"""One benchmark rep, run in a fresh interpreter so every cache starts cold.

    python3 bench/child.py MODE T0 ARGS_JSON

MODE is ``import`` (measure set-up only), ``rep`` (set up, then run one
workload) or ``micro`` (field kernel timings).  T0 is the parent's
``time.monotonic()`` just before the spawn; on Linux that clock is shared
by all processes, so ``setup_s`` runs from spawn until ``import linarr``
returns.  The last line of standard output is one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import linarr  # noqa: E402

T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import linarr.cli  # noqa: E402
from workloads import GRIDS, campaign_seed, digest_key  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")

def campaign_digest(result) -> str:
    """sha256 of the campaign JSON exactly as ``linarr verify --json`` prints it."""
    text = json.dumps(result.to_json(), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(os.path.join(BENCH, "digests.json")) as fh:
        return json.load(fh)


def embed(arr, order: int):
    """The same lines written over Q(zeta_order), via zeta_k = zeta_N^(N/k)."""
    k = arr.field.order
    F = linarr.cyc_field(order)
    step = order // k
    basis = [F.zeta_pow(i * step) for i in range(arr.field.degree)]

    def lift(x):
        acc = F.zero
        for c, b in zip(x.coeffs, basis):
            if c:
                acc = acc + b * c
        return acc

    return linarr.Arrangement(
        F, [linarr.ProjLine(F, [lift(c) for c in line.coords]) for line in arr.lines]
    )


def analysis_files(spec: dict, workdir: str):
    """(name, path, expected mdr, expected exponents) for the jacobian files.

    full_monomial(n) is supersolvable with a modular point of n+2 lines, so
    its exponents are (1, n+1, 2n+1) and its minimal relation degree n+1.
    """
    os.makedirs(workdir, exist_ok=True)
    out = []
    items = [(n, linarr.full_monomial(n), f"full_monomial_{n}") for n in spec["monomial"]]
    k, order = spec["embedded"]
    items.append((k, embed(linarr.full_monomial(k), order), f"full_monomial_{k}_over_{order}"))
    for n, arr, name in items:
        path = os.path.join(workdir, name + ".json")
        arr.save(path)
        out.append((name, path, n + 1, [1, n + 1, 2 * n + 1]))
    return out


class Gate:
    """Counts attempted and failed items and keeps the answers to compare."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.answers = {}

    def item(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def run_workload(workload: str, seed: int, grid: str, tracer=None) -> tuple[Gate, float]:
    """Run one workload rep; returns the gate and the wall time in seconds.

    Only the calls into linarr are timed and traced: the input files are
    written before the tracer is installed, and the digests and closed-form
    checks run after it is removed.
    """
    spec = GRIDS[grid][workload]
    files = []
    if "monomial" in spec:
        files = analysis_files(spec, os.path.join(OUT, f"work-{os.getpid()}"))
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    campaigns, analyses = [], []  # (name, result or exception)
    wall = 0.0
    if tracer:
        tracer.install()
    for name in spec["campaigns"]:
        t0 = time.perf_counter()
        try:
            with span(f"campaigns.{name}"):
                result = linarr.run_campaign(
                    name, seed=campaign_seed(seed),
                    max_n=spec["max_n"], max_dprime=spec["max_dprime"],
                )
        except Exception as exc:  # an exception is a failed item, not a crash
            result = exc
        wall += time.perf_counter() - t0
        campaigns.append((name, result))
    for name, path, _, _ in files:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with span("cli.analyze"), contextlib.redirect_stdout(buf):
                result = (linarr.cli.main(["analyze", path, "--json"]), buf.getvalue())
        except Exception as exc:
            result = exc
        wall += time.perf_counter() - t0
        analyses.append((name, result))
    if tracer:
        tracer.uninstall()

    digests = load_digests()
    gate = Gate()
    for name, result in campaigns:
        if isinstance(result, Exception):
            gate.item(False, f"{name}: {type(result).__name__}: {result}")
            continue
        for case in result.cases:  # "not-applicable" is a legitimate verdict
            gate.item(case.verdict != "fail", f"{name}: case {case.key} failed")
        digest = campaign_digest(result)
        want = digests.get(digest_key(grid, seed, name))
        gate.item(digest == want, f"{name}: digest {digest[:12]} != recorded {str(want)[:12]}")
        gate.answers[name] = digest
    for (_, _, want_mdr, want_exps), (name, result) in zip(files, analyses):
        try:
            if isinstance(result, Exception):
                raise result
            code, text = result
            data = json.loads(text)
            got = (code, data["mdr"], data["exponents"])
        except Exception as exc:
            gate.item(False, f"analyze {name}: {type(exc).__name__}: {exc}")
            continue
        gate.item(got == (0, want_mdr, want_exps), f"analyze {name}: got {got}")
        gate.answers[name] = [data["mdr"], data["exponents"]]
    if files:
        shutil.rmtree(os.path.dirname(files[0][1]))
    return gate, wall


# --- field kernel micro-run ------------------------------------------------

MICRO_ORDERS = {1: 1, 2: 3, 4: 5, 6: 7}  # phi(n) -> n
MICRO_ELEMENTS = 150
MICRO_ROUNDS = 5


def _draw(F, rng, seen):
    """A nonzero element with integer coefficients, distinct from all in seen."""
    while True:
        x = F.element([rng.randint(-9999, 9999) for _ in range(F.degree)])
        if x and x not in seen:
            seen.add(x)
            return x


def field_micro(seed: int) -> dict:
    """Per-op multiply and inverse time in microseconds, for phi in {1,2,4,6}.

    Every divisor is freshly drawn, so no inverse is served from a cache.
    The inverse is timed as ``1 / b``: one inverse and a multiply by one.
    """
    out = {}
    for phi, n in MICRO_ORDERS.items():
        F = linarr.cyc_field(n)
        one = F.one
        rng = random.Random(f"{seed}:{n}")
        seen = set()
        mul, inv = [], []
        for _ in range(MICRO_ROUNDS):
            a = [_draw(F, rng, seen) for _ in range(MICRO_ELEMENTS)]
            b = [_draw(F, rng, seen) for _ in range(MICRO_ELEMENTS)]
            t0 = time.perf_counter()
            prods = [x * y for x, y in zip(a, b)]
            t1 = time.perf_counter()
            invs = [one / y for y in b]
            t2 = time.perf_counter()
            if any(x * y != one for x, y in zip(invs, b)) or len(prods) != len(a):
                raise ArithmeticError(f"field check failed in Q(zeta_{n})")
            mul.append((t1 - t0) / MICRO_ELEMENTS * 1e6)
            inv.append((t2 - t1) / MICRO_ELEMENTS * 1e6)
        out[f"field.mul_us.phi{phi}"] = statistics.median(mul)
        out[f"field.inv_us.phi{phi}"] = statistics.median(inv)
    return out


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024}


def main(argv) -> int:
    mode, t0, args = argv[0], float(argv[1]), json.loads(argv[2])
    if not os.path.abspath(linarr.__file__).startswith(SRC + os.sep):
        print(f"linarr imported from {linarr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = {"setup_s": T_IMPORTED - t0}
    if mode == "micro":
        out["layers"] = field_micro(args["seed"])
    elif mode == "rep":
        tracer = None
        if args["trace"]:
            from tracer import Tracer

            tracer = Tracer()
        gate, wall = run_workload(args["workload"], args["seed"], args["grid"], tracer)
        out.update(
            wall_s=wall, attempted=gate.attempted, failed=gate.failed,
            failures=gate.failures, answers=gate.answers,
        )
        if tracer:
            out["layers"] = tracer.metrics()
            tracer.dump(args["spans"], args["stamp"])
        out.update(_usage())
    elif mode != "import":
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
