"""Command-line harness.

Subcommands construct arrangement files, analyze them, recover class data,
run the algebra primitives, and drive verification campaigns.  Exit codes:
0 on success, 1 when a verification campaign records a failure, 2 on usage
or input errors, among them a file too tall for its answers to certify and
a generator that gives up.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    _relation_search,
    _relation_top,
    _report_exponents,
    is_balanced,
    mdr,
    multi_exponents,
    nodal_dimension_profile,
    ziegler_restriction,
)
from .campaigns import CAMPAIGNS, run_campaign
from .classify import check_identities
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
from .projgeo import Arrangement
from .wclass import enumerate_classes, recover_class


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --- make ----------------------------------------------------------------

_BASE_FAMILIES = {
    "generic": lambda num, seed: generic_arrangement(num, seed=seed),
    "full-monomial": lambda num, seed: full_monomial(num),
    "pencil": lambda num, seed: pencil(num),
    "near-pencil": lambda num, seed: near_pencil(num),
}


def _parse_w(text: str) -> tuple[int, ...]:
    if text in ("", "-"):
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_make(args) -> int:
    if args.family == "aw":
        arr = a_of_w(args.n, _parse_w(args.w))
    elif args.family in _BASE_FAMILIES:
        arr = _BASE_FAMILIES[args.family](args.n, args.seed)
    else:  # cone
        name, _, num = args.base.partition(":")
        if name not in _BASE_FAMILIES or not num.isdigit():
            raise ValueError(f"unsupported cone base: {args.base}")
        base = _BASE_FAMILIES[name](int(num), args.seed)
        if args.vertex == "generic":
            v = generic_vertex(base, seed=args.seed + 1)
        else:
            v = adversarial_vertex(base, seed=args.seed + 1)
        arr = cone(ConeSpec(base, v, extra=args.extra, seed=args.seed + 2))
    _emit(arr.to_json(), args.out)
    return 0


# --- analyze -------------------------------------------------------------

def _analysis(arr: Arrangement) -> dict:
    report = check_identities(arr)
    value = mdr(arr)
    try:
        exps = _report_exponents(report)
    except ValueError:
        exps = None
    return {
        "classify": report.to_json(),
        "mdr": value,
        "exponents": list(exps) if exps else None,
    }


def _render_analysis(data: dict) -> str:
    rep = data["classify"]
    lines = [
        f"d = {rep['d']}",
        "census: " + " ".join(
            f"{k}:{v}" for k, v in sorted(rep["census"].items(), key=lambda kv: int(kv[0]))
        ),
        f"pencil: {rep['is_pencil']}   near-pencil: {rep['is_near_pencil']}",
        "modular points: M = {}  multiplicities = {}".format(
            rep["M"],
            [mp["multiplicity"] for mp in rep["modular_points"]],
        ),
        f"m-homogeneous: {rep['m_homogeneous']}",
        "checks:",
    ]
    for chk in rep["checks"]:
        status = "pass" if chk["pass"] else "FAIL"
        if not chk["applicable"]:
            status = "not applicable"
        lines.append(
            f"  {chk['name']:<12} {status:<14} lhs={chk['lhs']} rhs={chk['rhs']}"
        )
    lines.append(f"mdr: {data['mdr']}")
    lines.append(f"exponents: {tuple(data['exponents']) if data['exponents'] else None}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    arr = Arrangement.load(args.file)
    data = _analysis(arr)
    if args.json:
        _emit(data, None)
    else:
        print(_render_analysis(data))
    return 0


# --- verify --------------------------------------------------------------

def cmd_verify(args) -> int:
    result = run_campaign(
        args.campaign, seed=args.seed, max_n=args.max_n,
        max_dprime=args.max_dprime,
    )
    data = result.to_json()
    if args.out:
        _emit(data, args.out)
    if args.json:
        _emit(data, None)
    else:
        s = data["summary"]
        print(
            f"campaign {result.campaign}: pass={s['pass']} fail={s['fail']} "
            f"not-applicable={s['not-applicable']} total={s['total']}"
        )
        for case in data["cases"]:
            if case["verdict"] == "fail":
                print(f"  FAIL {case['case']}")
        print("ok" if result.ok else "FAILED")
    return 0 if result.ok else 1


# --- wclass --------------------------------------------------------------

def cmd_enumerate(args) -> int:
    classes = enumerate_classes(args.n, args.k)
    if args.json:
        _emit({
            "n": args.n,
            "k": args.k,
            "count": len(classes),
            "classes": [list(c.exponents) for c in classes],
        }, None)
    else:
        for c in classes:
            print(c.exponents)
    return 0


def cmd_recover(args) -> int:
    arr = Arrangement.load(args.file)
    rec = recover_class(arr)
    if args.json:
        _emit(rec.to_json(), None)
    else:
        w = rec.wclass
        print(
            f"n={w.n} k={w.k} w={w.exponents} full_monomial={rec.full_monomial}"
        )
    return 0


# --- algebra -------------------------------------------------------------

def cmd_algebra(args) -> int:
    arr = Arrangement.load(args.file)
    # The relation search (_relation_search) certifies every degree below
    # the minimum zero (the spaces only grow with degree); its profile reads
    # the dimensions the search kept, in closed form at a minimum that the
    # pencil relation (2m > d) or a power relation read off the table of the
    # forms settled (both are primitive), with 2 mdr < d - 1.  A restriction
    # is free with exponents (d1, d2), so its profile is closed: zero below
    # d1, then 1, or 2 when d1 = d2; so are d1 and d2 unless multi_exponents
    # scans the certified dimensions up to total/2.
    if args.op == "mdr":
        top = _relation_top(arr, args.bound)
        value, dim = _relation_search(arr, top)
        data = {
            "value": value,
            "degree_dims": ([0] * (top + 1) if value is None
                            else [0] * value + [dim(value)]),
        }
    elif args.op == "ziegler":
        if args.line is None:
            raise ValueError("ziegler needs --line")
        R = ziegler_restriction(arr, args.line)
        d1, d2 = multi_exponents(R)
        data = {
            "value": [d1, d2],
            "degree_dims": [0] * d1 + [1 + (d1 == d2)],
            "mult": list(R.mult),
            "total": R.total,
            "balanced": is_balanced(R),
        }
    else:  # nodal-dim
        dims = nodal_dimension_profile(arr)
        data = {"value": dims[-1], "degree_dims": dims}
    _emit(data, None)
    return 0


# --- parser --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="linarr",
        description="Exact verification toolkit for complex projective line arrangements.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct an arrangement and emit its JSON")
    mksub = mk.add_subparsers(dest="family", required=True)
    for fam, helptext in (
        ("full-monomial", "3n+3 lines: coordinate triangle and all root-of-unity diagonals"),
        ("pencil", "d concurrent lines"),
        ("near-pencil", "d-1 concurrent lines plus a transversal"),
        ("generic", "only double points, seeded"),
    ):
        p = mksub.add_parser(fam, help=helptext)
        p.add_argument("n", type=int)
        if fam == "generic":  # the only family a seed changes
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.set_defaults(func=cmd_make, seed=0)
    p = mksub.add_parser("aw", help="two modular points of order n with tail exponents w")
    p.add_argument("n", type=int)
    p.add_argument("w", help="comma-separated exponents, or - for none")
    p.add_argument("--out")
    p.set_defaults(func=cmd_make)
    p = mksub.add_parser("cone", help="cone over a base arrangement")
    p.add_argument("--base", required=True, help="family:param, e.g. generic:4")
    p.add_argument("--vertex", choices=("generic", "adversarial"), default="generic")
    p.add_argument("-e", "--extra", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("analyze", help="full report for an arrangement file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("campaign", choices=sorted(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--max-dprime", type=int, default=5, dest="max_dprime")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate-wclasses", help="canonical classes for (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("recover", help="recover the class of a two-modular-point file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("algebra", help="polynomial-algebra computations on a file")
    p.add_argument("op", choices=("mdr", "ziegler", "nodal-dim"))
    p.add_argument("file")
    p.add_argument("--line", type=int)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_algebra)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        # campaigns build their own inputs: a certificate failing or a
        # generator giving up there is a bug
        if isinstance(exc, RuntimeError) and args.command == "verify":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
