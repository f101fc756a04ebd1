"""CLI coverage: construction, analysis, campaigns, algebra ops, exit codes."""

import copy
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linarr import campaigns
from linarr.campaigns import CampaignResult, Case
from linarr.cli import main
from linarr.families import full_monomial, generic_arrangement, near_pencil
from linarr.field import MAX_ORDER
from linarr.projgeo import Arrangement, build_lattice


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "linarr", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_make_cone_example(tmp_path):
    out = tmp_path / "cone.json"
    code, _, _ = run_cli(
        "make", "cone", "--base", "generic:4", "--seed", "7", "-e", "1",
        "--out", str(out),
    )
    assert code == 0
    arr = Arrangement.load(out)
    assert len(arr.lines) == 11
    assert build_lattice(arr).mult[0] == 7


def test_make_stdout_roundtrip(tmp_path):
    code, stdout, _ = run_cli("make", "near-pencil", "6")
    assert code == 0
    path = tmp_path / "np6.json"
    path.write_text(stdout)
    arr = Arrangement.load(path)
    assert len(arr.lines) == 6


def test_make_nine_line_census(tmp_path, capsys):
    path = tmp_path / "fm2.json"
    assert main(["make", "full-monomial", "2", "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)["classify"]
    assert rep["d"] == 9
    assert rep["census"] == {"2": 6, "3": 4, "4": 3}


def test_analyze_braid_json(tmp_path):
    path = tmp_path / "braid.json"
    assert main(["make", "full-monomial", "1", "--out", str(path)]) == 0
    code, stdout, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    data = json.loads(stdout)
    rep = data["classify"]
    assert rep["d"] == 6
    assert rep["M"] == 4
    assert rep["m_homogeneous"] == 3
    assert rep["census"] == {"2": 3, "3": 4}
    assert data["mdr"] == 2
    assert data["exponents"] == [1, 2, 3]
    assert all(c["pass"] for c in rep["checks"])


def test_analyze_pencil_inequality_checks_not_applicable(tmp_path, capsys):
    path = tmp_path / "p7.json"
    main(["make", "pencil", "7", "--out", str(path)])
    assert main(["analyze", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)["classify"]
    status = {c["name"]: c["applicable"] for c in rep["checks"]}
    assert not status["conj1"] and not status["conj2"]
    assert not status["hirzebruch"] and not status["thm2B_bound"]
    assert status["eqSum"] and status["thm1_bound"]


def test_analyze_two_modular_thirteen_lines(tmp_path, capsys):
    path = tmp_path / "aw.json"
    main(["make", "aw", "4", "1,2", "--out", str(path)])
    assert main(["analyze", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rep = data["classify"]
    assert rep["d"] == 13 and rep["M"] == 2
    conj1 = next(c for c in rep["checks"] if c["name"] == "conj1")
    assert conj1["applicable"] and conj1["pass"]


def test_analyze_human_table(tmp_path, capsys):
    path = tmp_path / "braid.json"
    main(["make", "full-monomial", "1", "--out", str(path)])
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr().out
    assert "d = 6" in text
    assert "modular points: M = 4" in text
    assert "mdr: 2" in text
    assert "FAIL" not in text


def test_analyze_builds_one_identity_report(tmp_path, capsys, monkeypatch):
    # linarr analyze reads the exponents off the report of its "classify"
    # section: one check_identities report per file, and one Tjurina census
    # when it has a modular point, and the same --json bytes as reading the
    # exponents off a second report (supersolvable_exponents), supersolvable
    # or not.
    import linarr.algebra as alg
    import linarr.classify as cls
    import linarr.cli as cli

    calls = []
    for module, name in ((cli, "check_identities"),
                         (alg, "check_identities"), (cls, "tjurina_census")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for arr, census in ((full_monomial(3), 1), (near_pencil(6), 1),
                        (generic_arrangement(5, seed=2), 0)):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(arr.to_json()))
        del calls[:]
        assert main(["analyze", str(path), "--json"]) == 0
        assert calls == ["check_identities"] + ["tjurina_census"] * census
        try:
            exps = list(alg.supersolvable_exponents(arr))
        except ValueError:
            exps = None
        want = {"classify": cls.check_identities(arr).to_json(),
                "mdr": alg.mdr(arr), "exponents": exps}
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_recover_canonicalizes(tmp_path, capsys):
    path = tmp_path / "aw.json"
    main(["make", "aw", "4", "1,2", "--out", str(path)])
    assert main(["recover", str(path), "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec == {"n": 4, "k": 2, "exponents": [0, 1], "full_monomial": False}


def test_enumerate_wclasses(capsys):
    assert main(["enumerate-wclasses", "5", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["classes"] == [[0, 1], [0, 2]]


def test_verify_exit_zero_and_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run_cli("verify", "thm1b-modular-counts", "--out", str(a))
    code2, _, _ = run_cli("verify", "thm1b-modular-counts", "--out", str(b))
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["schema"] == 1 and data["summary"]["fail"] == 0


def test_verify_json_stdout(capsys):
    assert main(["verify", "conj1-two-modular", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["campaign"] == "conj1-two-modular"
    assert data["summary"]["ok"]


def test_verify_failure_exits_one(capsys, monkeypatch):
    def rigged(seed=0, max_n=6, max_dprime=5):
        return CampaignResult("thm1-bound", seed, {}, (
            Case("bad-case", "fail", {"d": 1}),
        ))

    monkeypatch.setitem(campaigns.CAMPAIGNS, "thm1-bound", rigged)
    assert main(["verify", "thm1-bound"]) == 1
    text = capsys.readouterr().out
    assert "FAIL bad-case" in text and "FAILED" in text


def test_algebra_mdr(tmp_path, capsys):
    path = tmp_path / "braid.json"
    main(["make", "full-monomial", "1", "--out", str(path)])
    assert main(["algebra", "mdr", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"value": 2, "degree_dims": [0, 0, 1]}


def _nullity_columns(monkeypatch):
    """Record the column count of every certified nullity algebra asks:
    (r + 1)(r + 3) for relations of degree r, 2 deg + 2 for derivations of
    a restriction."""
    import linarr.algebra as alg

    asked = []
    real = alg.certified_nullity

    def spy(F, ncols, *args):
        asked.append(ncols)
        return real(F, ncols, *args)

    monkeypatch.setattr(alg, "certified_nullity", spy)
    return asked


def _three_triple_points(t):
    """Seven lines over Q: z, y, y - z, x, x - z, t x - y + z and t x - y +
    2 z.  Line 0, z = 0, meets the others at three points, (1 : 0 : 0),
    (0 : 1 : 0) and (1 : t : 0), each on two of them: mult (2, 2, 2),
    balanced with total = 2s, so no closed form applies.  No power image
    passes either, so the search asks each degree up to d1 = 3 and lifts a
    kernel vector there."""
    t = str(t)
    return {"cyclotomic_order": 1, "lines": [
        [["0"], ["0"], ["1"]], [["0"], ["1"], ["0"]], [["0"], ["1"], ["-1"]],
        [["1"], ["0"], ["0"]], [["1"], ["0"], ["-1"]], [[t], ["-1"], ["1"]],
        [[t], ["-1"], ["2"]],
    ]}


def _generic_cone():
    # the pencil derivation of this cone has degree 3, but its minimal
    # relation degree is 2, and its line 0 restricts to mult (2, 2, 1)
    # with no explicit derivation: both searches scan upward
    [arr] = [a for label, a in campaigns._standard_pool(0, 1, 3)
             if label == "cone-d3-generic-e0-s1"]
    return arr


def test_algebra_mdr_asks_each_degree_once(tmp_path, capsys, monkeypatch):
    # The search certifies every degree below value zero without asking
    # it.  A primitive explicit relation of degree value, with 2 value <
    # d - 1, certifies value and its dimension 1 in closed form: nothing is
    # asked.  At 2 value = d - 1 (three generic lines) the dimension at
    # value is asked.  Above the half-bound (a generic arrangement of four
    # lines, bound 2) value - 1 is asked (a zero kernel, no lift), then
    # value.  No degree below m - 1 is asked, m the largest multiplicity of
    # a point: the pencil relation is primitive, so du Plessis-Wall leaves
    # no relation there.  The output is the same as when every degree up
    # to value was asked.
    from linarr.algebra import syzygy_dimension

    cone = _generic_cone()
    gen3, gen4 = (generic_arrangement(d, seed=0) for d in (3, 4))
    want_cone = {"value": 2, "degree_dims": [
        syzygy_dimension(cone, r) for r in range(3)]}
    asked = _nullity_columns(monkeypatch)
    path = tmp_path / "arr.json"
    for arr, bound, want, degrees in (
        (full_monomial(3), [], {"value": 4, "degree_dims": [0, 0, 0, 0, 1]},
         ()),
        (full_monomial(1), [], {"value": 2, "degree_dims": [0, 0, 1]}, ()),
        (near_pencil(6), [], {"value": 1, "degree_dims": [0, 1]}, ()),
        (gen3, [], {"value": 1, "degree_dims": [0, 2]}, (1,)),
        (gen4, ["--bound", "2"], {"value": 2, "degree_dims": [0, 0, 3]},
         (1, 2)),
        # the candidate at degree 3 meets a nonzero space at 2 = m - 1, so
        # the search asks 2 and nothing below; the profile reads it at 2
        (cone, ["--bound", "3"], want_cone, (2,)),
    ):
        path.write_text(json.dumps(arr.to_json()))
        del asked[:]
        assert main(["algebra", "mdr", str(path), *bound]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
        assert asked == [(r + 1) * (r + 3) for r in degrees]


def test_algebra_ziegler_asks_each_degree_at_most_once(tmp_path, capsys,
                                                         monkeypatch):
    # The output equals the exponents with every dimension up to d1 asked
    # apart, and the profile at d1 is read in closed form, 1 + (2 d1 ==
    # total): a rank-two multiarrangement is free.  An unbalanced line (the
    # near-pencil's through its point of multiplicity 5) and a balanced one
    # with total < 2s, s its number of points (the braid arrangement's,
    # the near-pencil's transversal, a cone's line with mult (2, 2, 1, 1),
    # another cone's line 0) are answered in closed form, and a power
    # image, primitive and read off the multiplicities by a table (on
    # full_monomial(3), mult (4, 4, 1, 1, 1) and (4, 2, 2, 2, 1)), certifies
    # d1: nothing is asked.  Where none applies
    # (line 0 of _three_triple_points, mult (2, 2, 2)) the search asks each
    # degree once, from max(max m, s - 1) = 2, below which no derivation
    # exists, up to d1.
    from linarr.algebra import (
        _binary_monomials,
        _derivation_dim,
        is_balanced,
        multi_exponents,
        ziegler_restriction,
    )

    [euler_cone] = [a for label, a in campaigns._standard_pool(0, 1, 3)
                    if label == "cone-d3-generic-e1-s1"]
    cases = []
    for arr, line, route in (
            (full_monomial(1), 0, "count"),
            (full_monomial(3), 0, "primitive"),
            (full_monomial(3), 3, "primitive"),
            (near_pencil(6), 0, "closed form"),
            (near_pencil(6), 1, "closed form"),
            (near_pencil(6), 5, "count"),
            (euler_cone, 0, "count"),
            (_generic_cone(), 0, "count"),
            (Arrangement.from_json(_three_triple_points(2)), 0, "scan")):
        R = ziegler_restriction(arr, line)
        d1, d2 = multi_exponents(R)
        cases.append((arr, line, route, {
            "value": [d1, d2],
            "degree_dims": [_derivation_dim(R.field, R.forms, R.mult,
                                            _binary_monomials, p)
                            for p in range(d1 + 1)],
            "mult": list(R.mult),
            "total": R.total,
            "balanced": is_balanced(R),
        }))
    assert cases[-3][-1]["degree_dims"][-1] == 2  # d1 = d2 = 3
    assert cases[-1][-1]["degree_dims"] == [0, 0, 0, 2]  # d1 = d2 = 3
    asked = _nullity_columns(monkeypatch)
    path = tmp_path / "arr.json"
    for arr, line, route, want in cases:
        path.write_text(json.dumps(arr.to_json()))
        del asked[:]
        assert main(["algebra", "ziegler", str(path), "--line", str(line)]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
        assert want["balanced"] == (route != "closed form")
        assert (want["total"] < 2 * len(want["mult"])) == (route == "count")
        d1 = want["value"][0]
        floor = max(max(want["mult"]), len(want["mult"]) - 1)
        degrees = range(floor, d1 + 1) if route == "scan" else ()
        assert asked == [2 * deg + 2 for deg in degrees]


def test_algebra_nodal_dim_asks_nothing(tmp_path, capsys, monkeypatch):
    # The nodes of d' generic lines form a star configuration: the profile
    # is 0 below d' - 1 and d' at d' - 1, a theorem, so nothing is asked.
    asked = _nullity_columns(monkeypatch)
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(generic_arrangement(16, seed=1).to_json()))
    assert main(["algebra", "nodal-dim", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": 16, "degree_dims": [0] * 15 + [16]}
    assert asked == []


def test_algebra_ziegler(tmp_path, capsys):
    path = tmp_path / "braid.json"
    main(["make", "full-monomial", "1", "--out", str(path)])
    assert main(["algebra", "ziegler", str(path), "--line", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == [2, 3]
    assert data["mult"] == [2, 2, 1]
    assert data["total"] == 5
    assert data["balanced"] is True
    assert data["degree_dims"] == [0, 0, 1]


def test_algebra_nodal_dim(tmp_path, capsys):
    path = tmp_path / "gen.json"
    main(["make", "generic", "4", "--seed", "1", "--out", str(path)])
    assert main(["algebra", "nodal-dim", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 4
    assert data["degree_dims"] == [0, 0, 0, 4]


def test_usage_errors_exit_two(tmp_path, capsys):
    braid = tmp_path / "braid.json"
    main(["make", "full-monomial", "1", "--out", str(braid)])
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert main(["algebra", "ziegler", str(braid)]) == 2
    assert main(["algebra", "mdr", str(braid), "--bound", "5"]) == 2
    assert main(["algebra", "nodal-dim", str(braid)]) == 2
    assert main(["make", "aw", "4", "9"]) == 2
    assert main(["make", "cone", "--base", "weird:4"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 6


@pytest.mark.parametrize("family", (
    ["pencil", "4"], ["near-pencil", "5"], ["full-monomial", "1"],
    ["aw", "2", "0"],
))
def test_make_rejects_a_seed_it_would_ignore(family, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make", *family, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unknown_campaign_exits_two():
    code, _, _ = run_cli("verify", "nosuch")
    assert code == 2


# x, y and z, a valid arrangement when %s is ["1"]
_TRIANGLE = ('{"cyclotomic_order": 1, "lines": [[["1"], ["0"], ["0"]], '
             '[["0"], ["1"], ["0"]], [["0"], ["0"], %s]]}')


def test_bad_json_file_exits_two(tmp_path, capsys):
    for text in (
        "{not json",
        '{"cyclotomic_order": 1, "lines": 5}',
        '{"cyclotomic_order": 1, "lines": [[["1/0"], ["0"], ["1"]]]}',
        '{"cyclotomic_order": 2.5, "lines": [[["1"], ["0"], ["0"]]]}',
        # JSON reads 1e400 as an infinite float: OverflowError before
        '{"cyclotomic_order": 1, "lines": [[[1e400], ["0"], ["1"]]]}',
        # a coefficient is a string: a JSON number was read as a binary
        # float (0.1 as 3602879701896397/36028797018963968), true as 1
        _TRIANGLE % "[0.1]",
        _TRIANGLE % "[true]",
        _TRIANGLE % "[1]",
        # orders past the supported maximum: MemoryError and OverflowError
        # before it was checked
        '{"cyclotomic_order": 1000000000000000, "lines": [[["1"], ["0"], ["0"]]]}',
        '{"cyclotomic_order": 100000000000000000000000, "lines": [[["1"], ["0"], ["0"]]]}',
    ):
        path = tmp_path / "junk.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
    path.write_text(_TRIANGLE % '["1"]')
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert main(["make", "full-monomial", str(10 ** 15)]) == 2
    assert main(["enumerate-wclasses", str(10 ** 15), "2"]) == 2
    assert capsys.readouterr().err.count("exceeds the supported maximum") == 2


def test_generator_giving_up_exits_two(capsys, monkeypatch):
    # A generator that runs out of retries is an input that cannot be
    # built, not a failed campaign: exit 2 with a message, never a
    # traceback under exit 1.  A campaign builds its own inputs, so there
    # it is a bug and stays an exception.
    from linarr import families

    monkeypatch.setattr(families, "_RETRIES", 0)
    assert main(["make", "generic", "4"]) == 2
    assert main(["make", "cone", "--base", "full-monomial:1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: could not certify") == 2
    with pytest.raises(RuntimeError, match="could not certify"):
        main(["verify", "hirzebruch-sanity", "--max-n", "1",
              "--max-dprime", "3"])


def test_negative_bound_and_order_exit_two(tmp_path, capsys):
    # a negative bound or an order below 1 is a usage error, not an empty
    # profile or an empty class
    path = tmp_path / "braid.json"
    main(["make", "full-monomial", "1", "--out", str(path)])
    capsys.readouterr()
    assert main(["algebra", "mdr", str(path), "--bound", "-1"]) == 2
    assert main(["enumerate-wclasses", "0", "0"]) == 2
    assert main(["enumerate-wclasses", "-2", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: bound must be between 0") == 1
    assert captured.err.count("error: need n >= 1") == 2
    assert main(["algebra", "mdr", str(path), "--bound", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": None, "degree_dims": [0]}


def test_one_line_file_is_refused_for_its_line_count(tmp_path, capsys):
    # with or without --bound, mdr refuses a one-line file as every other
    # question does, not with a message about a bound
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"cyclotomic_order": 1, "lines": [
        [["1"], ["0"], ["0"]]]}))
    for args in (["algebra", "mdr", str(path)],
                 ["algebra", "mdr", str(path), "--bound", "0"],
                 ["algebra", "ziegler", str(path), "--line", "0"],
                 ["algebra", "nodal-dim", str(path)],
                 ["analyze", str(path)]):
        assert main(args) == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err == "error: need at least two lines to intersect\n"


def test_too_tall_coefficient_exits_two(tmp_path, capsys):
    # a 400-digit coefficient is legal, but too tall for the kernel
    # certificate on split primes: CertificationError, not a traceback
    data = near_pencil(5).to_json()
    data["lines"][1][2] = [str(10 ** 400)]
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(data))
    assert main(["algebra", "mdr", str(path)]) == 2
    # line 0 restricts to mult (2, 2, 2), with a point at (1 : 10^400 : 0):
    # the search lifts a kernel vector at d1 = 3
    path.write_text(json.dumps(_three_triple_points(10 ** 400)))
    assert main(["algebra", "ziegler", str(path), "--line", "0"]) == 2
    assert capsys.readouterr().err.count("not certified") == 2
    # where a primitive relation settles mdr, its height does not matter:
    # one reduction certifies it, and its profile needs no kernel
    data = near_pencil(5).to_json()
    data["lines"][4][1] = [str(10 ** 400)]
    path.write_text(json.dumps(data))
    assert main(["algebra", "mdr", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": 1, "degree_dims": [0, 1]}


# Fraction reads an exponent by building 10**exponent exactly, so these
# would run for ever; a coefficient with an exponent is refused at once.
_EXPONENTS = ("1e99999999999999999999", "1e-99999999999999999999")


@pytest.mark.parametrize("coeff", _EXPONENTS)
def test_exponent_in_a_coefficient_exits_two_at_once(tmp_path, coeff):
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"cyclotomic_order": 1, "lines": [
        [["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["1"], ["1"], [coeff]],
    ]}))
    code, out, err = run_cli("analyze", str(path), timeout=30)
    assert code == 2 and not out
    assert err.startswith("error:") and "exponent" in err


_FUZZ_BASES = [
    arr.to_json()
    for arr in (full_monomial(1), near_pencil(5),
                generic_arrangement(4, seed=1))
]

# Replacement values: every JSON type, floats with NaN and infinities,
# "1/0", huge integers bare and as strings, orders past MAX_ORDER, and
# coefficients with huge exponents.
# Small integers stay small: a valid order near MAX_ORDER is a legal but
# slow input, not a malformed one.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
    st.text(max_size=3), st.just("1/0"), st.just([]), st.just({}),
    st.integers(20, 400).map(lambda k: 10 ** k),
    st.integers(20, 400).map(lambda k: str(10 ** k)),
    st.integers(MAX_ORDER + 1, 10 ** 30), st.sampled_from(_EXPONENTS),
)


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@st.composite
def mutated_files(draw):
    """A valid arrangement file with one to three keys or entries deleted
    or swapped for junk."""
    data = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        if not path:
            data = draw(_JUNK)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JUNK)
    return json.dumps(data)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files())
def test_mutated_files_exit_zero_or_two(tmp_path, capsys, text):
    path = tmp_path / "mutated.json"
    path.write_text(text)
    for argv in (["analyze"], ["recover"], ["algebra", "mdr"],
                 ["algebra", "ziegler", "--line", "0"],
                 ["algebra", "nodal-dim"]):
        code = main([*argv, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, text)
        assert (code == 2) == err.startswith("error:"), (argv, text, err)
