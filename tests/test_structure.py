"""Guards on the shape of the source tree."""

import ast
import dataclasses
from pathlib import Path

from linarr.algebra import MultiRestriction

SRC = Path(__file__).resolve().parent.parent / "src" / "linarr"

# Exact Gaussian elimination lives in tests/exact_linalg.py as the oracle;
# linarr answers every dimension on split primes (linalg.certified_nullity),
# from the inputs of a system, never from its ready-made rows.
EXACT_ENGINE = {"echelon", "kernel_basis", "kernel_vector", "_complexity",
                "_EXACT_COLS", "nullity", "rank"}

# A minimal relation degree takes one search (algebra._relation_search),
# the CLI's too: an explicit derivation checked exactly, then certified
# minimal by its primitive relation within the half-bound (du Plessis-Wall;
# linalg.certified_coprime), else by a certified dimension below it, each
# degree asked once.  The search owns that certificate, so no generic
# minimal-degree search (_min_degree) serves relations and restrictions
# with parameters that only one of them reads.  No uncertified guess to
# certify, no knob to bypass it, no Hilbert-function read of one
# dimension, no probe of F_p beside certified_nullity and
# certified_coprime, and no global cache of relation answers.  A lattice
# is kept on its Arrangement, and campaigns build each arrangement once, so
# no global dict caches either.  split_prime hands out the roots it keeps
# with each prime, so nothing computes them again.  projgeo crosses
# integral triples, not CycNumbers.  Derivation membership, for relations
# and restrictions alike, is decided by one exact check (algebra._quotients
# behind _is_derivation, Horner division in pivot coordinates, no inverse)
# and one row builder (algebra._derivation_rows); a relation's h =
# theta(f)/f is the sum of that check's quotients, so no division comes
# back, and the division and the two former builders and checks live on in
# the tests as oracles.  Transforms take their adjugate and determinant
# from integral cross products too, so the generic 3x3 determinant and
# adjugate are test oracles now.  A restriction's exponents are read off
# the restriction alone, with no candidate carried on it as lifts: (total -
# max m, max m) when it is unbalanced (2 max m >= total), (total - s + 1,
# s - 1) sorted when total < 2s, s its number of points (so the Euler
# product and its builder, _product, are gone), and otherwise the least
# degree of a power image that its forms and multiplicities admit, by a
# table (algebra._power_images_pass), with no exact check and no
# coprimality.  So the images are built and checked only in the tests,
# where _restriction_candidates is the oracle, and a restriction that no
# image settles scans _derivation_dim up to total/2, with no candidate.
# The CLI reads a restriction's profile in closed form too (free of rank
# two: 1 at d1, 2 when d1 = d2), so no search hands a restriction's
# dimensions back.
RETIRED = {"force_kernel", "omega_nullity", "_fp_dim", "_SYZ_CACHE",
           "_LATTICE_CACHE", "_POOLS", "_hilbert_d1", "_syz_nonzero_at",
           "certified_zero", "_upward", "_rows_at", "split_roots", "_cross",
           "div_linear", "_gauged_rows", "_restriction_rows", "_derives",
           "_multi_dim", "det3", "adjugate3", "_max_modular",
           "_power_image", "lifts", "_restriction_search", "at_half",
           "_product", "_restriction_candidates", "_min_degree"}

# A system meets F_p only inside linalg.certified_nullity, which reduces the
# inputs a row builder reads; algebra builds rows and knows nothing of primes.
MODULAR = {"reduce_at", "split_prime", "_fp_rows"}

# Caches live on the objects they describe: a lattice on its Arrangement,
# split primes on their CycField.  The only memo decorators left are on
# Phi_n, on the A(w) roster, which no seed changes, and on the one memo that
# holds a campaign seed's cones and pools, so they are dropped together.
MEMOIZED = {"cyclotomic_polynomial", "_aw_roster", "_seed_memo"}
MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}

# Which lines meet where is decided once, by projgeo's certified lattice:
# restrictions, class recovery and the campaigns read its incidences, and
# never test a point against a line, intersect two lines or join two points
# again.
INCIDENCE = {"contains", "line_intersect", "line_through"}

# Which points are modular is decided once, by classify.modular_indices,
# in lattice order: the first index has the largest multiplicity, and
# points of equal multiplicity come by coordinates.  Readers take modular
# points by index and never look a point up or sort points again.
# supersolvable_exponents and tjurina-consistency read them, and the
# Tjurina identity, off one check_identities report.
POINT_LOOKUP = {"index", "sort_key"}
MODULAR_READERS = {
    "classify.py": ("modular_points", "is_supersolvable", "homogeneity",
                    "check_identities"),
    "wclass.py": ("recover_class",),
    "campaigns.py": ("thm1_bound", "thm1b_modular_counts", "zmain_exponents"),
}

# ziegler_restriction only reads the lattice: which power images are
# derivations of a restriction is decided by _power_images_pass, from the
# restriction alone.
CANDIDATE_BUILDERS = {"divisors", "_conv", "_parts",
                      "_power_derivation", "_pencil_derivation",
                      "_relation_candidates", "_power_images_pass"}

# multi_exponents decides every power image by its table: it runs no exact
# check and no coprimality, only a scan of the certified dimensions
# (_derivation_dim) when no image passes, whose lifted vectors the
# dimension's own check (_is_derivation) reads.
EXACT_CHECKS = {"_quotients", "_is_derivation", "certified_coprime"}

# Elimination and the gcd mod p are linalg's own: no other module reaches
# past certified_nullity or certified_coprime to the engine behind them.
FP_ENGINE = {"fp_echelon", "fp_kernel_basis", "_fp_gcd"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg


def _src_names_in(names, pattern="*.py"):
    modules = sorted(SRC.glob(pattern))
    assert modules and (SRC / "linalg.py").is_file()
    return {
        (path.name, name)
        for path in modules
        for name in _names(ast.parse(path.read_text(), str(path)))
        if name in names
    }


def test_no_exact_elimination_in_src():
    assert not _src_names_in(EXACT_ENGINE)


def test_no_guess_then_certify_in_src():
    assert not _src_names_in(RETIRED)


def test_algebra_builds_no_modular_rows():
    assert not _src_names_in(MODULAR, "algebra.py")


def test_restrictions_read_incidences_off_the_lattice():
    for module in ("algebra.py", "campaigns.py", "wclass.py"):
        assert not _src_names_in(INCIDENCE, module)


def _memoized_in_src():
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):
                    dec = dec.func
                name = dec.attr if isinstance(dec, ast.Attribute) else dec.id
                if name in MEMO_DECORATORS:
                    out.add(node.name)
    return out


def test_memos_only_where_allowed():
    assert _memoized_in_src() == MEMOIZED


def test_only_linalg_names_the_fp_engine():
    assert {module for module, _ in _src_names_in(FP_ENGINE)} == {"linalg.py"}
    assert "_fp_gcd" in _calls_in("linalg.py", "certified_coprime")
    assert "certified_coprime" in _calls_in("algebra.py", "_relation_search")


def _convolution_loops():
    """(module, function) of every loop nest that accumulates products
    into an indexed slot, target[k] += x * y: a numerator convolution."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for outer in ast.walk(fn):
                if not isinstance(outer, ast.For):
                    continue
                for inner in ast.walk(outer):
                    if inner is outer or not isinstance(inner, ast.For):
                        continue
                    if any(
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Add)
                        and isinstance(node.target, ast.Subscript)
                        and isinstance(node.value, ast.BinOp)
                        and isinstance(node.value.op, ast.Mult)
                        for node in ast.walk(inner)
                    ):
                        out.add((path.name, fn.name))
    return out


def _calls_in(module, function=None):
    tree = ast.parse((SRC / module).read_text())
    scope = [tree] if function is None else [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return {
        node.func.id
        for root in scope
        for node in ast.walk(root)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_one_numerator_multiply_loop():
    # field._polymul is the only convolution in Z[t]/(Phi_n): CycNumber
    # multiplies through it, and projgeo's integral cross and dot products
    # call it too.
    assert _convolution_loops() == {("field.py", "_polymul")}
    assert "_polymul" in _calls_in("field.py", "__mul__")
    assert "_polymul" in _calls_in("projgeo.py")


def test_one_3x3_kernel_in_projgeo():
    # Every 3x3 computation in projgeo is an integral cross or dot product:
    # the meet of two lines and the join of two points are one body, and a
    # transform's adjugate and determinant, and the singularity test of a
    # random matrix, cross integral rows.
    assert "_int_cross" in _calls_in("projgeo.py", "_join")
    for function in ("apply_transform", "random_invertible_matrix"):
        assert {"_int_cross", "_int_dot"} <= _calls_in("projgeo.py", function)
    for function in ("line_intersect", "line_through"):
        assert _calls_in("projgeo.py", function) == {"_join"}


def test_modular_points_taken_by_lattice_index():
    for module in ("wclass.py", "campaigns.py"):
        assert not _src_names_in(POINT_LOOKUP, module)
    for module, functions in MODULAR_READERS.items():
        for function in functions:
            assert "modular_indices" in _calls_in(module, function)


def test_multi_restriction_is_a_plain_value():
    assert [f.name for f in dataclasses.fields(MultiRestriction)] == [
        "field", "forms", "mult"]


def test_ziegler_restriction_builds_no_candidate():
    calls = _calls_in("algebra.py", "ziegler_restriction")
    assert "build_lattice" in calls and not calls & CANDIDATE_BUILDERS


def test_multi_exponents_runs_no_exact_check():
    calls = _calls_in("algebra.py", "multi_exponents")
    assert {"_power_images_pass", "_derivation_dim"} <= calls
    assert not calls & EXACT_CHECKS
    assert not _calls_in("algebra.py", "_power_images_pass") & EXACT_CHECKS
