"""Guards on the shape of the source tree."""

import ast
import dataclasses
from pathlib import Path

import linarr.algebra as alg
from linarr.algebra import MultiRestriction
from linarr.families import full_monomial, near_pencil

SRC = Path(__file__).resolve().parent.parent / "src" / "linarr"

# Exact Gaussian elimination lives in tests/exact_linalg.py as the oracle;
# linarr answers every dimension on split primes (linalg.certified_nullity),
# from the inputs of a system, never from its ready-made rows.
EXACT_ENGINE = {"echelon", "kernel_basis", "kernel_vector", "_complexity",
                "_EXACT_COLS", "nullity", "rank"}

# A minimal relation degree takes one search (algebra._relation_search), the
# CLI's too: d - m in closed form when 2m > d, m the largest multiplicity of
# a point (the pencil relation g d_P is primitive, so du Plessis-Wall makes
# it the minimum, and it is never built or checked); else a power derivation
# read off a table of the normalized forms (algebra._power_fits, with no
# derivation built and no check), minimal within the half-bound because its
# relation is always primitive (the proof is in _relation_search's
# docstring, so no gcd mod p certifies it: certified_coprime, _fp_gcd and
# its line _LINE are gone, and so are the relation vector and the candidate
# list that fed it), else certified by a dimension below it, each degree
# asked once.  No polynomial is expanded in src: Poly, the defining
# polynomial, the partial products, the pencil derivation and the power
# derivations are the tests' oracles (tests/exact_poly.py).  The search owns
# that certificate, so no generic minimal-degree search (_min_degree) serves
# relations and restrictions with parameters that only one of them reads.
# No uncertified guess to certify, no knob to bypass it, no Hilbert-function
# read of one dimension, no probe of F_p beside certified_nullity, and no
# global cache of relation answers.  A lattice is kept on its Arrangement,
# and campaigns build each arrangement once, so no global dict caches
# either.  split_prime hands out the roots it keeps with each prime, so
# nothing computes them again.  projgeo crosses integral triples, not
# CycNumbers.  Derivation membership, for relations and restrictions alike,
# is decided by one exact check (algebra._is_derivation, Horner division in
# pivot coordinates, no inverse, which hands back no quotients now that no
# relation vector reads them) and one row builder
# (algebra._derivation_rows), and the division and the two former builders
# and checks live on in the tests as oracles.  Transforms take their
# adjugate and determinant from integral cross products too, so the generic
# 3x3 determinant and adjugate are test oracles now.  A restriction's
# exponents are read off the restriction alone, with no candidate carried on
# it as lifts: (total - max m, max m) when it is unbalanced (2 max m >=
# total), (total - s + 1, s - 1) sorted when total < 2s, s its number of
# points (so the Euler product and its builder, _product, are gone), and
# otherwise the least degree of a power image that its forms and
# multiplicities admit, by a table (algebra._power_images_pass, which reads
# each form through the relation search's _power_fits, so src holds one
# table test), with no exact check and no coprimality.  So the images are
# built and checked only in the tests, where _restriction_candidates is the
# oracle, and a restriction that no image settles scans _derivation_dim up
# to total/2, with no candidate.  The CLI reads a restriction's profile in
# closed form too (free of rank two: 1 at d1, 2 when d1 = d2), so no search
# hands a restriction's dimensions back.  A node question is answered by a
# theorem (algebra.nodal_dimension_profile: the nodes of d generic lines
# form a star configuration, so the profile is 0 below d - 1 and d at d -
# 1), so no node rows are built (_node_rows is the tests' oracle,
# tests/exact_poly.py), no node dimension is asked (_node_dim) and the
# lattice check needs no helper (_nodal_lattice).
RETIRED = {"force_kernel", "omega_nullity", "_fp_dim", "_SYZ_CACHE",
           "_LATTICE_CACHE", "_POOLS", "_hilbert_d1", "_syz_nonzero_at",
           "certified_zero", "_upward", "_rows_at", "split_roots", "_cross",
           "div_linear", "_gauged_rows", "_restriction_rows", "_derives",
           "_multi_dim", "det3", "adjugate3", "_max_modular",
           "_power_image", "lifts", "_restriction_search", "at_half",
           "_product", "_restriction_candidates", "_min_degree", "Poly",
           "_pencil_derivation", "defining_polynomial", "partial_products",
           "certified_coprime", "_fp_gcd", "_LINE", "_relation_vector",
           "_power_derivation", "_relation_candidates", "_quotients",
           "_node_rows", "_node_dim", "_nodal_lattice"}

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

# A cone grows with no lattice past its base's.  Every intersection point
# q != p of base, joining and extra lines lies on a line of the cone through
# the vertex p: a point of two base lines is a base point, on its joining
# line, and any other point lies on a joining or extra line, each through p.
# So a candidate through p that meets such a q is the line pq, already in
# the cone, and the line set alone rejects it.  A generic base tests its
# candidates by integral dot products with the integral cross products of
# earlier lines, and normalizes no point.
GROWN_WITHOUT_LATTICE = ("cone", "generic_arrangement")
LATTICE_AND_INCIDENCE = {"build_lattice", "contains", "line_intersect"}

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
# restriction alone, through the one table test _power_fits.
CANDIDATE_BUILDERS = {"divisors", "_conv", "_parts", "_power_fits",
                      "_power_images_pass"}

# multi_exponents and the relation search decide every power derivation by
# the table: they run no exact check, only a scan of the certified
# dimensions (_derivation_dim) when the table settles nothing, whose
# lifted vectors the dimension's own check (_is_derivation) reads.
EXACT_CHECKS = {"_is_derivation"}

# Elimination is linalg's own: no other module reaches past
# certified_nullity to the engine behind it.
FP_ENGINE = {"fp_echelon", "fp_kernel_basis"}


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
    assert "fp_kernel_basis" in _calls_in("linalg.py", "certified_nullity")
    assert "fp_echelon" in _calls_in("linalg.py", "fp_kernel_basis")


def test_one_certified_nullity_call_with_a_check():
    # Every dimension src asks is a derivation question (_derivation_dim),
    # whose lifted vectors _is_derivation reads: no src path takes the
    # default check, which builds the exact rows, and no node question asks
    # a dimension.
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "certified_nullity" in {
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)}:
                calls.setdefault(path.name, []).append((tree, node))
    [(tree, call)] = calls.pop("algebra.py")
    assert calls == {}
    [fn] = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(inner is call for inner in ast.walk(node))]
    assert fn.name == "_derivation_dim"
    assert len(call.args) == 5 or "check" in {kw.arg for kw in call.keywords}


def test_relation_search_runs_no_exact_check():
    calls = _calls_in("algebra.py", "_relation_search")
    assert {"_power_fits", "_derivation_dim"} <= calls
    assert not calls & EXACT_CHECKS


def test_closed_form_relation_asks_nothing(monkeypatch):
    # near_pencil(6) has a point of multiplicity m = 5 > d/2: the search
    # answers d - m = 1 with no exact check and no certified dimension, and
    # reads the dimension 1 there in closed form.  On full_monomial(n), n =
    # 2, 3, 4, the table passes the power derivation at n + 1 < (d - 1)/2,
    # so the answer n + 1 and its dimension 1 are read just as directly.
    asked = []
    for name in ("_is_derivation", "certified_nullity", "_derivation_dim"):
        monkeypatch.setattr(alg, name, lambda *args, name=name: asked.append(
            name))
    for arr, want in ((near_pencil(6), 1), *(
            (full_monomial(n), n + 1) for n in (2, 3, 4))):
        value, dim = alg._relation_search(arr, None)
        assert (value, dim(value), asked) == (want, 1, [])


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


def test_cones_and_generic_bases_grow_with_no_lattice():
    tree = ast.parse((SRC / "families.py").read_text())
    for function in GROWN_WITHOUT_LATTICE:
        [fn] = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function]
        assert not set(_names(fn)) & LATTICE_AND_INCIDENCE
