import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linarr.linalg as la
from exact_linalg import kernel_basis, kernel_vector, nullity, rank
from linarr.field import (
    CertificationError,
    CycNumber,
    cyc_field,
    cyclotomic_polynomial,
    euler_phi,
)
from linarr.linalg import (
    certified_nullity,
    fp_echelon,
    fp_kernel_basis,
    interpolate,
    lift_flat_vector,
    rational_reconstruct,
    reduce_at,
    split_prime,
)


def _identity(rows, zero, one):
    """Row builder of a system given by its own rows."""
    return rows


def F(*args):
    return Fraction(*args)


def test_rank_rational():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(rows, 3) == 2
    assert nullity(rows, 3) == 1


def test_kernel_vector_annihilates():
    rng = random.Random(7)
    for _ in range(10):
        rows = [
            [F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(4)
        ]
        vec = kernel_vector(rows, 6, F(1), F(0))
        assert vec is not None  # 4 rows, 6 cols: kernel nonzero
        assert any(vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_basis_dimension():
    rows = [[F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1)]]
    basis = kernel_basis(rows, 4, F(1), F(0))
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_cyclotomic_rank():
    K = cyc_field(4)
    i = K.zeta
    rows = [[K.one, i], [i, K.scalar(-1)]]  # second row = i * first
    assert rank(rows, 2) == 1
    assert certified_nullity(K, 2, rows, _identity) == 1
    vec = kernel_vector(rows, 2, K.one, K.zero)
    assert vec is not None
    assert rows[0][0] * vec[0] + rows[0][1] * vec[1] == K.zero


def test_split_prime_orders():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        p, roots = split_prime(n)
        assert p > 2 ** 30 and (p - 1) % n == 0
        assert split_prime(n, skip=1)[0] > p
        assert len(set(roots)) == len(roots) == euler_phi(n)
        for w in roots:
            phi_n = cyclotomic_polynomial(n)
            assert sum(c * pow(w, i, p) for i, c in enumerate(phi_n)) % p == 0
        # the first root has order exactly n
        assert [e for e in range(1, n + 1) if pow(roots[0], e, p) == 1] == [n]


def _scanned_split_prime(n, skip):
    """The split prime by a scan from 2^30, as it was found before the
    primes were kept on the field."""
    found, p = 0, ((1 << 30) // n + 1) * n + 1
    while True:
        if la._is_prime(p):
            if found == skip:
                return p
            found += 1
        p += n


def test_split_primes_are_kept_on_the_field(monkeypatch):
    for n in (1, 3, 4, 5, 8, 12):
        for skip in range(6):
            p, roots = split_prime(n, skip)
            assert p == _scanned_split_prime(n, skip)
            assert roots == la._cyclotomic_roots(n, p)
        assert cyc_field(n)._split[:6] == [
            split_prime(n, skip) for skip in range(6)]
    calls = []
    real = la._is_prime
    monkeypatch.setattr(la, "_is_prime", lambda m: calls.append(m) or real(m))
    for n in (1, 3, 4, 5, 8, 12):
        for skip in range(6):
            split_prime(n, skip)
    assert calls == []
    # a prime past the kept ones extends the list from its last prime
    n = 12
    kept = len(cyc_field(n)._split)
    p, _ = split_prime(n, kept)
    scanned = [m for m in calls if m > n]  # the rest test factors of n
    assert min(scanned) > cyc_field(n)._split[kept - 1][0]
    assert p == max(scanned) == _scanned_split_prime(n, kept)


def test_split_nullity_matches_exact():
    # (Z/8)* and (Z/12)* are not cyclic: no prime keeps Phi_8 or Phi_12
    # irreducible, but split primes exist for every order.
    rng = random.Random(5)
    for n in (5, 8, 12):
        K = cyc_field(n)
        p, roots = split_prime(n)
        for _ in range(4):
            rows = [
                [
                    K.element([F(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(K.degree)])
                    for _ in range(5)
                ]
                for _ in range(3)
            ]
            rows.append([a + b for a, b in zip(rows[0], rows[1])])
            exact = nullity(rows, 5)
            assert exact == 2
            for w in roots:
                basis, _ = fp_kernel_basis(reduce_at(rows, w, p), 5, p)
                assert len(basis) == exact


def test_flat_nullity_matches_exact():
    # nullity at one root of a split prime, on the original-size matrix,
    # is the exact nullity (the count syzygy_dimension reports)
    rng = random.Random(5)
    K = cyc_field(5)
    for skip in (0, 1):
        p, roots = split_prime(5, skip)
        w = roots[0]
        for _ in range(4):
            rows = [
                [
                    K.element([F(rng.randint(-3, 3)) for _ in range(4)])
                    for _ in range(5)
                ]
                for _ in range(3)
            ]
            rows.append([a + b for a, b in zip(rows[0], rows[1])])
            exact = nullity([list(r) for r in rows], 5)
            basis, _ = fp_kernel_basis(reduce_at(rows, w, p), 5, p)
            assert len(basis) == exact


def test_rational_reconstruct_round_trip():
    p, _ = split_prime(8)
    for q in (F(0), F(3, 7), F(-22, 5), F(1000), F(-1, 999)):
        residue = q.numerator * pow(q.denominator, -1, p) % p
        assert rational_reconstruct(residue, p) == q


def test_flat_kernel_vector_lifts_and_verifies():
    K = cyc_field(8)
    z = K.zeta
    half = F(1, 2)
    # kernel spanned by (-3/2 z^3, z^2, 1)
    rows = [
        [K.one, z, z ** 3 * half],
        [K.zero, K.one, -(z ** 2)],
    ]
    p, roots = split_prime(8)
    vecs = []
    for w in roots:
        [vec], pivots = fp_kernel_basis(reduce_at(rows, w, p), 3, p)
        assert pivots == [0, 1]
        vecs.append(vec)
    lifted = lift_flat_vector(interpolate(vecs, roots, K, p), K, p)
    assert lifted == [z ** 3 * F(-3, 2), z ** 2, K.one]
    for row in rows:
        acc = K.zero
        for a, b in zip(row, lifted):
            acc = acc + a * b
        assert not acc


def test_split_kernel_lift():
    K = cyc_field(3)
    z = K.zeta
    rows = [[K.one, z, K.zero], [K.zero, K.one, z]]
    p, roots = split_prime(3)
    vecs = [fp_kernel_basis(reduce_at(rows, w, p), 3, p)[0][0] for w in roots]
    lifted = lift_flat_vector(interpolate(vecs, roots, K, p), K, p)
    assert lifted is not None and any(lifted)
    for row in rows:
        acc = K.zero
        for a, b in zip(row, lifted):
            acc = acc + a * b
        assert acc == K.zero


def test_reduce_at_rejects_bad_denominator():
    K = cyc_field(4)
    p, roots = split_prime(4)
    bad = K.element([F(1, p), F(0)])
    with pytest.raises(ZeroDivisionError):
        reduce_at([[K.one, bad]], roots[0], p)


def test_crt_pair():
    from linarr.linalg import crt_pair

    a = crt_pair(3 % 7, 7, 3 % 11, 11)
    assert a == 3
    b = crt_pair(5, 7, 9, 11)
    assert b % 7 == 5 and b % 11 == 9


def test_fp_kernel_basis_has_one_vector_per_free_column():
    p, _ = split_prime(1)
    rng = random.Random(3)
    for _ in range(10):
        left = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(5)]
        right = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(2)]
        rows = [[sum(a * b for a, b in zip(row, col)) % p
                 for col in zip(*right)] for row in left]
        basis, pivots = fp_kernel_basis([list(r) for r in rows], 6, p)
        free = [c for c in range(6) if c not in pivots]
        assert len(basis) == len(free) == 6 - len(
            fp_echelon([list(r) for r in rows], p))
        for vec, fc in zip(basis, free):
            assert [vec[c] for c in free] == [int(c == fc) for c in free]
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0


@st.composite
def matrices(draw):
    """Small matrices over Q(zeta_n): random, or rank-deficient as a product
    of two random factors, with zero rows mixed in."""
    n = draw(st.sampled_from((1, 3, 4, 5, 8, 12)))
    K = cyc_field(n)
    coeff = st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))

    def entry():
        return K.element(draw(st.lists(coeff, min_size=K.degree,
                                       max_size=K.degree)))

    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        inner = draw(st.integers(0, 3))
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum((row[t] * right[t][j] for t in range(inner)), K.zero)
                 for j in range(ncols)] for row in left]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [K.zero] * ncols)
    return K, rows, ncols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_certified_nullity_matches_exact_oracle(case):
    K, rows, ncols = case
    want = nullity([list(r) for r in rows], ncols)
    assert certified_nullity(K, ncols, rows, _identity) == want


def _one_row_system(K, ncols):
    # one row (1, 0, ..., 0): the kernel basis is e_1, ..., e_(ncols-1)
    return [[K.one] + [K.zero] * (ncols - 1)], _identity


def test_failing_check_raises_at_the_cap():
    K = cyc_field(12)
    calls = []

    def never(vec):
        calls.append(vec)
        return False

    with pytest.raises(CertificationError):
        certified_nullity(K, 3, *_one_row_system(K, 3), never)
    assert len(calls) == la._PRIME_CAP


@pytest.mark.parametrize("bad", (1, 2))
def test_every_basis_vector_is_checked(bad):
    # The check refuses only the basis vector with its 1 on column bad, so a
    # nullity of 2 would be certified by checking the other vector alone.
    K = cyc_field(3)
    with pytest.raises(CertificationError):
        certified_nullity(K, 3, *_one_row_system(K, 3),
                          lambda vec: not vec[bad])
    assert certified_nullity(K, 3, *_one_row_system(K, 3),
                             lambda vec: True) == 2


def test_default_check_builds_exact_rows_once():
    # From the inputs (1, z) over Q(zeta_3): the rows (1, z, 0) and
    # (0, 1, z) have a one-dimensional kernel, so one lifted vector to
    # check; the square rows (1, z) and (0, 1) have none.
    K = cyc_field(3)
    exact = []

    def spy(rows_of):
        def build(inputs, zero, one):
            if isinstance(zero, CycNumber):
                exact.append(inputs)
            [(a, b)] = inputs
            return rows_of(a, b, zero)
        return build

    wide = spy(lambda a, b, zero: [[a, b, zero], [zero, a, b]])
    square = spy(lambda a, b, zero: [[a, b], [zero, a]])
    assert certified_nullity(K, 3, [[K.one, K.zeta]], wide) == 1
    assert len(exact) == 1
    exact.clear()
    assert certified_nullity(K, 2, [[K.one, K.zeta]], square) == 0
    assert not exact

