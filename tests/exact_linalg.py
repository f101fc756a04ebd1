"""Exact Gaussian elimination, the independent oracle for the tests.

linarr answers every dimension question on split primes
(linarr.linalg.certified_nullity).  These routines eliminate over the exact
field instead, on any element type supporting +, -, *, / and truthiness
(CycNumber and Fraction both qualify), so the tests can check the modular
answers against an engine that shares none of their code.
"""

from fractions import Fraction

from linarr.field import CycNumber


def _complexity(x) -> int:
    if isinstance(x, CycNumber):
        return sum(a.bit_length() for a in x.num) + x.den.bit_length()
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return 1


def echelon(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Row reduce in place over the exact field.

    Returns the reduced rows and the list of pivot columns.  Pivots are
    chosen by smallest coefficient size to limit expression growth.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    head = 0
    for col in range(ncols):
        best = None
        best_size = None
        for i in range(head, len(rows)):
            x = rows[i][col]
            if x:
                size = _complexity(x)
                if best is None or size < best_size:
                    best, best_size = i, size
        if best is None:
            continue
        rows[head], rows[best] = rows[best], rows[head]
        piv_row = rows[head]
        piv = piv_row[col]
        for i in range(len(rows)):
            if i == head:
                continue
            x = rows[i][col]
            if x:
                factor = x / piv
                row = rows[i]
                for j in range(col, ncols):
                    v = piv_row[j]
                    if v:
                        row[j] = row[j] - factor * v
        pivots.append(col)
        head += 1
        if head == len(rows):
            break
    return rows, pivots


def rank(rows: list[list], ncols: int) -> int:
    return len(echelon(rows, ncols)[1])


def nullity(rows: list[list], ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - rank(rows, ncols)


def kernel_basis(rows: list[list], ncols: int, one, zero) -> list[list]:
    """Basis of the right kernel, exact.

    echelon() fully reduces, so each pivot column is nonzero in its own row
    only and the kernel reads off directly from the free columns.
    """
    if not rows:
        return [
            [one if j == i else zero for j in range(ncols)] for i in range(ncols)
        ]
    red, pivots = echelon(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            v = red[r][fc]
            if v:
                vec[pc] = -v / red[r][pc]
        basis.append(vec)
    return basis


def kernel_vector(rows: list[list], ncols: int, one, zero):
    """One nonzero kernel vector, or None if the kernel is trivial."""
    basis = kernel_basis(rows, ncols, one, zero)
    return basis[0] if basis else None
