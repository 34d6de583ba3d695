"""Exact linear algebra over the rationals.

Small dense matrices only; everything is ``fractions.Fraction`` in and out,
with no tolerances anywhere.  Rank uses Bareiss fraction-free elimination
on integer-scaled rows so intermediate values stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "dot",
    "rref",
    "nullspace_basis",
    "rank_bareiss",
    "primitive_int_vector",
]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and its pivot columns."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : row . x = 0 for every row}; one vector per free column."""
    if not rows:
        return [
            [Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)
        ]
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def rank_bareiss(rows) -> int:
    """Exact rank by fraction-free (Bareiss) elimination."""
    mat = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fr)) if fr else 1
        mat.append([int(f * scale) for f in fr])
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                mat[i][j] = (mat[i][j] * mat[r][c] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        r += 1
    return r


def primitive_int_vector(vec) -> list[int]:
    """Integer vector with coprime entries spanning the same rational line.

    Rescaling never changes orthogonality, zero/nonzero inner products or
    linear (in)dependence, and it keeps coordinate growth in check during
    incremental constructions.
    """
    fr = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fr))
    ints = [int(f * denom) for f in fr]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints
