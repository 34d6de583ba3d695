"""Exact linear algebra on integer vectors.

Small dense matrices only, with no tolerances anywhere.  Vectors are
primitive integer vectors: rescaling by a nonzero rational changes no zero
coordinate, no zero/nonzero inner product and no linear (in)dependence, so
rational input is scaled to integers once and everything after that is
fraction-free.  Elimination keeps rows integral by cross-multiplying and
dividing each row by its gcd.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

__all__ = [
    "dot",
    "int_nullspace_basis",
    "primitive_int_vector",
]


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("inner product of vectors of different lengths")
    return sum(map(mul, u, v), 0)


def primitive_int_vector(vec) -> tuple[int, ...]:
    """Integer vector with coprime entries spanning the same rational line.

    Entries are ints or Fractions.  The scale factor is positive, so signs
    are kept; the zero vector stays zero.
    """
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


def int_nullspace_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : row . x = 0 for every row} over integer rows.

    One vector per free column: the primitive multiple, positive in its
    free column, of the vector the reduced row echelon form gives (1 in the
    free column, minus the reduced rows' entries in the pivot columns).
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    # each pivot row is now its reduced row times its pivot entry
    scale = lcm(*(mat[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc] * (scale // mat[i][pc])
        basis.append(primitive_int_vector(vec))
    return basis

