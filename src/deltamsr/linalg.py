"""Exact linear algebra on integer vectors.

Small dense matrices only, with no tolerances anywhere.  Every vector is an
integer vector, and a primitive one has coprime entries: ``primitive_part``
divides out the gcd, which changes no zero coordinate, no zero/nonzero
inner product and no linear (in)dependence.  Elimination keeps rows
integral by cross-multiplying and dividing each row by its gcd, so no
value is ever a fraction.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

__all__ = [
    "dot",
    "int_nullspace_basis",
    "primitive_part",
]


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("inner product of vectors of different lengths")
    return sum(map(mul, u, v), 0)


def primitive_part(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*ints)
    if g > 1:
        return tuple([x // g for x in ints])
    return tuple(ints)


def int_nullspace_basis(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : row . x = 0 for every row} over integer rows.

    One vector per free column: the primitive multiple, positive in its
    free column, of the vector the reduced row echelon form gives (1 in the
    free column, minus the reduced rows' entries in the pivot columns).
    With no rows every column is free, and that is the identity basis,
    returned without elimination.
    """
    if not rows:
        return tuple((0,) * c + (1,) + (0,) * (ncols - 1 - c) for c in range(ncols))
    mat = list(rows)  # a row is replaced, never changed in place
    nrows = len(mat)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for p in range(r, nrows):
            if mat[p][c]:
                break
        else:
            continue
        prow = mat[p]
        mat[p] = mat[r]
        mat[r] = prow
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # each pivot row is now its reduced row times its pivot entry
    scale = lcm(*[mat[i][pc] for i, pc in enumerate(pivots)])
    # each pivot row with its column and the factor that takes its pivot entry to scale
    pivot_rows = [(pc, mat[i], scale // mat[i][pc]) for i, pc in enumerate(pivots)]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for pc, row, factor in pivot_rows:
            vec[pc] = -row[fc] * factor
        basis.append(primitive_part(vec))
    return tuple(basis)
