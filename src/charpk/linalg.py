"""Exact linear algebra over any field-like element type.

Elements must support +, -, *, / and an ``is_zero()`` method; FieldScalar,
function-field classes and extension-field elements all qualify.  Matrices
are lists of row lists.  Everything here is small and dense: desk scale.
"""

from __future__ import annotations


def echelon(rows, ncols):
    """In-place fraction Gaussian elimination; returns list of pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    rows = [list(r) for r in matrix]
    return len(echelon(rows, len(rows[0])))


def solve(matrix, rhs):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero (of the coefficient field).
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = echelon(rows, ncols)
    zero = None
    for row in matrix:
        for x in row:
            zero = x - x
            break
        if zero is not None:
            break
    if zero is None:
        zero = rhs[0] - rhs[0]
    # inconsistency: a row 0 ... 0 | nonzero
    for i in range(len(pivots), len(rows)):
        if not rows[i][ncols].is_zero():
            return None
    sol = [zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = rows[r][ncols]
    return sol

