"""Exact linear algebra on MultiPoly rows: fraction-free elimination
over GF(p)[t..] and ranks over the function field of a prime ideal.

Both eliminate along `_pivot_steps` and cross-multiply rows by the
pivot rather than divide them by it.  Matrices are lists of row lists.
Everything here is small and dense: desk scale.
"""

from __future__ import annotations

from .polys import mp_exact_div, normal_form


def _pivot_steps(rows, ncols):
    """Yield (r, c) for each pivot column c in turn, after swapping the
    first row from r on that is nonzero at c into row r."""
    r = 0
    for c in range(ncols):
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                rows[r], rows[i] = rows[i], rows[r]
                yield r, c
                r += 1
                break


def fraction_free_echelon(rows, ncols):
    """In-place fraction-free Gauss-Jordan elimination of MultiPoly rows
    (Bareiss, Math. Comp. 22, 1968); returns the list of pivot columns.
    The divisions by the previous pivot are exact (`mp_exact_div` raises
    if not), and the pivot rows end as the last pivot times the reduced
    echelon form."""
    pivots, prev = [], None  # None stands for the previous pivot 1
    for r, c in _pivot_steps(rows, ncols):
        top = rows[r]
        for i, row in enumerate(rows):
            if i != r:
                row = [top[c] * a - row[c] * b for a, b in zip(row, top)]
                rows[i] = row if prev is None else [mp_exact_div(a, prev)
                                                    for a in row]
        prev = top[c]
        pivots.append(c)
    return pivots


def rank_modulo(rows, basis) -> int:
    """The rank over Frac(R / I) of MultiPoly rows over R, for a prime
    ideal I with Groebner basis `basis`.  Every entry is kept in normal
    form modulo the basis, so it is zero in R / I iff it is the zero
    polynomial; below each pivot the rows are cross-multiplied by the
    pivot, a unit of Frac(R / I), which keeps the rank."""
    rows = [[normal_form(x, basis) for x in row] for row in rows]
    rank = 0
    for r, c in _pivot_steps(rows, len(rows[0]) if rows else 0):
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c].terms:
                rows[i] = [normal_form(top[c] * x - rows[i][c] * y, basis)
                           for x, y in zip(rows[i], top)]
        rank += 1
    return rank
