"""Fraction Gauss-Jordan elimination, the independent oracle for `linalg.rref`.

Pivot selection is the first nonzero entry in column order; with exact
arithmetic no pivoting heuristics are needed and the output is the unique
RREF of the input.
"""

from fractions import Fraction


def fraction_rref(rows):
    """(rows, pivots) of the RREF over Q, zero rows last, entries Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(r) for r in rows), tuple(pivots)
