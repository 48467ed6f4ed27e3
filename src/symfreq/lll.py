"""Exact lattice reduction over the integers.

An all-integer LLL: instead of rational Gram-Schmidt data it maintains the
Gram determinants d_i of the leading i x i blocks and the scaled projection
coefficients lam[i][j] = d_{j+1} * mu_{i,j}, all of which stay integral.
Every division below is exact.  The Lovasz condition with parameter
delta = nu/de reads

    de * d[k+1] * d[k-1]  >=  nu * d[k]^2 - de * lam[k][k-1]^2

(in the 0-indexed arrays used here, with d[0] = 1).
"""

from __future__ import annotations


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in integer LLL")
    return q


def lll_reduce(basis: list[list[int]], delta: tuple[int, int] = (99, 100)) -> list[list[int]]:
    """LLL-reduce the rows of an integer basis; rows must be linearly independent.

    Returns a new list of rows spanning the same lattice, size-reduced and
    satisfying the Lovasz condition with parameter delta = nu/de.
    """
    nu, de = delta
    if not (de < 4 * nu and nu <= de):
        raise ValueError("delta must lie in (1/4, 1]")
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return []
    width = len(b[0])
    if any(len(row) != width for row in b):
        raise ValueError("ragged basis")

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("dependent rows in LLL input")

    def reduce_row(k, l):
        # size-reduce b[k] against b[l] (l < k)
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                lam[k][l] -= q * d[l + 1]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]

    def swap_rows(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lbar = lam[k][k - 1]
        bnew = _exact_div(d[k - 1] * d[k + 1] + lbar * lbar, d[k])
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = _exact_div(d[k + 1] * lam[i][k - 1] - lbar * t, d[k])
            lam[i][k - 1] = _exact_div(bnew * t + lbar * lam[i][k], d[k + 1])
        d[k] = bnew

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = _exact_div(d[i + 1] * u - lam[k][i] * lam[j][i], d[i])
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
            if d[k + 1] == 0:
                raise ValueError("dependent rows in LLL input")
        while True:
            reduce_row(k, k - 1)
            if de * d[k + 1] * d[k - 1] < nu * d[k] * d[k] - de * lam[k][k - 1] ** 2:
                swap_rows(k, kmax)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    reduce_row(k, l)
                k += 1
                break
    return b
