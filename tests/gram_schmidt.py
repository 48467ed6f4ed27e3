"""Rational Gram-Schmidt, the independent check on `lll.lll_reduce`."""

from fractions import Fraction


def gram_schmidt_check(basis: list[list[int]], delta: tuple[int, int] = (99, 100)) -> bool:
    """Whether an integer basis is LLL-reduced, by direct rational Gram-Schmidt.

    Independent of lll_reduce's bookkeeping.
    """
    nu, de = delta
    rows = [[Fraction(x) for x in row] for row in basis]
    n = len(rows)
    ortho: list[list[Fraction]] = []
    mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        v = list(row)
        for j in range(i):
            denom = sum(x * x for x in ortho[j])
            mu[i][j] = sum(x * y for x, y in zip(row, ortho[j])) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, ortho[j])]
        ortho.append(v)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for k in range(1, n):
        lhs = sum(x * x for x in ortho[k])
        rhs = (Fraction(nu, de) - mu[k][k - 1] ** 2) * sum(x * x for x in ortho[k - 1])
        if lhs < rhs:
            return False
    return True
