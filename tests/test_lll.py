from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gram_schmidt import gram_schmidt_check
from rref_rows import rational_rref
from symfreq.lll import lll_reduce


def gram_det(rows):
    n = len(rows)
    g = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    # fraction-free determinant via rational elimination
    mat = [[F(x) for x in row] for row in g]
    det = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] * inv
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


def in_lattice(vec, basis_rows):
    """Whether vec is an integer combination of the basis rows."""
    cols = len(basis_rows[0])
    aug = [[F(basis_rows[r][c]) for r in range(len(basis_rows))] + [F(vec[c])] for c in range(cols)]
    res = rational_rref(aug)
    n = len(basis_rows)
    sol = [F(0)] * n
    for i, p in enumerate(res.pivots):
        if p == n:
            return False  # inconsistent
        sol[p] = res.rows[i][n]
    # verify and require integrality
    for c in range(cols):
        if sum(sol[r] * basis_rows[r][c] for r in range(n)) != vec[c]:
            return False
    return all(x.denominator == 1 for x in sol)


def same_lattice(a, b):
    return all(in_lattice(v, a) for v in b) and all(in_lattice(v, b) for v in a)


class TestLLL:
    def test_known_small_basis(self):
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        out = lll_reduce([row[:] for row in basis])
        assert gram_schmidt_check(out)
        assert same_lattice(basis, out)
        assert gram_det(out) == gram_det(basis)

    def test_finds_integer_relation(self):
        # x = (1, phi) scaled: golden ratio satisfies x^2 = x + 1, so the
        # vector (1, 1, -1) nearly kills (1, phi, phi^2)
        import mpmath

        with mpmath.workprec(200):
            phi = (1 + mpmath.sqrt(5)) / 2
            scale = mpmath.mpf(2) ** 120
            xs = [int(mpmath.nint(scale * v)) for v in (1, phi, phi * phi)]
        rows = [[1, 0, 0, xs[0]], [0, 1, 0, xs[1]], [0, 0, 1, xs[2]]]
        out = lll_reduce(rows)
        hits = [r for r in out if r[:3] in ([1, 1, -1], [-1, -1, 1])]
        assert hits and abs(hits[0][3]) <= 3

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce([[1, 2], [2, 4]])

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            lll_reduce([[1, 0], [0, 1]], delta=(1, 5))
        with pytest.raises(ValueError):
            lll_reduce([[1, 0], [0, 1]], delta=(5, 4))

    def test_empty(self):
        assert lll_reduce([]) == []

    @given(
        st.lists(
            st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_full_rank(self, rows):
        if gram_det(rows) == 0:
            return
        out = lll_reduce([r[:] for r in rows])
        assert gram_schmidt_check(out)
        assert same_lattice(rows, out)
        assert gram_det(out) == gram_det(rows)

    @given(
        st.lists(
            st.lists(st.integers(min_value=-8, max_value=8), min_size=5, max_size=5),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_rectangular(self, rows):
        if gram_det(rows) == 0:
            return
        out = lll_reduce([r[:] for r in rows])
        assert gram_schmidt_check(out)
        assert same_lattice(rows, out)
