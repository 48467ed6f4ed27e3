"""The cyclotomic identities, eliminated: an oracle for the relation engine.

`relations.dependence_rref` reads the relation space off the closed-form
even-character table, whose completeness rests on L(1, psi) != 0.  This
module reaches the same space another way: it writes down the distribution
and norm identities among the numbers 1 - zeta_m^a, which span every
relation by Bass's theorem, and eliminates them once in S-coordinates.  The
two share nothing but the modulus, `rref` and the change of coordinates, so
the tests compare `express_dependents`, `identity_u_basis`, the scan and the
certificate's kernel against it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from symfreq.intmath import factorize
from symfreq.linalg import LinearForm, U_SPACE, rref
from symfreq.relations import phi_coeffs, phi_inverse_coeffs


def identity_rows(m: int) -> np.ndarray:
    """The cyclotomic identities among the x_a as integer rows, for any m >= 4.

    Here x_a = log|1 - zeta_m^a| = log(2 sin(pi a/m)), so that x_a = x_{m-a}.
    The columns are one log p per prime p | m, then the sum of the
    x-coefficients, then x_1..x_m'.  The rows are

    * distribution: sum_{j<d} x_{b + j m/d} = x_{bd} for d | m, d > 1 and
      1 <= b < m/d, the logarithm of prod_{y^d = z} (1 - y) = 1 - z.  Only
      prime d are generated: the identity for d = d1 d2 is the sum of the
      d1-identities over the d2-th roots w of z, chained with the
      d2-identity, and none of those w is 1.  Only b <= m/(2d) are generated:
      b and m/d - b give the same row, as both sides change sign mod m;
    * norm: sum_{1<=a<q, p∤a} x_{a m/q} = log p for each prime power q = p^k
      dividing m, the logarithm of Phi_q(1) = p.

    By the rational form of Bass's theorem (Bass 1966; Washington,
    Introduction to Cyclotomic Fields, ch. 8) these identities span every
    Q-linear relation among the x_a.
    """
    if m < 4:
        raise ValueError("relation bases need m >= 4")
    half = m // 2
    fact = factorize(m)
    lead = len(fact) + 1  # the log p columns and the sum column

    def col(a: np.ndarray) -> np.ndarray:
        r = a % m
        return lead - 1 + np.minimum(r, m - r)

    blocks = []
    for d, _ in fact:
        step = m // d
        b = np.arange(1, step // 2 + 1)
        rows = np.zeros((b.size, lead + half), np.int64)
        at = np.arange(b.size)
        np.add.at(rows, (at[:, None], col(b[:, None] + step * np.arange(d))), 1)
        np.add.at(rows, (at, col(b * d)), -1)
        rows[:, lead - 1] = d - 1
        blocks.append(rows)
    for i, (p, e) in enumerate(fact):
        for k in range(1, e + 1):
            q = p**k
            a = np.arange(1, q)
            row = np.zeros((1, lead + half), np.int64)
            np.add.at(row[0], col(a[a % p != 0] * (m // q)), 1)
            row[0, i] = -1
            row[0, lead - 1] = q - q // p
            blocks.append(row)
    return np.vstack(blocks)


@dataclass(frozen=True)
class IdentitySpan:
    """The relations among S_1..S_m'-1 that the identities span, as one RREF.

    Row i of `nums` is den times the S-block of the row of the RREF of the
    identities (see `identity_span`) that pivots on S_(pivots[i] + 1), so
    nums[i][pivots[i]] = den, the lcm of those rows' denominators, and
    sum_j nums[i][j] S_(j+1) = 0 is a relation.  An integer vector s over
    S_1..S_m'-1 lies in the span iff den s[f] = sum_i s[pivots[i]] nums[i][f]
    at every free column f.
    """

    m: int
    pivots: tuple[int, ...]
    nums: list[list[int]]
    den: int

    @property
    def free(self) -> list[int]:
        """The columns without a pivot, ascending: t of them."""
        pivot_set = set(self.pivots)
        return [j for j in range(self.m // 2 - 1) if j not in pivot_set]


def identity_span(m: int) -> IdentitySpan:
    """The package's one elimination of `identity_rows(m)`, in S-coordinates.

    The x-block of the rows is rewritten as (sum of the x-coefficients,
    S_1..S_m'-1), the sum being the column just before it.  As
    c -> (sum c, phi(c_2..c_m')) is a bijection, the rows of the one RREF
    that pivot in the S block are the RREF of the relations among the S_d
    that the identities span.  Every identity is a theorem (distribution or
    norm), so each of those relations is true, whatever the completeness of
    the identities.  Nothing is cached: callers keep what they need.
    """
    rows = identity_rows(m)
    lead = rows.shape[1] - m // 2
    ech = rref(np.hstack([rows[:, :lead], phi_coeffs(rows[:, lead + 1 :])]))
    keep = [i for i, c in enumerate(ech.pivots) if c >= lead]
    den = math.lcm(*(ech.dens[i] for i in keep))
    nums = []
    for i in keep:
        scale = den // ech.dens[i]
        nums.append(ech.nums[i][lead:] if scale == 1 else [x * scale for x in ech.nums[i][lead:]])
    return IdentitySpan(m, tuple(ech.pivots[i] - lead for i in keep), nums, den)


def identity_table(m: int) -> tuple[int, tuple, bool]:
    """(t, rows, trailing_ok) of the expression table, read from `identity_span(m)`.

    Each row of the span, the RREF of the S-relations, gives its pivot
    S-value over the free columns, as (d, ((j, c_j), ...)) for
    S_d = sum_j c_j S_j; trailing_ok records whether the pivots were the
    leading columns.
    """
    span = identity_span(m)
    free = span.free
    rows = tuple(
        (p + 1, tuple((j + 1, Fraction(-row[j], span.den)) for j in free if row[j]))
        for p, row in zip(span.pivots, span.nums)
    )
    return len(free), rows, span.pivots == tuple(range(len(rows)))


def identity_forms(m: int) -> tuple[LinearForm, ...]:
    """The rows of `identity_span(m)` mapped back to U-coordinates, as coprime integer forms."""
    nums = np.array(identity_span(m).nums, dtype=object).reshape(-1, m // 2 - 1)
    forms = []
    for ints in phi_inverse_coeffs(nums).tolist():
        g = math.gcd(*ints)
        forms.append(LinearForm(U_SPACE, m, tuple(x // g for x in ints)))
    return tuple(forms)
