"""Constructive relation machinery: index reduction, the S/U change of
coordinates, the explicit relation bases for the covered modulus shapes, and
the cyclotomic-identity basis for every modulus.

Conventions, fixed once for the whole package:

* m' = m // 2; S-variables are indexed 1..m'-1, U-variables 2..m' (U-index 1
  is identically zero and is dropped silently wherever it would appear);
* k_red(m, k) is the unique representative of +-k mod m inside 1..m';
* constructed bases are emitted in a deterministic order (ascending (r, k)
  for prime powers, larger prime block first for odd semiprimes, ascending
  odd k for twice-a-prime) so golden outputs are stable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intmath import factorize, is_prime
from .linalg import LinearForm, S_SPACE, U_SPACE, rref


class UnsupportedModulus(ValueError):
    """No constructive basis is known for this modulus shape."""


CASE_PRIME = "prime"
CASE_PRIME_POWER = "prime-power"
CASE_ODD_SEMIPRIME = "odd-semiprime"
CASE_TWO_TIMES_PRIME = "two-times-prime"
CASE_GENERAL = "general"


@dataclass(frozen=True)
class ModulusProfile:
    m: int
    half: int
    factorization: tuple[tuple[int, int], ...]
    case: str


def modulus_profile(m: int) -> ModulusProfile:
    if m < 2:
        raise ValueError("modulus must be at least 2")
    fact = factorize(m)
    if len(fact) == 1:
        p, e = fact[0]
        case = CASE_PRIME if e == 1 else CASE_PRIME_POWER
    elif len(fact) == 2 and fact[0] == (2, 1) and fact[1][1] == 1:
        case = CASE_TWO_TIMES_PRIME
    elif len(fact) == 2 and fact[0][0] > 2 and fact[0][1] == 1 and fact[1][1] == 1:
        case = CASE_ODD_SEMIPRIME
    else:
        case = CASE_GENERAL
    return ModulusProfile(m, m // 2, fact, case)


@dataclass(frozen=True)
class RelationBasis:
    m: int
    space: str
    forms: tuple[LinearForm, ...]
    provenance: str  # "constructed" | "identities" | "discovered"


def k_red(m: int, k: int) -> int:
    """Representative of +-k mod m in 1..m//2."""
    r = k % m
    if r == 0:
        raise ValueError(f"k = {k} is divisible by m = {m}")
    return min(r, m - r)


# ----------------------------------------------------------------------
# The change of coordinates between U-forms and S-forms


def phi_forward(uform: LinearForm) -> LinearForm:
    """Image of a U-space form in S-space."""
    if uform.space != U_SPACE:
        raise ValueError("phi_forward expects a U-space form")
    return LinearForm(S_SPACE, uform.m, tuple(phi_coeffs(uform.coeffs)))


def phi_coeffs(ucoeffs) -> np.ndarray:
    """S-coefficients (indices 1..m'-1) of the U-coefficients (2..m').

    Maps the last axis, so a matrix of U-rows maps row by row:
    S_d = sum_k c_k min(k - 1, d), computed as the prefix sum of (k - 1) c_k
    up to k = d + 1 plus d times the suffix sum of c_k beyond it.  Fractions
    and Python ints stay exact (object arrays).  Each output entry is at most
    m' times the row's sum of |c_k|; an int64 array stays int64 while that
    bound is below 2^63, so that its wrapping ring arithmetic is exact, and
    holds Python ints otherwise.
    """
    c = np.asarray(ucoeffs)
    if c.dtype == np.int64 and c.size:
        half = c.shape[-1] + 1
        if half * (half - 1) * max(int(c.max()), -int(c.min())) >> 63:
            l1 = max(sum(map(abs, row)) for row in c.reshape(-1, half - 1).tolist())
            if half * l1 >> 63:
                c = c.astype(object)
    weights = np.arange(1, c.shape[-1] + 1, dtype=object if c.dtype == object else np.int64)
    sums = np.cumsum(c, axis=-1)
    return np.cumsum(c * weights, axis=-1) + weights * (sums[..., -1:] - sums)


def phi_inverse(sform: LinearForm) -> LinearForm:
    """Preimage of an S-space form under the change of coordinates.

    Substitutes X_d -> 2Y_{d+1} - Y_d - Y_{d+2} for d <= m'-2 and
    X_{m'-1} -> Y_{m'} - Y_{m'-1}; Y_1 vanishes.  The substitution runs on
    the integer numerators over the lcm of the denominators.
    """
    if sform.space != S_SPACE:
        raise ValueError("phi_inverse expects an S-space form")
    m = sform.m
    half = m // 2
    scale, x = sform.integer_coeffs()
    y = [0] * (half + 1)  # y[k] is the coefficient of Y_k
    for d, c in enumerate(x[:-1], start=1):
        if c:
            y[d] -= c
            y[d + 1] += 2 * c
            y[d + 2] -= c
    y[half - 1] -= x[-1]
    y[half] += x[-1]
    zero = Fraction(0)
    return LinearForm(U_SPACE, m, tuple(Fraction(c, scale) if c else zero for c in y[2:]))


# ----------------------------------------------------------------------
# Constructed bases


def prime_power_u_basis(p: int, n: int) -> RelationBasis:
    """Basis of the relation space for modulus p^n, n >= 2.

    One relation per pair (r, k) with r in 1..n-1, 1 <= k <= p^(n-r)/2,
    gcd(k, p) = 1, and k > 1 when r = 1:

        -Y_{p^r k} + w Y_p + sum_{j = 1 mod p^(n-r)} Y_{(jk)_red}
                   - w sum_{j = 1 mod p^(n-1)} Y_{j_red},   w = (p^r-1)/(p-1).

    This yields (p^(n-1)-3)/2 relations for odd p and 2^(n-2)-1 for p = 2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError("prime powers need exponent n >= 2")
    m = p**n
    forms = []
    for r in range(1, n):
        weight = Fraction(p**r - 1, p - 1)
        for k in range(1, p ** (n - r) // 2 + 1):
            if k % p == 0 or (r == 1 and k == 1):
                continue
            acc: dict[int, Fraction] = defaultdict(Fraction)
            acc[k_red(m, p**r * k)] -= 1
            acc[p] += weight
            for j in range(1, m + 1, p ** (n - r)):
                acc[k_red(m, j * k)] += 1
            for j in range(1, m + 1, p ** (n - 1)):
                acc[k_red(m, j)] -= weight
            forms.append(LinearForm.from_map(U_SPACE, m, acc))
    return RelationBasis(m, U_SPACE, tuple(forms), "constructed")


def hset(p: int, q: int) -> list[int]:
    """Canonical representatives of the +-classes mod p that are coprime to q.

    For each j in 1..(p-1)/2 the representative is j itself unless q divides
    j, in which case it is bumped to j + p.  The set always contains 1 and
    its members are pairwise +-inequivalent mod p.
    """
    if p == q:
        raise ValueError("the two primes must be distinct")
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return [j if j % q else j + p for j in range(1, (p - 1) // 2 + 1)]


def c_set(m: int, p: int, q: int, k: int) -> list[int]:
    """Reduced orbit {(kj)_red : j = 1 mod p, gcd(j, q) = 1, 1 <= j <= m}."""
    return [k_red(m, k * j) for j in range(1, m + 1, p) if j % q]


def _semiprime_block(m: int, p: int, q: int) -> list[LinearForm]:
    # Relations attached to the prime p of m = pq, one per element of the
    # canonical representative set beyond 1.
    qstar = pow(q, -1, p)
    c1 = c_set(m, p, q, 1)
    out = []
    for k in hset(p, q):
        if k == 1:
            continue
        acc: dict[int, Fraction] = defaultdict(Fraction)
        for j in c_set(m, p, q, k):
            acc[j] += 1
        for j in c1:
            acc[j] -= 1
        acc[k_red(m, q * k)] -= 1
        acc[k_red(m, q * qstar * k)] += 1
        acc[k_red(m, q * qstar)] -= 1
        acc[k_red(m, q)] += 1
        out.append(LinearForm.from_map(U_SPACE, m, acc))
    return out


def semiprime_u_basis(p: int, q: int) -> RelationBasis:
    """Basis of the relation space for m = pq, distinct odd primes.

    Emits the block attached to p first, then the block attached to q, each
    in ascending representative order; (p+q)/2 - 3 relations in total.
    """
    for x in (p, q):
        if x < 3 or not is_prime(x):
            raise ValueError(f"{x} is not an odd prime")
    if p == q:
        raise ValueError("the two primes must be distinct")
    m = p * q
    forms = _semiprime_block(m, p, q) + _semiprime_block(m, q, p)
    return RelationBasis(m, U_SPACE, tuple(forms), "constructed")


def two_p_u_basis(p: int) -> RelationBasis:
    """Basis of the relation space for m = 2p, p an odd prime.

    For odd k with 3 <= k <= p-2:

        -Y_k + Y_{p-1} + Y_{2k}      - Y_{p-k} - Y_2   if k < p/2,
        -Y_k + Y_{p-1} + Y_{2(p-k)}  - Y_{p-k} - Y_2   if k > p/2,

    giving (p-3)/2 relations; empty for p = 3.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    m = 2 * p
    forms = []
    for k in range(3, p - 1, 2):
        acc: dict[int, Fraction] = defaultdict(Fraction)
        acc[k] -= 1
        acc[p - 1] += 1
        acc[2 * k if 2 * k < p else 2 * (p - k)] += 1
        acc[p - k] -= 1
        acc[2] -= 1
        forms.append(LinearForm.from_map(U_SPACE, m, acc))
    return RelationBasis(m, U_SPACE, tuple(forms), "constructed")


def short_s_relation(m: int) -> LinearForm | None:
    """The short S-relation for even m whose half is 3j+1 or 3j-1, j >= 2.

    Returns -X_{j-1} + X_{2j-2} + 2 X_{2j-1} when m/2 = 3j+1 and
    -X_{j-1} + 2 X_{2j-1} + X_{2j} when m/2 = 3j-1; None when m is odd,
    m/2 = 0 mod 3, or j < 2.
    """
    if m % 2:
        return None
    half = m // 2
    if half % 3 == 1:
        j = (half - 1) // 3
        if j < 2:
            return None
        coeffs = {j - 1: Fraction(-1), 2 * j - 2: Fraction(1), 2 * j - 1: Fraction(2)}
    elif half % 3 == 2:
        j = (half + 1) // 3
        if j < 2:
            return None
        # When 2j is the boundary index m'-1 (only j = 2, i.e. m = 10) the
        # symmetric frequency there is a single digit frequency, half of what
        # the generic sine pattern represents, so its coefficient doubles.
        last = Fraction(2) if 2 * j == half - 1 else Fraction(1)
        coeffs = {j - 1: Fraction(-1), 2 * j - 1: Fraction(2), 2 * j: last}
    else:
        return None
    return LinearForm.from_map(S_SPACE, m, coeffs)


def u_basis(m: int) -> RelationBasis:
    """Constructed relation basis for any covered modulus shape.

    prime -> empty; p^n -> prime_power_u_basis; pq -> semiprime_u_basis with
    the larger prime's block first; 2p -> two_p_u_basis.  Raises
    UnsupportedModulus for every other composite shape.
    """
    if m < 4:
        raise ValueError("relation bases need m >= 4")
    prof = modulus_profile(m)
    if prof.case == CASE_PRIME:
        return RelationBasis(m, U_SPACE, (), "constructed")
    if prof.case == CASE_PRIME_POWER:
        p, n = prof.factorization[0]
        return prime_power_u_basis(p, n)
    if prof.case == CASE_ODD_SEMIPRIME:
        p, q = prof.factorization[0][0], prof.factorization[1][0]
        return semiprime_u_basis(max(p, q), min(p, q))
    if prof.case == CASE_TWO_TIMES_PRIME:
        return two_p_u_basis(prof.factorization[1][0])
    raise UnsupportedModulus(
        f"no constructed basis for m = {m} ({prof.case}); use identity_u_basis "
        "(or discover_relations for a numeric search)"
    )


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


def identity_u_basis(m: int) -> RelationBasis:
    """Basis of the relation space for any m >= 4, from cyclotomic identities.

    The rows of `identity_span(m)` are a basis of the S-relations the
    identities span, mapped back to U-coordinates by `phi_inverse`.  They
    are a basis of the U-relation space, complete, not only sound, as the
    identities span every relation.  Each form is scaled to coprime integer
    coefficients.
    """
    forms = []
    for row in identity_span(m).nums:
        ints = [int(c) for c in phi_inverse(LinearForm(S_SPACE, m, tuple(row))).coeffs]
        g = math.gcd(*ints)
        forms.append(LinearForm(U_SPACE, m, tuple(x // g for x in ints)))
    return RelationBasis(m, U_SPACE, tuple(forms), "identities")
