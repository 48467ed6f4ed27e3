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

from .intmath import factorize, is_prime
from .linalg import LinearForm, RationalMatrix, S_SPACE, U_SPACE, rref


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
    """Image of a U-space form in S-space.

    Computed by the recursion c_d = e_d + d*f_d with e_1 = 0,
    f_1 = sum of all input coefficients, e_{d+1} = e_d + d*c'_{d+1},
    f_{d+1} = f_d - c'_{d+1}.
    """
    if uform.space != U_SPACE:
        raise ValueError("phi_forward expects a U-space form")
    m = uform.m
    half = m // 2
    cprime = {k: c for k, c in uform.items()}
    e = Fraction(0)
    f = sum(cprime.values(), Fraction(0))
    out = []
    for d in range(1, half):
        if d >= 2:
            c_d = cprime.get(d, Fraction(0))
            e += (d - 1) * c_d
            f -= c_d
        out.append(e + d * f)
    return LinearForm(S_SPACE, m, tuple(out))


def phi_inverse(sform: LinearForm) -> LinearForm:
    """Preimage of an S-space form under the change of coordinates.

    Substitutes X_d -> 2Y_{d+1} - Y_d - Y_{d+2} for d <= m'-2 and
    X_{m'-1} -> Y_{m'} - Y_{m'-1}; Y_1 vanishes.
    """
    if sform.space != S_SPACE:
        raise ValueError("phi_inverse expects an S-space form")
    m = sform.m
    half = m // 2
    acc: dict[int, Fraction] = defaultdict(Fraction)
    for d, c in sform.items():
        if d == half - 1:
            acc[half] += c
            acc[half - 1] -= c
        else:
            acc[d + 1] += 2 * c
            acc[d] -= c
            acc[d + 2] -= c
    return LinearForm.from_map(U_SPACE, m, acc)


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


def identity_u_basis(m: int) -> RelationBasis:
    """Basis of the relation space for any m >= 4, from cyclotomic identities.

    With x_a = log|1 - zeta_m^a| = log(2 sin(pi a/m)), so that x_a = x_{m-a}
    and U_k = (x_k - x_1)/ln 2, the x_a satisfy

    * distribution: sum_{j<d} x_{b + j m/d} = x_{bd} for d | m, d > 1 and
      1 <= b < m/d, the logarithm of prod_{y^d = z} (1 - y) = 1 - z.  Only
      prime d are generated: the identity for d = d1 d2 is the sum of the
      d1-identities over the d2-th roots w of z, chained with the
      d2-identity, and none of those w is 1;
    * norm: sum_{1<=a<q, p∤a} x_{a m/q} = log p for each prime power q = p^k
      dividing m, the logarithm of Phi_q(1) = p.

    Exact elimination with one log p column per prime p | m ahead of the
    columns x_1..x_{m'} leaves, in the rows pivoting on an x column, a basis
    of the identities free of every log p.  Their intersection with the
    hyperplane "coefficients sum to 0", with x_1 dropped, is the U-relation
    space.  By the rational form of Bass's theorem (Bass 1966; Washington,
    Introduction to Cyclotomic Fields, ch. 8) these identities span every
    Q-linear relation among the x_a, so the basis is complete, not only
    sound.  Each form is scaled to coprime integer coefficients.
    """
    if m < 4:
        raise ValueError("relation bases need m >= 4")
    half = m // 2
    fact = factorize(m)
    nlog = len(fact)

    def col(a: int) -> int:
        return nlog + k_red(m, a) - 1

    rows = []
    for d, _ in fact:
        step = m // d
        for b in range(1, step):
            row = [0] * (nlog + half)
            for j in range(d):
                row[col(b + j * step)] += 1
            row[col(b * d)] -= 1
            rows.append(row)
    for i, (p, e) in enumerate(fact):
        for k in range(1, e + 1):
            q = p**k
            row = [0] * (nlog + half)
            for a in range(1, q):
                if a % p:
                    row[col(a * (m // q))] += 1
            row[i] -= 1
            rows.append(row)
    ech = rref(RationalMatrix.from_rows(rows, cols=nlog + half))
    xrels = [
        ech.matrix.entries[i][nlog:] for i, c in enumerate(ech.pivots) if c >= nlog
    ]
    # intersect with sum(v) = 0 by clearing the sums against one row
    sums = [sum(v) for v in xrels]
    lead = next((i for i, s in enumerate(sums) if s != 0), None)
    if lead is not None:
        xrels = [
            [a - sums[i] / sums[lead] * b for a, b in zip(v, xrels[lead])]
            for i, v in enumerate(xrels)
            if i != lead
        ]
    forms = []
    for v in xrels:
        scale = math.lcm(*(c.denominator for c in v))
        ints = [int(c * scale) for c in v[1:]]
        g = math.gcd(*ints)
        forms.append(LinearForm(U_SPACE, m, tuple(c // g for c in ints)))
    return RelationBasis(m, U_SPACE, tuple(forms), "identities")


def closed_form_count(m: int) -> int | None:
    """Size of the constructed basis by the closed-form counting formulas."""
    prof = modulus_profile(m)
    if prof.case == CASE_PRIME:
        return 0
    if prof.case == CASE_PRIME_POWER:
        p, n = prof.factorization[0]
        return 2 ** (n - 2) - 1 if p == 2 else (p ** (n - 1) - 3) // 2
    if prof.case == CASE_ODD_SEMIPRIME:
        p, q = prof.factorization[0][0], prof.factorization[1][0]
        return (p + q) // 2 - 3
    if prof.case == CASE_TWO_TIMES_PRIME:
        return (prof.factorization[1][0] - 3) // 2
    return None
