"""Constructive relation machinery: index reduction, the S/U change of
coordinates, the explicit relation bases for the covered modulus shapes, and
the relation engine for every modulus: the certificate's even-character
table in S-coordinates (`s_check_matrix`), the relation space read from it
(`RelationSpace`: t, the trailing flag and the RREF of the relations), and
the basis read from that (`identity_u_basis`).

Conventions, fixed once for the whole package:

* m' = m // 2; S-variables are indexed 1..m'-1, U-variables 2..m' (U-index 1
  is identically zero and is dropped silently wherever it would appear);
* k_red(m, k) is the unique representative of +-k mod m inside 1..m';
* constructed bases are emitted in a deterministic order (ascending (r, k)
  for prime powers, larger prime block first for odd semiprimes, ascending
  odd k for twice-a-prime) so golden outputs are stable.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .cyclotomic import build_check_matrix
from .intmath import factorize, is_prime
from .linalg import LinearForm, S_SPACE, U_SPACE, certify_nonsingular, rref


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
    provenance: str  # "constructed" | "characters" | "discovered"


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
    return LinearForm(S_SPACE, uform.m, phi_coeffs(np.array(uform.nums, dtype=object)).tolist(), uform.den)


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


def phi_inverse_coeffs(scoeffs) -> np.ndarray:
    """U-coefficients (indices 2..m') of the S-coefficients (1..m'-1): the inverse of `phi_coeffs`.

    Substitutes X_d -> 2Y_{d+1} - Y_d - Y_{d+2} for d <= m'-2 and
    X_{m'-1} -> Y_{m'} - Y_{m'-1}, with Y_1 = 0: with x_0 = 0 and
    x_{m'} = x_{m'-1}, the coefficient of Y_k is 2x_{k-1} - x_{k-2} - x_k.
    Maps the last axis, so a matrix of S-rows maps row by row.  The matrix
    P of the map (u = s P) is symmetric, as its inverse min(i, j) is, so a
    table C with one row per U_k has the S-coordinate table Psi = P C, with
    s Psi = u C, as phi_inverse_coeffs(C^T)^T.  Entries grow at most
    fourfold; object arrays stay exact.
    """
    x = np.asarray(scoeffs)
    ext = np.concatenate([np.zeros_like(x[..., :1]), x, x[..., -1:]], axis=-1)
    return 2 * ext[..., 1:-1] - ext[..., :-2] - ext[..., 2:]


def log_sine_coeffs(space: str, nums: np.ndarray) -> dict[int, int]:
    """The integers a_r with sum_i nums_i V_i = sum_r a_r L_r, L_r = log2 sin(pi r/m).

    nums is an integer array over the S-values (indices 1..m'-1) or the
    U-values (2..m') V_i: Python ints in an object array, or int64 where
    four times max|nums| fits.  An S-vector is read in U-coordinates by
    `phi_inverse_coeffs`, and U_k = L_k - L_1, so L_1 takes minus the sum
    of the U-coefficients.  The a_r are Python ints; zeros are left out.
    """
    if space == S_SPACE:
        nums = phi_inverse_coeffs(nums)
    where = np.flatnonzero(nums)
    coeffs = dict(zip((where + 2).tolist(), nums[where].tolist()))
    total = sum(coeffs.values())
    return {1: -total, **coeffs} if total else coeffs


def phi_inverse(sform: LinearForm) -> LinearForm:
    """Preimage of an S-space form under the change of coordinates.

    The substitution of `phi_inverse_coeffs` runs on the integer numerators
    over their one denominator.
    """
    if sform.space != S_SPACE:
        raise ValueError("phi_inverse expects an S-space form")
    return LinearForm(U_SPACE, sform.m, phi_inverse_coeffs(np.array(sform.nums, dtype=object)).tolist(), sform.den)


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
        weight = (p**r - 1) // (p - 1)
        for k in range(1, p ** (n - r) // 2 + 1):
            if k % p == 0 or (r == 1 and k == 1):
                continue
            acc: dict[int, int] = defaultdict(int)
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
        acc: dict[int, int] = defaultdict(int)
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
        acc: dict[int, int] = defaultdict(int)
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
        coeffs = {j - 1: -1, 2 * j - 2: 1, 2 * j - 1: 2}
    elif half % 3 == 2:
        j = (half + 1) // 3
        if j < 2:
            return None
        # When 2j is the boundary index m'-1 (only j = 2, i.e. m = 10) the
        # symmetric frequency there is a single digit frequency, half of what
        # the generic sine pattern represents, so its coefficient doubles.
        last = 2 if 2 * j == half - 1 else 1
        coeffs = {j - 1: -1, 2 * j - 1: 2, 2 * j: last}
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


def s_check_matrix(m: int) -> np.ndarray:
    """Psi, the check matrix C of `cyclotomic.build_check_matrix` in S-coordinates, built afresh.

    Row S_d is 2 C[U_(d+1)] - C[U_d] - C[U_(d+2)] and the last row
    C[U_m'] - C[U_(m'-1)], with C[U_1] = 0, the substitution of
    `phi_inverse_coeffs`, so an S-form s has s Psi = u C for
    u = phi_inverse(s).  u C = 0 proves the relation u (Kronecker, with no
    L-function; see `build_check_matrix`), and every relation has u C = 0,
    as L(1, psi) != 0 for every even Dirichlet character psi.  So the
    S-relations are the left kernel of Psi, and t = rank Psi.

    Theorem: Psi has full column rank at every m >= 4, so t is its column
    count, phi(m)/2 - 1 + omega(m) for composite m and (m - 3)/2 for prime
    m.  (It is the rank of the universal even distribution in another
    guise: Bass, Nagoya Math. J. 27, 1966; Kubert, Bull. SMF 107, 1979;
    Washington, Introduction to Cyclotomic Fields, ch. 8.)  Proof.  Psi =
    P C with P invertible, so rank Psi = rank C.  A claim u is the vector
    c over x_1..x_m' with c_1 = -sum u, and u -> c is onto the sum-zero
    vectors V; so rank C is the dimension of the span, as functionals on
    V, of the columns c -> (c T)_j of `build_check_matrix`.

    * G = (Z/m)^*/+-1 acts on V by permuting the k:
      (b.c)_k = c_(k_red(b^-1 k)).  Its orbits are the f | m with f >= 2:
      orbit f is {k : f_k = f}, a copy of (Z/f)^*/+-1 through k -> a_k.
    * The unit columns span exactly the theta_psi, psi even and
      nontrivial: column b is 2 sum_psi psi(b) theta_psi, theta_1
      vanishes identically (so column 1, left out, is minus the sum of the
      others), and the Fourier matrix of G is invertible.  There are
      |G| - 1 of each.
    * Each theta_psi is an eigenfunctional: theta_psi(b.c) is psi(b)
      theta_psi(c) or psibar(b) theta_psi(c).  It is nonzero: the orbit
      f = f_psi exists (f_psi | m, f_psi >= 3), its Euler product is
      empty, and on c supported there theta_psi is c -> w_f sum c_k
      psibar(a_k), not constant in k as psi is nontrivial mod +-1, so
      nonzero on sum-zero c.  Nonzero eigenfunctionals with distinct
      characters are independent.
    * The tau_p are invariant (trivial character) and independent of each
      other on V.  With two or more primes, c = e_(m/p^v) - e_1,
      v = v_p(m), meets tau_p alone (f = p^v there, and f_1 = m is no
      prime power).  For m = p^n, n >= 2, c = e_p - e_1 gives
      w_p - w_1 != 0, as phi(p^(n-1)) != phi(p^n).  Prime m has no tau.

    So rank C is the number of nontrivial even characters, plus omega(m)
    for composite m: the column count.  Nothing here needs an L-function;
    t as the dimension of the relation space needs L(1, psi) != 0, above.
    """
    return phi_inverse_coeffs(build_check_matrix(m).T).T


class RelationSpace:
    """The S-relation space of modulus m, read from Psi = `s_check_matrix(m)`.

    The S-relations are the left kernel of Psi, which has full column rank
    (`s_check_matrix`), so t is Psi's column count, with nothing computed.
    The trailing values S_(m'-t)..S_(m'-1) are a basis of the span iff the
    trailing t x t block B of Psi is nonsingular (`trailing_ok`): true with
    nothing computed when t = m' - 1, where B is all of Psi; else proven by
    `linalg.certify_nonsingular` where it can, and else settled by the rank
    of `rref(B)`.

    `relations` is the unique RREF of the S-relation space, read from
    rref(Psi[::-1].T), Psi's rows as columns, last row first.  There column
    j stands for S_(m'-1-j), and the pivots pick the t free S-values
    greedily from the right.  A column j without a pivot is a dependent
    S_d, d = m'-1-j: row j of Psi, read from the bottom, is sum_i R_i[j]
    times the rows of the pivots, and R_i[j] is 0 unless pivots[i] < j, so
    S_d - sum_i R_i[j] S_(m'-1-pivots[i]) is a relation that starts at S_d
    and holds no other dependent value.  So the trailing values are a basis
    iff every dependent d is at most m'-1-t; where one is not, the last
    relation lies on trailing values only, a witness s with s B = 0.  The
    flag and `relations` are computed on first use and kept on the
    instance only.
    """

    def __init__(self, m: int):
        self.psi = s_check_matrix(m)

    @property
    def t(self) -> int:
        return self.psi.shape[1]

    @functools.cached_property
    def trailing_ok(self) -> bool:
        if self.t == len(self.psi):
            return True  # B is all of Psi, square and of full column rank
        block = self.psi[-self.t :]
        return certify_nonsingular(block) or rref(block).rank == self.t

    @functools.cached_property
    def relations(self) -> np.ndarray:
        """The relations den S_d - sum_i den R_i[j] S_(m'-1-pivots[i]) as integer rows.

        One row per dependent S_d, d ascending, over the columns
        S_1..S_(m'-1), in an object array of Python ints; den > 0 is the lcm
        of the RREF's denominators, so the first nonzero entry of a row is
        its dependent's, den.  Empty, with no elimination, when t = m' - 1
        (prime m, m = 4, 6 and 9).  An RREF of rank other than t, which the
        theorem of `s_check_matrix` rules out, raises ArithmeticError.
        """
        last = len(self.psi)  # m' - 1
        if self.t == last:
            return np.zeros((0, last), dtype=object)
        ech = rref(self.psi[::-1].T)
        if ech.rank != self.t:
            raise ArithmeticError(f"the character table has rank {ech.rank}, not {self.t}")
        pivots = list(ech.pivots)
        dependent = sorted(set(range(last)) - set(pivots), reverse=True)
        den = math.lcm(*ech.dens)
        nums = np.array(ech.nums, dtype=object)
        nums *= np.array([den // d for d in ech.dens], dtype=object)[:, None]
        # columns reversed, as in the RREF
        rels = np.zeros((len(dependent), last), dtype=object)
        rels[np.arange(len(dependent)), dependent] = den
        rels[:, pivots] = -nums[:, dependent].T
        return rels[:, ::-1]


def identity_u_basis(m: int) -> RelationBasis:
    """Basis of the relation space for any m >= 4, from the even-character table.

    The rows of `RelationSpace(m).relations`, mapped back to U-coordinates
    by `phi_inverse_coeffs` and scaled to coprime integer coefficients.
    They are the RREF of the left kernel of `s_check_matrix(m)`, the
    relation space, so the forms are a basis of it: sound by Kronecker,
    complete as L(1, psi) != 0.
    """
    if m < 4:
        raise ValueError("relation bases need m >= 4")
    forms = []
    for row in phi_inverse_coeffs(RelationSpace(m).relations).tolist():
        g = math.gcd(*row)
        forms.append(LinearForm(U_SPACE, m, tuple(x // g for x in row)))
    return RelationBasis(m, U_SPACE, tuple(forms), "characters")
