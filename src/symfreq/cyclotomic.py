"""The exact multiplicative certificate for relations among log-sine values.

A claimed linear relation sum(c_k * log2(sin(pi*k/m)/sin(pi/m))) = 0 holds
exactly if and only if the matching product of sine ratios equals 1.  Each
ratio is an element of the cyclotomic field of conductor 2m:

    sin(pi*k/m)/sin(pi/m) = z^(1-k) * (1 - z^(2k)) / (1 - z^2),   z = zeta_2m,

so after clearing denominators the whole check is an equality A = B between
a root of unity times a product of factors 1 - z^c and another such product
in Z[z].  `verify_u_relation` is the one entry point.  The equality is
decided by evaluation at split primes: for a prime p = 1 (mod 2m) and an
element w of order 2m in F_p, each map z -> w^j with j a unit mod 2m is a
ring homomorphism Z[z] -> F_p.  A mismatch at one of them disproves the
claim.  Agreement at all of them, over primes whose product P exceeds
2^bits, proves it once bits bounds the mean over the complex embeddings
sigma of log2|sigma(A - B)|: a nonzero A - B in PZ[z] would have a norm of
at least P^phi(2m), too large for that mean.  The bound comes from a cached
table of log2|2 sin(pi r/2m)| in integer fixed point, rounded up, and is
only computed once the first prime agrees, so a rejection never pays for
it.  No floating point is involved.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .balls import log2_fixed, pi_fixed, sin_fixed
from .intmath import divisors, factorize, is_prime
from .linalg import LinearForm, U_SPACE

# ----------------------------------------------------------------------
# Integer polynomials and the cyclotomic polynomial


def _intpoly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, denominator monic-leading or not;
    # used only where divisibility is guaranteed.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    if any(num[:dd]):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, lowest degree first."""
    if M < 1:
        raise ValueError("conductor must be positive")
    if M == 1:
        return (-1, 1)
    poly = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in divisors(M):
        if d < M:
            poly = _intpoly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


# ----------------------------------------------------------------------
# Product identities by evaluation at split primes

#: Split primes lie in (2^61, 2^62), so each fits in one machine word.
PRIME_BITS = 62

# conductor n -> [(p, w), ...], the split primes found so far, descending
_SPLIT_PRIMES: dict[int, list[tuple[int, int]]] = {}


def _root_of_unity(n: int, p: int) -> int:
    """An element of exact multiplicative order n in F_p, for a prime p = 1 (mod n)."""
    cofactor = (p - 1) // n
    for x in range(2, p):
        w = pow(x, cofactor, p)
        if all(pow(w, n // q, p) != 1 for q, _ in factorize(n)):
            return w
    raise ArithmeticError(f"no element of order {n} mod {p}")


def split_primes(n: int, bits: int) -> list[tuple[int, int]]:
    """Pairs (p, w) with p = 1 (mod n) prime and w of exact order n mod p.

    The primes are the largest below 2^62 in that residue class, each proven
    prime by `is_prime`; enough are returned that their product exceeds
    2^bits.  Such a p splits completely in Q(zeta_n) (Washington, ch. 2): the
    prime ideals above it are the kernels of z -> w^j, Z[zeta_n] -> F_p, one
    for each j in (Z/n)^*.  The pairs are cached per conductor.
    """
    count = max(1, -(-bits // (PRIME_BITS - 1)))  # each prime exceeds 2^61
    primes = _SPLIT_PRIMES.setdefault(n, [])
    p = primes[-1][0] - n if primes else ((1 << PRIME_BITS) - 2) // n * n + 1
    while len(primes) < count:
        if p <= 1 << (PRIME_BITS - 1):
            raise ArithmeticError(f"too few split primes for conductor {n}")
        if is_prime(p):
            primes.append((p, _root_of_unity(n, p)))
        p -= n
    return primes[:count]


# ----------------------------------------------------------------------
# The per-embedding norm bound

#: Entries of the log-sine table are in units of 2^-LOG_UNIT_BITS bits.
LOG_UNIT_BITS = 20


@lru_cache(maxsize=None)
def _log_sine_table(n: int) -> tuple[int, ...]:
    """T with T[r] >= 2^20 log2|2 sin(pi r/n)| for r = 1..n-1, and T[0] = 0.

    Under every embedding z -> zeta_n^j, |1 - z^c| = |2 sin(pi c j/n)|, so
    T[c j mod n] bounds its log2 from above; T[0] is a placeholder that the
    certificate never reads.  The `balls` kernels compute it in units of
    2^-64.  Folded to r <= n/2, pi r/n lies in (0, pi/2]; its upper bound
    X = ceil(pi_hi r/n) / 2^64 exceeds it by under 2^-62, far less than the
    gap pi/(2n) to pi/2 when 2r < n, so sin(X) >= sin(pi r/n) there.
    """
    one = 1 << 64
    pi_hi = pi_fixed(64)[1]
    half = [0]
    for r in range(1, n // 2 + 1):
        s = one if 2 * r == n else min(sin_fixed(-(-pi_hi * r // n), 64)[1], one)
        half.append(log2_fixed(2 * s, 64, LOG_UNIT_BITS)[1])
    return tuple(half + half[(n - 1) // 2 : 0 : -1])


def _norm_bits(n: int, left, right, units) -> int:
    """ceil of the mean over j in `units` of 1 + max(a_j, b_j).

    a_j and b_j are the table's upper bounds on log2|sigma_j(prod left)| and
    log2|sigma_j(prod right)|, sigma_j: z -> zeta_n^j, so for the difference
    D of the two sides (a root of unity times `left`, minus `right`)
    log2|sigma_j(D)| <= 1 + max(a_j, b_j).
    """
    table = _log_sine_table(n)
    total = sum(
        max(sum(e * table[c * j % n] for c, e in side) for side in (left, right))
        for j in units
    )
    return 1 - (-total // (len(units) << LOG_UNIT_BITS))


def _products_agree(n: int, twist: int, left, right, units) -> bool:
    """Whether z^twist * prod(left) = prod(right) in Z[z], z = zeta_n.

    `left` and `right` hold (c, e) for factors (1 - z^c)^e with e > 0, and
    `units` holds one j of each pair {j, -j} of units mod n, chosen so that
    complex conjugation maps the difference D of the two sides to a root of
    unity times D (see `verify_u_relation`).  Both sides are evaluated at
    z -> w^j mod p for each j in `units` and each split prime p.  A mismatch
    at one root proves D nonzero.  Agreement at every j of a prime p puts D
    in every prime ideal above p, since D vanishes at w^j iff it vanishes at
    w^(-j), hence in pZ[z]; over primes whose product P exceeds 2^bits, D
    lies in PZ[z], so a nonzero D would have |N(D)| >= P^phi(n) >
    2^(bits phi(n)).  Here bits is the smaller of two bounds on the mean of
    log2|sigma(D)| over the embeddings sigma, each of which caps
    |N(D)| = prod |sigma(D)| at 2^(bits phi(n)): M + 1, as every factor has
    absolute value at most 2 (M = max(sum of left e, sum of right e)), and
    `_norm_bits`, the same mean taken factor by factor from the log-sine
    table; the mean over `units` is the mean over all embeddings, since
    |sigma_(-j)(x)| = |sigma_j(x)| for every x.  So D = 0.  The table bound
    is computed only after the first prime agrees; for a true relation it is
    usually below the 61 bits of that prime.
    """

    def agree(p: int, w: int) -> bool:
        powers = [1] * n
        for i in range(1, n):
            powers[i] = powers[i - 1] * w % p
        for j in units:
            lhs = powers[twist * j % n]
            for c, e in left:
                lhs = lhs * pow(1 - powers[c * j % n], e, p) % p
            rhs = 1
            for c, e in right:
                rhs = rhs * pow(1 - powers[c * j % n], e, p) % p
            if lhs != rhs:
                return False
        return True

    if not agree(*split_primes(n, 1)[0]):
        return False
    mass = max(sum(e for _, e in left), sum(e for _, e in right))
    bits = min(mass + 1, _norm_bits(n, left, right, units))
    return all(agree(p, w) for p, w in split_primes(n, bits)[1:])


# ----------------------------------------------------------------------
# Relation certificates


def scaled_exponents(form: LinearForm) -> tuple[int, dict[int, int]]:
    """Clear denominators of a form: (lcm L, {index: integer coefficient})."""
    items = form.items()
    scale = lcm(*(c.denominator for _, c in items)) if items else 1
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in items}


def verify_u_relation(m: int, form: LinearForm) -> bool:
    """Exact certificate for a claimed relation among the m-modulus log-sine values.

    The coefficients are scaled by the lcm of their denominators to integers
    e_k; the relation holds iff prod_k ratio_k^(e_k) = 1.  With z = zeta_2m,
    n = 2m, S = sum e_k and ratio_k = z^(1-k) (1 - z^(2k)) / (1 - z^2), that
    is the identity A = B between

        A = z^(sum e_k (1-k)) * prod_{e_k>0} (1 - z^(2k))^(e_k) * (1 - z^2)^max(-S, 0),
        B = prod_{e_k<0} (1 - z^(2k))^(-e_k) * (1 - z^2)^max(S, 0),

    each a product of M = max(sum of positive e_k, sum of |negative e_k|)
    factors 1 - z^c, c = 2k with 1 <= k <= m/2, times a root of unity.  No
    factor vanishes under an embedding z -> zeta_n^j: c j = 0 (mod n) would
    make m divide k j, hence k, as j is a unit.  The identity is decided
    exactly at split primes (see `_products_agree`).  Under z -> zeta_n^j
    the factor 1 - z^(2k) has absolute value |2 sin(2 pi k j/n)|, so the
    primes needed follow the mean over j of the larger side's log2 absolute
    value (log2|N(A)|/phi(n) for a true relation) rather than M: one prime
    for most claims.  Only the j in (Z/n)^* with j < m are checked.  That
    suffices because A/B is real: up to one root of unity common to A and
    B, both are products of M binomials z^(1-k) - z^(1+k) and 1 - z^2, each
    z^a - z^b with a + b = 2 (mod n), which complex conjugation sends to
    -z^(-2) times itself.  So conjugation maps A - B to a root of unity
    times A - B.  Returns True iff the relation is exactly valid.
    """
    if form.space != U_SPACE:
        raise ValueError("verify_u_relation expects a U-space form")
    if form.m != m:
        raise ValueError(f"form has modulus {form.m}, expected {m}")
    n = 2 * m
    _, exps = scaled_exponents(form)
    if not exps:
        return True
    twist = sum(e * (1 - k) for k, e in exps.items()) % n
    total = sum(exps.values())
    left = [(2 * k, e) for k, e in exps.items() if e > 0]
    right = [(2 * k, -e) for k, e in exps.items() if e < 0]
    if total < 0:
        left.append((2, -total))
    elif total > 0:
        right.append((2, total))
    units = [j for j in range(1, m) if gcd(j, n) == 1]
    return _products_agree(n, twist, left, right, units)
