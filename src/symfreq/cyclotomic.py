"""Exact cyclotomic arithmetic and the multiplicative certificate engine.

A claimed linear relation sum(c_k * log2(sin(pi*k/m)/sin(pi/m))) = 0 holds
exactly if and only if the matching product of sine ratios equals 1.  Each
ratio is an element of the cyclotomic field of conductor 2m:

    sin(pi*k/m)/sin(pi/m) = z^(1-k) * (1 - z^(2k)) / (1 - z^2),   z = zeta_2m,

so after clearing denominators the whole check is an equality A = B between
two products of binomials z^a - z^b in Z[z].  It is decided by evaluation at
split primes: for a prime p = 1 (mod 2m) and an element w of order 2m in
F_p, each map z -> w^j with j a unit mod 2m is a ring homomorphism
Z[z] -> F_p.  A mismatch at one of them disproves the claim; agreement at
all of them, over primes whose product exceeds the bound 2^(M+1) on
|A - B| under every complex embedding, proves it (M is the number of
binomials on either side), because a nonzero A - B would then have a norm
too large for its absolute value.  No floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intmath import divisors, euler_phi, factorize, is_prime
from .linalg import LinearForm, U_SPACE

#: Refuse conductors whose cyclotomic polynomial degree exceeds this bound.
DEGREE_BOUND = 4096


class CyclotomicDegreeError(ValueError):
    """Raised when a certificate would need a cyclotomic field of excessive degree."""


def _check_degree(n: int):
    if euler_phi(n) > DEGREE_BOUND:
        raise CyclotomicDegreeError(
            f"phi({n}) = {euler_phi(n)} exceeds the degree bound {DEGREE_BOUND}"
        )


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


def _reduce_mod_cyclotomic(coeffs: list, M: int) -> list:
    """In-place remainder of a coefficient list modulo Phi_M (monic)."""
    phi = cyclotomic_poly(M)
    deg = len(phi) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            base = i - deg
            for j in range(deg):
                if phi[j]:
                    coeffs[base + j] -= c * phi[j]
    del coeffs[deg:]
    while len(coeffs) < deg:
        coeffs.append(0)
    return coeffs


# ----------------------------------------------------------------------
# Field elements


@dataclass(frozen=True)
class CycloElement:
    """Element of Q(zeta_M) as rational coordinates over 1, z, ..., z^(phi(M)-1)."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        deg = euler_phi(self.conductor)
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need exactly {deg} coordinates at conductor {self.conductor}")
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def cyclo_element(M: int, coeffs) -> CycloElement:
    """Build an element from coefficients of any degree, reducing mod Phi_M."""
    vec = [Fraction(c) for c in coeffs]
    _reduce_mod_cyclotomic(vec, M)
    return CycloElement(M, tuple(vec))


def cyclo_zero(M: int) -> CycloElement:
    return CycloElement(M, (Fraction(0),) * euler_phi(M))


def cyclo_one(M: int) -> CycloElement:
    return cyclo_element(M, [1])


def zeta(M: int, e: int = 1) -> CycloElement:
    """zeta_M^e as a field element."""
    e %= M
    return cyclo_element(M, [0] * e + [1])


def cyclo_add(a: CycloElement, b: CycloElement) -> CycloElement:
    _same_conductor(a, b)
    return CycloElement(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyclo_sub(a: CycloElement, b: CycloElement) -> CycloElement:
    _same_conductor(a, b)
    return CycloElement(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def cyclo_neg(a: CycloElement) -> CycloElement:
    return CycloElement(a.conductor, tuple(-x for x in a.coeffs))


def cyclo_mul(a: CycloElement, b: CycloElement) -> CycloElement:
    _same_conductor(a, b)
    n = len(a.coeffs)
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            if y != 0:
                prod[i + j] += x * y
    return cyclo_element(a.conductor, prod)


def cyclo_pow(a: CycloElement, e: int) -> CycloElement:
    if e < 0:
        raise ValueError("negative exponents are not supported; use CycloFraction")
    result = cyclo_one(a.conductor)
    base = a
    while e:
        if e & 1:
            result = cyclo_mul(result, base)
        base = cyclo_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def _same_conductor(a: CycloElement, b: CycloElement):
    if a.conductor != b.conductor:
        raise ValueError(f"conductor mismatch: {a.conductor} vs {b.conductor}")


@dataclass(frozen=True)
class CycloFraction:
    """Formal quotient num/den of field elements; never actually divided.

    Comparisons and certificates cross-multiply, so no inverse mod Phi_M is
    ever computed.
    """

    num: CycloElement
    den: CycloElement

    def __post_init__(self):
        _same_conductor(self.num, self.den)
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator in CycloFraction")

    @property
    def conductor(self) -> int:
        return self.num.conductor


def sine_ratio_elem(m: int, k: int) -> CycloFraction:
    """The ratio sin(pi*k/m)/sin(pi/m) as a fraction in Q(zeta_2m).

    num = zeta_2m^((1-k) mod 2m) * (1 - zeta_2m^(2k)),  den = 1 - zeta_2m^2.
    The represented complex number is real and positive for 1 <= k <= m//2.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if not 1 <= k <= m // 2:
        raise ValueError(f"index k={k} out of range 1..{m // 2}")
    n = 2 * m
    _check_degree(n)
    a = (1 - k) % n
    num = cyclo_mul(zeta(n, a), cyclo_sub(cyclo_one(n), zeta(n, 2 * k)))
    den = cyclo_sub(cyclo_one(n), zeta(n, 2))
    return CycloFraction(num, den)


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


def _products_agree(n: int, twist: int, left, right, units) -> bool:
    """Whether z^twist * prod(left) = prod(right) in Z[z], z = zeta_n.

    `left` and `right` hold (a, b, e) for factors (z^a - z^b)^e with e >= 0.
    Both sides are evaluated at z -> w^j mod p for each j in `units` and each
    split prime p, with non-negative exponents only.  Each factor has
    absolute value at most 2 under every complex embedding, so with
    M = max(sum of left e, sum of right e) the difference D of the two sides
    satisfies |N(D)| <= 2^((M+1)phi(n)).  A mismatch at one root proves
    D != 0.  Agreement at every j of a prime p puts D in every prime ideal
    above p, hence in pZ[z]; over primes whose product P exceeds 2^(M+1),
    D lies in PZ[z], so a nonzero D would have |N(D)| >= P^phi(n), which is
    too large: D = 0.  `units` is all of (Z/n)^*, or one j of each pair
    {j, -j} when complex conjugation maps D to a root of unity times D: then
    D vanishes at w^j iff it vanishes at w^(-j).
    """
    left = list(left)
    right = list(right)
    mass = max(sum(e for *_, e in left), sum(e for *_, e in right))
    for p, w in split_primes(n, mass + 1):
        powers = [1] * n
        for i in range(1, n):
            powers[i] = powers[i - 1] * w % p
        for j in units:
            lhs = powers[twist * j % n]
            for a, b, e in left:
                lhs = lhs * pow(powers[a * j % n] - powers[b * j % n], e, p) % p
            rhs = 1
            for a, b, e in right:
                rhs = rhs * pow(powers[a * j % n] - powers[b * j % n], e, p) % p
            if lhs != rhs:
                return False
    return True


def binomial_products_equal(n: int, left, right) -> bool:
    """Whether two products of (zeta_n^a - zeta_n^b)^e factors coincide in Q(zeta_n).

    `left` and `right` are iterables of (a, b, e) with e >= 0.  The check is
    exact: both sides are compared at all phi(n) primitive n-th roots of
    unity modulo split primes whose product exceeds the norm bound (see
    `_products_agree`).
    """
    _check_degree(n)
    units = [j for j in range(n) if gcd(j, n) == 1]
    return _products_agree(n, 0, left, right, units)


def signed_products_equal(n: int, lhs, rhs) -> bool:
    """Like binomial_products_equal, but exponents may be negative.

    Negative exponents are moved to the opposite side before the
    cross-multiplied comparison, so the statement prod(lhs) = prod(rhs) is
    checked as an identity between two genuine products.
    """
    left: list[tuple[int, int, int]] = []
    right: list[tuple[int, int, int]] = []
    for factors, same, other in ((lhs, left, right), (rhs, right, left)):
        for a, b, e in factors:
            (same if e >= 0 else other).append((a, b, abs(e)))
    return binomial_products_equal(n, left, right)


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
    binomials times a root of unity.  It is decided exactly at split primes
    (see `_products_agree`), at the j in (Z/n)^* with j < m only.  That
    suffices because A/B is real: up to one root of unity common to A and B,
    both are products of M binomials z^(1-k) - z^(1+k) and 1 - z^2, each
    z^a - z^b with a + b = 2 (mod n), which complex conjugation sends to
    -z^(-2) times itself.  So conjugation maps A - B to a root of unity times
    A - B, and A - B vanishes at w^j iff it vanishes at w^(-j).  Returns True
    iff the relation is exactly valid.
    """
    if form.space != U_SPACE:
        raise ValueError("verify_u_relation expects a U-space form")
    if form.m != m:
        raise ValueError(f"form has modulus {form.m}, expected {m}")
    n = 2 * m
    _check_degree(n)
    _, exps = scaled_exponents(form)
    if not exps:
        return True
    twist = sum(e * (1 - k) for k, e in exps.items()) % n
    total = sum(exps.values())
    left = [(0, 2 * k % n, e) for k, e in exps.items() if e > 0]
    right = [(0, 2 * k % n, -e) for k, e in exps.items() if e < 0]
    if total < 0:
        left.append((0, 2, -total))
    elif total > 0:
        right.append((0, 2, total))
    units = [j for j in range(1, m) if gcd(j, n) == 1]
    return _products_agree(n, twist, left, right, units)


def embed_complex(elem: CycloElement, prec: int = 64):
    """Numeric embedding z -> exp(2*pi*i/M), for tests and diagnostics."""
    import mpmath

    with mpmath.workprec(prec + 10):
        z = mpmath.expjpi(mpmath.mpf(2) / elem.conductor)
        acc = mpmath.mpc(0)
        for c in reversed(elem.coeffs):
            acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
        return acc
