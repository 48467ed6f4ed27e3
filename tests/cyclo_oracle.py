"""Dense arithmetic in Q(zeta_M), the independent oracle for the certificate.

`symfreq.cyclotomic` decides a claimed relation by one integer product,
u C = 0, against its closed-form character table; it never multiplies in
the field.  This module computes products of cyclotomic elements coordinate
by coordinate over the power basis 1, z, ..., z^(phi(M)-1), with `Fraction`
entries and reduction modulo the cyclotomic polynomial, so the tests can
check the certificate's verdicts on the product itself and embed elements
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from symfreq.cyclotomic import cyclotomic_poly
from symfreq.intmath import euler_phi

#: Dense products cost O(phi(M)^2) per multiplication; larger fields are refused.
MAX_DEGREE = 4096


def _check_degree(M: int):
    if euler_phi(M) > MAX_DEGREE:
        raise ValueError(f"phi({M}) = {euler_phi(M)} exceeds the oracle's degree bound {MAX_DEGREE}")


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


def embed_complex(elem: CycloElement, prec: int = 64):
    """Numeric embedding z -> exp(2*pi*i/M)."""
    with mpmath.workprec(prec + 10):
        z = mpmath.expjpi(mpmath.mpf(2) / elem.conductor)
        acc = mpmath.mpc(0)
        for c in reversed(elem.coeffs):
            acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
        return acc
