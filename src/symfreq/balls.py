"""Certified real arithmetic on integer balls.

A `RealBall` is the interval [lo, hi] / 2^F for integers lo <= hi, the
format in which the integer fixed-point kernels below bound pi, ln 2, sin
and ln (the exact-integer balls of Arb; Johansson, IEEE Trans. Computers
66, 2017).  Its `prec` is the number of bits it is printed at; `mid` and
`rad` are exact Fractions.  Invariant maintained by every operation: the
represented true value lies inside [lo, hi] / 2^F.

Rounding is outward, so no error term is tracked:

* sums, differences, negation, integer multiples and scaling by 2^e are
  exact;
* quotients are computed exactly on the endpoints and rounded to the
  finer scale of the operands, floor for lo and ceil for hi, as is
  division by an int;
* a binary operation's result is printed at the lower precision of its
  operands;
* the asymptotic log-Gamma series is summed term by term in units of
  2^-F and truncated with the classical bound: for real positive argument
  the remainder is no larger than the first omitted term, a whole number
  of units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

MIN_PREC = 64
DEFAULT_GUARD = 40


@dataclass(frozen=True)
class PrecisionContext:
    """Target precision P in bits plus guard bits for internal headroom."""

    prec: int = 256
    guard: int = DEFAULT_GUARD

    def __post_init__(self):
        if self.prec < MIN_PREC:
            raise ValueError(f"precision must be at least {MIN_PREC} bits")
        if self.guard < 0:
            raise ValueError("guard bits must be nonnegative")

    @property
    def wp(self) -> int:
        """Working precision for internal computations."""
        return self.prec + self.guard


@dataclass(frozen=True)
class RealBall:
    """The enclosure [lo, hi] / 2^F of a real number, printed at prec bits."""

    lo: int
    hi: int
    F: int
    prec: int

    def __post_init__(self):
        if self.lo > self.hi or self.F < 0:
            raise ValueError("a ball needs lo <= hi and F >= 0")

    @property
    def mid(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 << self.F)

    @property
    def rad(self) -> Fraction:
        return Fraction(self.hi - self.lo, 2 << self.F)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_positive(self) -> bool:
        """Whether every point of the ball is > 0."""
        return self.lo > 0

    def abs_upper(self) -> Fraction:
        return Fraction(max(-self.lo, self.hi), 1 << self.F)

    def __repr__(self):
        return f"RealBall({float(self.mid)!r} +/- {float(self.rad):.3g}, prec={self.prec})"


def _aligned(a: RealBall, b: RealBall) -> tuple[int, int, int, int, int]:
    """The finer scale F of a and b, and their ends in units of 2^-F."""
    F = max(a.F, b.F)
    sa, sb = F - a.F, F - b.F
    return F, a.lo << sa, a.hi << sa, b.lo << sb, b.hi << sb


def ball_from_fraction(q, prec: int) -> RealBall:
    """The rational (or int) q in units of 2^-prec, rounded outward."""
    q = Fraction(q)
    n = q.numerator << prec
    return RealBall(n // q.denominator, -(-n // q.denominator), prec, prec)


def ball_add(a: RealBall, b: RealBall) -> RealBall:
    F, alo, ahi, blo, bhi = _aligned(a, b)
    return RealBall(alo + blo, ahi + bhi, F, min(a.prec, b.prec))


def ball_sub(a: RealBall, b: RealBall) -> RealBall:
    F, alo, ahi, blo, bhi = _aligned(a, b)
    return RealBall(alo - bhi, ahi - blo, F, min(a.prec, b.prec))


def ball_neg(a: RealBall) -> RealBall:
    return RealBall(-a.hi, -a.lo, a.F, a.prec)


def ball_div(a: RealBall, b: RealBall) -> RealBall:
    if b.lo <= 0 <= b.hi:
        raise ZeroDivisionError("division by a ball containing zero")
    # 2^F (x / 2^a.F) / (y / 2^b.F) = (x 2^(F - a.F + b.F)) / y
    F = max(a.F, b.F)
    shift = F - a.F + b.F
    ends = [(x << shift, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    lo = min(n // d for n, d in ends)
    hi = max(-(-n // d) for n, d in ends)
    return RealBall(lo, hi, F, min(a.prec, b.prec))


def ball_mul_int(a: RealBall, n: int) -> RealBall:
    lo, hi = a.lo * n, a.hi * n
    return RealBall(min(lo, hi), max(lo, hi), a.F, a.prec)


def ball_div_int(a: RealBall, n: int) -> RealBall:
    if n == 0:
        raise ZeroDivisionError("division by zero")
    lo, hi = (a.lo, a.hi) if n > 0 else (a.hi, a.lo)
    return RealBall(lo // n, -(-hi // n), a.F, a.prec)


def ball_mul_fraction(a: RealBall, q) -> RealBall:
    q = Fraction(q)
    return ball_div_int(ball_mul_int(a, q.numerator), q.denominator)


def ball_scale_2exp(a: RealBall, e: int) -> RealBall:
    """a 2^e, exactly: the ends shift for e >= 0, the scale for e < 0."""
    if e >= 0:
        return RealBall(a.lo << e, a.hi << e, a.F, a.prec)
    return RealBall(a.lo, a.hi, a.F - e, a.prec)


# ----------------------------------------------------------------------
# Integer fixed-point kernels
#
# The package's only code for pi, ln 2, sin and ln: the Taylor series of sin
# and the arctan/atanh series of `_arc_sum`.  Each kernel returns integers
# lo <= 2^F v <= hi for its value v, in units of 2^-F where the caller picks
# F: the balls below call them with guard bits, and any other integer bound
# (such as a table of log2|2 sin|) can call them at its own F.

#: Extra fractional bits with which the balls call the kernels.
_KERNEL_GUARD = 16


def _arc_sum(s: int, t: int, F: int, sign: int) -> tuple[int, int]:
    """lo <= 2^F f(s/t) <= hi for integers 0 <= 3s <= t and F >= 4.

    f is arctan for sign = -1 and atanh for sign = 1: the sum of
    sign^n z^(2n+1) / (2n+1), z = s/t.  2^F z^(2n+1) is carried as a floored
    and a ceiled chain, each step multiplying by the floored or ceiled
    2^F z^2 and shifting; the carried error stays under 2 units, as each
    step shrinks it by z^2 + 2^-F < 1/5 and adds under 1 + z, so each term
    is off by under 3 units on either side.  The sum stops once the ceiled
    chain reaches 1, after N <= F / (2 log2(1/z)) + 2 terms; the tail is
    then under 1 unit in size for arctan (alternating, decreasing) and under
    9/8 units for atanh (ratio at most 1/9).  Hence hi - lo < 6N + 3.
    """
    z2 = (s * s) << F
    z2_lo, z2_hi = z2 // (t * t), -(-z2 // (t * t))
    p_lo, p_hi = (s << F) // t, -(-(s << F) // t)
    lo = hi = 0
    k = 1
    while p_hi > 1:
        a, b = p_lo // k, -(-p_hi // k)
        lo, hi = (lo - b, hi - a) if sign < 0 and k & 2 else (lo + a, hi + b)
        p_lo = p_lo * z2_lo >> F
        p_hi = -(-(p_hi * z2_hi) >> F)
        k += 2
    return lo - 1, hi + 2


def _outward(lo: int, hi: int, shift: int) -> tuple[int, int]:
    """Bounds in units of 2^shift times larger, rounded outward; at most 2 apart if hi - lo < 2^shift."""
    return lo >> shift, -(-hi >> shift)


@lru_cache(maxsize=None)
def pi_fixed(F: int) -> tuple[int, int]:
    """lo <= 2^F pi <= hi with hi - lo <= 2.

    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) with g = F.bit_length() + 8
    guard bits: by `_arc_sum` its width is under 23 (F + g) + 300 < 2^g units
    for F >= 2.
    """
    g = F.bit_length() + 8
    a_lo, a_hi = _arc_sum(1, 5, F + g, -1)
    b_lo, b_hi = _arc_sum(1, 239, F + g, -1)
    return _outward(16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo, g)


@lru_cache(maxsize=None)
def ln2_fixed(F: int) -> tuple[int, int]:
    """lo <= 2^F ln 2 <= hi with hi - lo <= 2, from ln 2 = 2 atanh(1/3).

    With g = F.bit_length() + 8 guard bits the width is under 4 (F + g) + 30 < 2^g units.
    """
    g = F.bit_length() + 8
    lo, hi = _arc_sum(1, 3, F + g, 1)
    return _outward(2 * lo, 2 * hi, g)


def ln_fixed(y: int, F: int) -> tuple[int, int]:
    """lo <= 2^F ln(y / 2^F) <= hi with hi - lo <= 2, for integers y >= 1 and F >= 0.

    With 2^e the power of 2 that puts y / 2^e in [2/3, 4/3),
    ln(y / 2^F) = (e - F) ln 2 + 2 atanh(z), z = (y - 2^e) / (y + 2^e), and
    |z| <= 1/5 (Brent, J. ACM 23, 1976).  With M = max(F, |e - F|) and
    g = M.bit_length() + 8 guard bits, twice the atanh sum is under
    2.7 (F + g) + 30 units wide by `_arc_sum` and e - F times ln 2 under 2M,
    so the sum is under 2^g units wide and rounds to at most 2.
    """
    e = y.bit_length() - 1
    if 3 * y >= 4 << e:
        e += 1
    k = e - F
    g = max(F, abs(k)).bit_length() + 8
    lo, hi = _arc_sum(abs(y - (1 << e)), y + (1 << e), F + g, 1)
    if y < 1 << e:
        lo, hi = -hi, -lo
    ln2 = ln2_fixed(F + g)
    return _outward(2 * lo + k * ln2[k < 0], 2 * hi + k * ln2[k >= 0], g)


def sin_fixed(x: int, F: int) -> tuple[int, int]:
    """lo <= 2^F sin(x / 2^F) <= hi, for 0 < x / 2^F < 2.

    The Taylor terms x^k/k! then decrease, so a partial sum of the
    alternating series that ends on a positive term bounds sin from above,
    by at most its last term.  Each term is carried rounded up (hi) and down
    (lo) in units of 2^-F; positive terms enter the sum as hi and negative
    ones as lo, and the sum stops after the first positive term of at most
    one unit.  A carried term is off by under 1.2 units, since each
    rounding adds under one unit to an error that the ratio
    x^2/((k+1)(k+2)) < 1/5 of the later terms shrinks, so 2 units per term
    below that sum is a lower bound.
    """
    hi = lo = x
    x2 = x * x
    shift = 2 * F
    total = 0
    k = 1
    while True:
        if k % 4 == 1:
            total += hi
            if hi <= 1:
                return total - (k + 1), total
        else:
            total -= lo
        step = (k + 1) * (k + 2) << shift
        hi = -(-hi * x2 // step)
        lo = lo * x2 // step
        k += 2


# ----------------------------------------------------------------------
# Constants and elementary functions


def pi_ball(ctx: PrecisionContext) -> RealBall:
    """Enclosure of pi with radius at most 2^-prec."""
    F = ctx.wp + _KERNEL_GUARD
    return RealBall(*pi_fixed(F), F, ctx.prec)


def ln2_ball(ctx: PrecisionContext) -> RealBall:
    """Enclosure of ln 2 with radius at most 2^-wp."""
    F = ctx.wp + _KERNEL_GUARD
    return RealBall(*ln2_fixed(F), F, ctx.prec)


def ln_ball(x: RealBall, prec: int) -> RealBall:
    """ln of a strictly positive ball: `ln_fixed` at lo, and ln hi <= ln lo + (hi - lo) / lo."""
    if not x.is_positive():
        raise ValueError("ln of a ball that is not strictly positive")
    F = max(x.F, prec + _KERNEL_GUARD)
    lo, hi = ln_fixed(x.lo << (F - x.F), F)
    return RealBall(lo, hi - (-((x.hi - x.lo) << F) // x.lo), F, prec)


def sin_pi_rational(a: int, b: int, ctx: PrecisionContext) -> RealBall:
    """Enclosure of sin(pi * a/b) for integers a, b with b > 0.

    The argument is folded exactly in rational arithmetic onto [0, 1/2],
    where sin is increasing, so the kernel's sine at the floor of
    pi_lo * a/b and at the ceiling of pi_hi * a/b bounds it.  Integer
    multiples of pi give the exact zero ball.
    """
    if b <= 0:
        raise ValueError("denominator must be positive")
    x = Fraction(a, b) % 2
    sign = 1
    if x > 1:
        x -= 1
        sign = -1
    if x == 0:
        return ball_from_fraction(0, ctx.prec)
    if x > Fraction(1, 2):
        x = 1 - x
    F = ctx.wp + _KERNEL_GUARD
    one = 1 << F
    p, q = x.numerator, x.denominator
    pi_lo, pi_hi = pi_fixed(F)
    bottom = pi_lo * p // q
    top = -(-pi_hi * p // q)
    lo = sin_fixed(bottom, F)[0] if bottom else 0
    # past pi/2 (possible only for x = 1/2 or q near 2^F) 1 bounds sin
    hi = min(sin_fixed(top, F)[1], one) if 2 * top < pi_lo else one
    res = RealBall(lo, hi, F, ctx.prec)
    return ball_neg(res) if sign < 0 else res


# ----------------------------------------------------------------------
# log-Gamma


@lru_cache(maxsize=None)
def _stirling_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """B_2k / (2k (2k-1)), k = 1..n, as unreduced pairs (+-T_k, 4^k (4^k - 1)(2k - 1)).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for the tangent numbers T_k
    (1, 2, 16, 272, ...), which the all-integer in-place recurrence of Brent
    and Harvey ("Fast computation of Bernoulli, tangent and secant numbers",
    2011) fills in O(n^2) integer steps.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple((t[k] if k % 2 else -t[k], 4**k * (4**k - 1) * (2 * k - 1)) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _ln_2pi_cached(wp: int) -> RealBall:
    return ln_ball(ball_scale_2exp(pi_ball(PrecisionContext(wp, 0)), 1), wp)


def lgamma_ball(a: int, b: int, ctx: PrecisionContext) -> RealBall:
    """Enclosure of ln Gamma(a/b) for a positive rational argument.

    Uses the asymptotic series at the lifted argument w = z + N, with N
    chosen so the series converges to the working precision wp in ~wp/4
    terms.  Each term B_2k / (2k (2k-1) w^(2k-1)) is exact as a rational,
    read from the integer pairs of `_stirling_pairs`, and enters the sum
    floored (lo) and ceiled (hi) in units of 2^-wp.  The sum stops at the
    first term whose magnitude is at most r <= 1 units, and r units on
    either side bound the remainder, since for real positive w it is no
    larger than the first omitted term.
    The lift is removed by one exact-Pochhammer logarithm:
    ln Gamma(z) = ln Gamma(z+N) - ln(z (z+1) ... (z+N-1)).
    """
    z = Fraction(a, b)
    if z <= 0:
        raise ValueError("log-Gamma needs a positive argument")
    wp = ctx.wp + 24
    shift = max(0, wp // 3 + 10 - math.floor(z))
    w = z + shift
    # (w - 1/2) ln w - w + ln(2 pi)/2
    acc = ball_mul_fraction(ln_ball(ball_from_fraction(w, wp), wp), w - Fraction(1, 2))
    acc = ball_sub(acc, ball_from_fraction(w, wp))
    acc = ball_add(acc, ball_scale_2exp(_ln_2pi_cached(wp), -1))
    p, q = w.numerator, w.denominator
    num, den = q << wp, p  # 2^wp w^(1-2k) at k = 1
    lo = hi = 0
    k = 1
    pairs = _stirling_pairs(64)
    while True:
        if k > len(pairs):
            pairs = _stirling_pairs(2 * len(pairs))
        c, e = pairs[k - 1]
        floor, rest = divmod(c * num, e * den)
        r = max(-floor, floor + (rest > 0))  # units above |term|
        if r <= 1:
            break
        lo += floor
        hi += floor + (rest > 0)
        num *= q * q
        den *= p * p
        k += 1
    acc = ball_add(acc, RealBall(lo - r, hi + r, wp, ctx.prec))
    if shift:
        # z (z+1) ... (z+N-1) = prod(p + j q) / q^N, with q = z.denominator
        poch = Fraction(math.prod(range(z.numerator, z.numerator + shift * q, q)), q**shift)
        acc = ball_sub(acc, ln_ball(ball_from_fraction(poch, wp), wp))
    return acc
