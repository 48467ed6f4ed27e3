"""Certified real arithmetic on midpoint-radius balls.

Midpoints live on mpmath floats driven through the exact-input, one-rounding
primitives (mpmath.fadd and friends, with explicit prec/rounding arguments),
so the global mpmath context never matters.  Every rounding step contributes
an explicit ulp bound to the radius, and radius bookkeeping always rounds
upward at a fixed small precision.  Invariant maintained by every operation:
the represented true value lies inside [mid - rad, mid + rad].

Error-bound conventions used below:

* a nearest rounding of value v at precision p satisfies
  |round(v) - v| <= 2^(mag(round(v)) - p), since mpmath.mag overestimates the
  binary magnitude;
* pi, ln 2, sin and log2 come from the integer fixed-point kernels below,
  which bound a value from both sides in units of 2^-F; a ball is built
  exactly from those bounds;
* the exponential series is truncated when the next term's upper bound
  drops below the target, and that bound is added to the radius;
* the asymptotic log-Gamma series is truncated with the classical bound: for
  real positive argument the remainder is no larger than the first omitted
  term.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp

_RAD_PREC = 64  # all radius arithmetic at this precision, rounded up
_ZERO = mpmath.mpf(0)
_ONE = mpmath.mpf(1)

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


def _mpf_from_int(n: int) -> mpmath.mpf:
    return mpmath.mp.make_mpf(libmp.from_int(n))


def _abs_exact(x) -> mpmath.mpf:
    # abs()/unary minus on mpf round to the *global* context precision, so
    # exact raw-tuple versions are used everywhere instead.
    return mpmath.mp.make_mpf(libmp.mpf_abs(x._mpf_))


def _neg_exact(x) -> mpmath.mpf:
    return mpmath.mp.make_mpf(libmp.mpf_neg(x._mpf_))


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact value of a finite mpf as a Fraction."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError("cannot convert a non-finite value")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _mag(x) -> int:
    # Upper bound m with |x| <= 2^m; mpmath.mag may overestimate slightly,
    # which is safe here.
    m = mpmath.mag(x)
    return int(m)


def _round_err(x, prec: int) -> mpmath.mpf:
    """Upper bound for the error of one nearest rounding that produced x."""
    if x == 0:
        return _ZERO
    return mpmath.ldexp(_ONE, _mag(x) - prec)


def _radd(*xs) -> mpmath.mpf:
    acc = _ZERO
    for x in xs:
        if x != 0:
            acc = mpmath.fadd(acc, x, prec=_RAD_PREC, rounding="u")
    return acc


def _rmul(a, b) -> mpmath.mpf:
    # upper bound for |a*b|: away-from-zero rounding never shrinks magnitude
    if a == 0 or b == 0:
        return _ZERO
    return _abs_exact(mpmath.fmul(a, b, prec=_RAD_PREC, rounding="u"))


@dataclass(frozen=True)
class RealBall:
    """Midpoint-radius enclosure of a real number at a stated precision."""

    mid: mpmath.mpf
    rad: mpmath.mpf
    prec: int

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError("negative radius")

    def contains_zero(self) -> bool:
        return _abs_exact(self.mid) <= self.rad

    def is_positive(self) -> bool:
        """Whether every point of the ball is > 0."""
        return self.mid > 0 and mpmath.fsub(self.mid, self.rad, prec=_RAD_PREC, rounding="f") > 0

    def upper(self) -> mpmath.mpf:
        return mpmath.fadd(self.mid, self.rad, prec=_RAD_PREC, rounding="c")

    def lower(self) -> mpmath.mpf:
        return mpmath.fsub(self.mid, self.rad, prec=_RAD_PREC, rounding="f")

    def abs_upper(self) -> mpmath.mpf:
        return mpmath.fadd(_abs_exact(self.mid), self.rad, prec=_RAD_PREC, rounding="u")

    def contains_fraction(self, q) -> bool:
        """Exact membership test for a rational point."""
        q = Fraction(q)
        return abs(mpf_to_fraction(self.mid) - q) <= mpf_to_fraction(self.rad)

    def overlaps(self, other: "RealBall") -> bool:
        gap = mpmath.fsub(self.mid, other.mid, prec=_RAD_PREC, rounding="u")
        return _abs_exact(gap) <= _radd(self.rad, other.rad, _round_err(gap, _RAD_PREC))

    def __repr__(self):
        return f"RealBall({mpmath.nstr(self.mid, 20)} +/- {mpmath.nstr(self.rad, 4)}, prec={self.prec})"


def ball_exact_zero(prec: int) -> RealBall:
    return RealBall(_ZERO, _ZERO, prec)


def ball_from_int(n: int, prec: int) -> RealBall:
    return RealBall(_mpf_from_int(n), _ZERO, prec) if abs(n) < (1 << prec) else ball_from_fraction(Fraction(n), prec)


def ball_from_fraction(q, prec: int) -> RealBall:
    q = Fraction(q)
    mid = mpmath.fdiv(q.numerator, q.denominator, prec=prec, rounding="n")
    rad = _ZERO if mpf_to_fraction(mid) == q else _round_err(mid, prec)
    return RealBall(mid, rad, prec)


def ball_add(a: RealBall, b: RealBall, prec: int) -> RealBall:
    mid = mpmath.fadd(a.mid, b.mid, prec=prec, rounding="n")
    return RealBall(mid, _radd(a.rad, b.rad, _round_err(mid, prec)), prec)


def ball_sub(a: RealBall, b: RealBall, prec: int) -> RealBall:
    mid = mpmath.fsub(a.mid, b.mid, prec=prec, rounding="n")
    return RealBall(mid, _radd(a.rad, b.rad, _round_err(mid, prec)), prec)


def ball_neg(a: RealBall) -> RealBall:
    return RealBall(_neg_exact(a.mid), a.rad, a.prec)


def ball_mul(a: RealBall, b: RealBall, prec: int) -> RealBall:
    mid = mpmath.fmul(a.mid, b.mid, prec=prec, rounding="n")
    rad = _radd(
        _rmul(a.mid, b.rad),
        _rmul(b.mid, a.rad),
        _rmul(a.rad, b.rad),
        _round_err(mid, prec),
    )
    return RealBall(mid, rad, prec)


def ball_div(a: RealBall, b: RealBall, prec: int) -> RealBall:
    babs = _abs_exact(b.mid)
    blo = mpmath.fsub(babs, b.rad, prec=_RAD_PREC, rounding="f")
    if blo <= 0:
        raise ZeroDivisionError("division by a ball containing zero")
    mid = mpmath.fdiv(a.mid, b.mid, prec=prec, rounding="n")
    num = _radd(_rmul(a.mid, b.rad), _rmul(b.mid, a.rad))
    if num != 0:
        den = mpmath.fmul(babs, blo, prec=_RAD_PREC, rounding="d")
        prop = mpmath.fdiv(num, den, prec=_RAD_PREC, rounding="u")
    else:
        prop = _ZERO
    return RealBall(mid, _radd(prop, _round_err(mid, prec)), prec)


def ball_mul_int(a: RealBall, n: int, prec: int) -> RealBall:
    if n == 0:
        return ball_exact_zero(prec)
    mid = mpmath.fmul(a.mid, n, prec=prec, rounding="n")
    return RealBall(mid, _radd(_rmul(a.rad, n), _round_err(mid, prec)), prec)


def ball_div_int(a: RealBall, n: int, prec: int) -> RealBall:
    if n == 0:
        raise ZeroDivisionError("division by zero")
    mid = mpmath.fdiv(a.mid, n, prec=prec, rounding="n")
    rad = mpmath.fdiv(a.rad, abs(n), prec=_RAD_PREC, rounding="u") if a.rad != 0 else _ZERO
    return RealBall(mid, _radd(rad, _round_err(mid, prec)), prec)


def ball_scale_2exp(a: RealBall, e: int) -> RealBall:
    return RealBall(mpmath.ldexp(a.mid, e), mpmath.ldexp(a.rad, e), a.prec)


def ball_mul_fraction(a: RealBall, q, prec: int) -> RealBall:
    q = Fraction(q)
    if q == 0:
        return ball_exact_zero(prec)
    if q.denominator == 1:
        return ball_mul_int(a, q.numerator, prec)
    return ball_div_int(ball_mul_int(a, q.numerator, prec + 8), q.denominator, prec)


def ball_inflate(a: RealBall, extra) -> RealBall:
    return RealBall(a.mid, _radd(a.rad, extra), a.prec)


def _restamp(a: RealBall, prec: int) -> RealBall:
    return RealBall(a.mid, a.rad, prec)


# ----------------------------------------------------------------------
# Integer fixed-point kernels
#
# The package's only code for pi, ln 2, sin and log2.  Each kernel returns
# integers lo <= 2^F v <= hi for its value v, in units of 2^-F where the
# caller picks F: the balls below call them with guard bits, and any other
# integer bound (such as a table of log2|2 sin|) can call them at its own F.

#: Extra fractional bits with which the balls call the kernels.
_KERNEL_GUARD = 16


def _arc_sum(k: int, F: int, sign: int) -> tuple[int, int]:
    """S and N with |S - 2^F f(1/k)| < N + 2, for an integer k >= 3.

    f is arctan for sign = -1 and atanh for sign = 1, summed as
    sum_i sign^i / ((2i+1) k^(2i+1)) in floored terms until one is zero,
    N terms in all.  Each floor loses under one unit, and the tail after a
    term below one unit is below 9/8 units: alternating and decreasing for
    arctan, geometric with ratio at most 1/9 for atanh.
    """
    total = 0
    n = 0
    den = k
    while True:
        term = (1 << F) // ((2 * n + 1) * den)
        if not term:
            return total, n
        total += -term if sign < 0 and n & 1 else term
        den *= k * k
        n += 1


def _outward(lo: int, hi: int, shift: int) -> tuple[int, int]:
    """Bounds in units of 2^shift times larger, rounded outward."""
    return lo >> shift, -(-hi >> shift)


@lru_cache(maxsize=None)
def pi_fixed(F: int) -> tuple[int, int]:
    """lo <= 2^F pi <= hi with hi - lo <= 2.

    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239), summed with g guard
    bits: the error there, about 3.5 (F + g) units, is under 2^(g-1), so
    the outward rounding to F bits leaves a width of at most 2.
    """
    g = F.bit_length() + 8
    a, na = _arc_sum(5, F + g, -1)
    b, nb = _arc_sum(239, F + g, -1)
    mid, err = 16 * a - 4 * b, 16 * (na + 2) + 4 * (nb + 2)
    return _outward(mid - err, mid + err, g)


@lru_cache(maxsize=None)
def ln2_fixed(F: int) -> tuple[int, int]:
    """lo <= 2^F ln 2 <= hi with hi - lo <= 2, from ln 2 = 2 atanh(1/3)."""
    g = F.bit_length() + 8
    a, n = _arc_sum(3, F + g, 1)
    return _outward(2 * (a - n - 2), 2 * (a + n + 2), g)


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


def log2_fixed(y: int, F: int, bits: int) -> tuple[int, int]:
    """lo <= 2^bits log2(y / 2^F) <= hi = lo + 2, for integers y >= 1 and F >= bits + 3.

    By repeated squaring: with y / 2^F = 2^e x and x in [1, 2), each
    squaring of x yields the next binary digit of log2 x.  Every rounding
    is upward, which keeps e + (digits + log2 x) / 2^k an upper bound, and
    x <= 2 throughout, so adding one unit at the end covers the digits not
    taken.  The roundings, each at most log2(1 + 2^-F) on a digit of weight
    2^-k, raise that bound by under 4 2^-F in all, half a unit of 2^-bits,
    so 2 units below hi is a lower bound.
    """
    e = y.bit_length() - 1 - F
    x = y << -e if e < 0 else -(-y >> e)
    two = 2 << F
    digits = 0
    for _ in range(bits):
        x = -(-(x * x) >> F)
        digits <<= 1
        if x >= two:
            x = -(-x >> 1)
            digits |= 1
    hi = (e << bits) + digits + 1
    return hi - 2, hi


def _ball_from_fixed(lo: int, hi: int, F: int, prec: int) -> RealBall:
    """The ball [lo, hi] / 2^F, exactly."""
    return RealBall(
        mpmath.mp.make_mpf(libmp.from_man_exp(lo + hi, -F - 1)),
        mpmath.mp.make_mpf(libmp.from_man_exp(hi - lo, -F - 1)),
        prec,
    )


def _log2_bounds(x: RealBall, bits: int) -> tuple[int, int]:
    """lo <= 2^bits log2 v <= hi for every v in a strictly positive ball.

    The ends of the ball, rounded outward to F = bits + 3 bits, are
    man 2^exp, and log2(man 2^exp) = log2(man / 2^F) + F + exp.
    """
    F = bits + 3
    _, man, exp, _ = libmp.mpf_sub(x.mid._mpf_, x.rad._mpf_, F, libmp.round_floor)
    lo = log2_fixed(man, F, bits)[0] + ((F + exp) << bits)
    _, man, exp, _ = libmp.mpf_add(x.mid._mpf_, x.rad._mpf_, F, libmp.round_ceiling)
    hi = log2_fixed(man, F, bits)[1] + ((F + exp) << bits)
    return lo, hi


# ----------------------------------------------------------------------
# Constants and elementary functions


def pi_ball(ctx: PrecisionContext) -> RealBall:
    """Enclosure of pi with radius at most 2^-prec."""
    F = ctx.wp + _KERNEL_GUARD
    return _ball_from_fixed(*pi_fixed(F), F, ctx.prec)


def _ln2_cached(wp: int) -> RealBall:
    """Enclosure of ln 2 with radius at most 2^-wp."""
    F = wp + _KERNEL_GUARD
    return _ball_from_fixed(*ln2_fixed(F), F, wp)


def ln_ball(x: RealBall, prec: int) -> RealBall:
    """Natural logarithm of a strictly positive ball, as ln 2 log2."""
    if not x.is_positive():
        raise ValueError("ln of a ball that is not strictly positive")
    bits = prec + _KERNEL_GUARD
    lo, hi = _log2_bounds(x, bits)
    # ln 2 carries as many bits as log2 x, so the products lose under a unit
    F = max(bits, max(-lo, hi).bit_length() + 2)
    ln2_lo, ln2_hi = ln2_fixed(F)
    lo *= ln2_hi if lo < 0 else ln2_lo
    hi *= ln2_lo if hi < 0 else ln2_hi
    return _ball_from_fixed(*_outward(lo, hi, F), bits, prec)


def log2_ball(x: RealBall, ctx: PrecisionContext) -> RealBall:
    """Base-2 logarithm of a strictly positive ball."""
    if not x.is_positive():
        raise ValueError("log2 of a ball that is not strictly positive")
    bits = ctx.wp + _KERNEL_GUARD
    return _ball_from_fixed(*_log2_bounds(x, bits), bits, ctx.prec)


def log2_of_fraction(q, ctx: PrecisionContext) -> RealBall:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of a nonpositive rational")
    return log2_ball(ball_from_fraction(q, ctx.wp), ctx)


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
        return ball_exact_zero(ctx.prec)
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
    res = _ball_from_fixed(lo, hi, F, ctx.prec)
    return ball_neg(res) if sign < 0 else res


# ----------------------------------------------------------------------
# log-Gamma


_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < len(_BERNOULLI):
        return _BERNOULLI[n]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= n:
            k = len(_BERNOULLI)
            acc = Fraction(0)
            for j in range(k):
                acc += math.comb(k + 1, j) * _BERNOULLI[j]
            _BERNOULLI.append(-acc / (k + 1))
    return _BERNOULLI[n]


@lru_cache(maxsize=None)
def _ln_2pi_cached(wp: int) -> RealBall:
    return ln_ball(ball_scale_2exp(pi_ball(PrecisionContext(wp, 0)), 1), wp)


def lgamma_ball(a: int, b: int, ctx: PrecisionContext) -> RealBall:
    """Enclosure of ln Gamma(a/b) for a positive rational argument.

    Uses the asymptotic series at the lifted argument w = z + N, with N
    chosen so the series converges to the working precision in ~wp/4 terms;
    the remainder is bounded by the first omitted term (valid for real
    positive w).  The lift is removed by one exact-Pochhammer logarithm:
    ln Gamma(z) = ln Gamma(z+N) - ln(z (z+1) ... (z+N-1)).
    """
    z = Fraction(a, b)
    if z <= 0:
        raise ValueError("log-Gamma needs a positive argument")
    wp = ctx.wp + 24
    shift = max(0, wp // 3 + 10 - math.floor(z))
    w = z + shift
    lnw = ln_ball(ball_from_fraction(w, wp), wp)
    # (w - 1/2) ln w - w + ln(2 pi)/2
    acc = ball_mul(ball_from_fraction(w - Fraction(1, 2), wp), lnw, wp)
    acc = ball_sub(acc, ball_from_fraction(w, wp), wp)
    acc = ball_add(acc, ball_scale_2exp(_ln_2pi_cached(wp), -1), wp)
    winv2 = Fraction(1) / (w * w)
    t = ball_from_fraction(Fraction(1) / w, wp)  # w^(1-2k) at k = 1
    k = 1
    target = mpmath.ldexp(_ONE, -wp)
    while True:
        coeff = bernoulli_number(2 * k) / ((2 * k) * (2 * k - 1))
        acc = ball_add(acc, ball_mul_fraction(t, coeff, wp), wp)
        t = ball_mul_fraction(t, winv2, wp)
        k += 1
        nxt = bernoulli_number(2 * k) / ((2 * k) * (2 * k - 1))
        bound = _rmul(t.abs_upper(), mpmath.fdiv(abs(nxt.numerator), nxt.denominator, prec=_RAD_PREC, rounding="u"))
        if bound <= target:
            acc = ball_inflate(acc, bound)
            break
    if shift:
        poch = Fraction(1)
        for j in range(shift):
            poch *= z + j
        acc = ball_sub(acc, ln_ball(ball_from_fraction(poch, wp), wp), wp)
    return _restamp(acc, ctx.prec)
