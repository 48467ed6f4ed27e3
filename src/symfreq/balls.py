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
* alternating/dominated series are truncated when the next term's upper bound
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

    def is_negative(self) -> bool:
        return self.mid < 0 and mpmath.fadd(self.mid, self.rad, prec=_RAD_PREC, rounding="c") < 0

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
# Constants


def _atan_recip_ball(k: int, wp: int) -> RealBall:
    # arctan(1/k) for integer k >= 2 by the alternating series
    # sum_i (-1)^i / ((2i+1) k^(2i+1)); remainder bounded by the next term.
    acc = ball_exact_zero(wp)
    kk = k * k
    den = k
    i = 0
    target = mpmath.ldexp(_ONE, -(wp + 6))
    while True:
        term = mpmath.fdiv(1, den * (2 * i + 1), prec=wp, rounding="n")
        if term <= target:
            return ball_inflate(acc, _radd(term, _round_err(term, wp)))
        t = RealBall(term, _round_err(term, wp), wp)
        acc = ball_sub(acc, t, wp) if i & 1 else ball_add(acc, t, wp)
        den *= kk
        i += 1


@lru_cache(maxsize=None)
def _pi_cached(wp: int) -> RealBall:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239).
    a = _atan_recip_ball(5, wp + 10)
    b = _atan_recip_ball(239, wp + 10)
    return _restamp(ball_sub(ball_scale_2exp(a, 4), ball_scale_2exp(b, 2), wp + 10), wp)


def pi_ball(ctx: PrecisionContext) -> RealBall:
    """Enclosure of pi with radius at most 2^-prec."""
    return _restamp(_pi_cached(ctx.wp), ctx.prec)


@lru_cache(maxsize=None)
def _ln2_cached(wp: int) -> RealBall:
    # ln 2 = 2 atanh(1/3) = 2 sum_i 3^-(2i+1) / (2i+1);
    # tail <= (9/8) * next term.
    acc = ball_exact_zero(wp + 10)
    den = 3
    i = 0
    target = mpmath.ldexp(_ONE, -(wp + 14))
    while True:
        term = mpmath.fdiv(1, den * (2 * i + 1), prec=wp + 10, rounding="n")
        if term <= target:
            acc = ball_inflate(acc, _rmul(term, mpmath.mpf(1.25)))
            break
        acc = ball_add(acc, RealBall(term, _round_err(term, wp + 10), wp + 10), wp + 10)
        den *= 9
        i += 1
    return _restamp(ball_scale_2exp(acc, 1), wp)


# ----------------------------------------------------------------------
# Elementary functions


def ln_ball(x: RealBall, prec: int) -> RealBall:
    """Natural logarithm of a strictly positive ball.

    The argument is scaled by a power of two into [1/2, 2], then
    ln(y) = 2 atanh((y-1)/(y+1)) with |t| <= 1/3, so the series gains at
    least three bits per term.
    """
    if not x.is_positive():
        raise ValueError("ln of a ball that is not strictly positive")
    wp = prec + 10
    e = _mag(x.mid) - 1
    y = ball_scale_2exp(x, -e)
    one = ball_from_int(1, wp)
    t = ball_div(ball_sub(y, one, wp), ball_add(y, one, wp), wp)
    if t.abs_upper() > mpmath.mpf("0.4"):
        raise ArithmeticError("input ball too wide for the logarithm series")
    t2 = ball_mul(t, t, wp)
    term = t
    acc = t
    i = 1
    target = mpmath.ldexp(_ONE, -(wp + 4))
    while True:
        term = ball_mul(term, t2, wp)
        bound = term.abs_upper()
        if bound <= target * (2 * i + 1):
            # geometric tail: ratio <= |t|^2 <= 0.16, so 1.25x the next term
            acc = ball_inflate(acc, _rmul(mpmath.fdiv(bound, 2 * i + 1, prec=_RAD_PREC, rounding="u"), mpmath.mpf(1.25)))
            break
        acc = ball_add(acc, ball_div_int(term, 2 * i + 1, wp), wp)
        i += 1
    res = ball_scale_2exp(acc, 1)
    if e:
        res = ball_add(res, ball_mul_int(_ln2_cached(wp), e, wp), wp)
    return _restamp(res, prec)


def log2_ball(x: RealBall, ctx: PrecisionContext) -> RealBall:
    """Base-2 logarithm of a strictly positive ball."""
    wp = ctx.wp
    return _restamp(ball_div(ln_ball(x, wp), _ln2_cached(wp), wp), ctx.prec)


def log2_of_fraction(q, ctx: PrecisionContext) -> RealBall:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of a nonpositive rational")
    return log2_ball(ball_from_fraction(q, ctx.wp), ctx)


def _sin_taylor(z: RealBall, wp: int) -> RealBall:
    # sin(z) for |z| <= ~0.79; alternating series, remainder <= next term.
    z2 = ball_mul(z, z, wp)
    term = z
    acc = z
    k = 1
    target = mpmath.ldexp(_ONE, -(wp + 4))
    while True:
        term = ball_div_int(ball_mul(term, z2, wp), -(2 * k) * (2 * k + 1), wp)
        if term.abs_upper() <= target:
            return ball_inflate(acc, term.abs_upper())
        acc = ball_add(acc, term, wp)
        k += 1


def _cos_taylor(z: RealBall, wp: int) -> RealBall:
    z2 = ball_mul(z, z, wp)
    term = ball_from_int(1, wp)
    acc = term
    k = 1
    target = mpmath.ldexp(_ONE, -(wp + 4))
    while True:
        term = ball_div_int(ball_mul(term, z2, wp), -(2 * k - 1) * (2 * k), wp)
        if term.abs_upper() <= target:
            return ball_inflate(acc, term.abs_upper())
        acc = ball_add(acc, term, wp)
        k += 1


def sin_pi_rational(a: int, b: int, ctx: PrecisionContext) -> RealBall:
    """Enclosure of sin(pi * a/b) for integers a, b with b > 0.

    The argument is folded exactly in rational arithmetic onto [0, 1/4] for
    the sine series or cosine series, so only one pi multiplication carries
    rounding error.  Integer multiples of pi give the exact zero ball.
    """
    if b <= 0:
        raise ValueError("denominator must be positive")
    wp = ctx.wp
    x = Fraction(a, b) % 2
    sign = 1
    if x > 1:
        x -= 1
        sign = -1
    if x == 0:
        return ball_exact_zero(ctx.prec)
    if x > Fraction(1, 2):
        x = 1 - x
    pi = _pi_cached(wp)
    if x <= Fraction(1, 4):
        res = _sin_taylor(ball_mul_fraction(pi, x, wp), wp)
    else:
        res = _cos_taylor(ball_mul_fraction(pi, Fraction(1, 2) - x, wp), wp)
    if sign < 0:
        res = ball_neg(res)
    return _restamp(res, ctx.prec)


def exp_ball(x: RealBall, prec: int) -> RealBall:
    """Enclosure of exp over the input ball."""
    wp = prec + 10
    xu = x.abs_upper()
    s = max(0, _mag(xu) + 4) if xu != 0 else 0
    y = ball_scale_2exp(x, -s)
    term = ball_from_int(1, wp)
    acc = term
    k = 1
    target = mpmath.ldexp(_ONE, -(wp + 4))
    while True:
        term = ball_div_int(ball_mul(term, y, wp), k, wp)
        bound = term.abs_upper()
        if bound <= target:
            acc = ball_inflate(acc, _rmul(bound, mpmath.mpf(2)))
            break
        acc = ball_add(acc, term, wp)
        k += 1
    for _ in range(s):
        acc = ball_mul(acc, acc, wp)
    return _restamp(acc, prec)


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
    return ball_add(_ln2_cached(wp), ln_ball(_pi_cached(wp), wp), wp)


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
