"""Ball membership, overlap, products and log2, for the tests.

The package never multiplies two balls or asks whether a ball holds a given
rational; the tests do, to check the balls it prints.
"""

from fractions import Fraction

from symfreq.balls import (
    PrecisionContext,
    RealBall,
    _aligned,
    _outward,
    ball_div,
    ball_from_fraction,
    ln2_ball,
    ln_ball,
)


def contains_fraction(ball: RealBall, q) -> bool:
    """Exact membership test for a rational point."""
    q = Fraction(q)
    return ball.lo * q.denominator <= q.numerator << ball.F <= ball.hi * q.denominator


def overlaps(a: RealBall, b: RealBall) -> bool:
    _, alo, ahi, blo, bhi = _aligned(a, b)
    return alo <= bhi and blo <= ahi


def ball_mul(a: RealBall, b: RealBall) -> RealBall:
    # the products are exact in units of 2^-(a.F + b.F)
    ends = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    lo, hi = _outward(min(ends), max(ends), min(a.F, b.F))
    return RealBall(lo, hi, max(a.F, b.F), min(a.prec, b.prec))


def log2_of_ball(x: RealBall, ctx: PrecisionContext) -> RealBall:
    """log2 x = ln x / ln 2, the division by ln 2 that `frequencies` makes once per value."""
    return ball_div(ln_ball(x, ctx.wp), ln2_ball(ctx))


def log2_of_fraction(q, ctx: PrecisionContext) -> RealBall:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of a nonpositive rational")
    return log2_of_ball(ball_from_fraction(q, ctx.wp), ctx)
