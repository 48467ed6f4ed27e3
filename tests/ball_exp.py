"""exp over balls, a test-side check on the ln and log-Gamma balls.

The package needs no exponential; the tests use this one to close round
trips such as exp(ln q) containing q and the reflection formula for
log-Gamma.
"""

from ball_ops import ball_mul
from symfreq.balls import (
    RealBall,
    ball_add,
    ball_div_int,
    ball_from_fraction,
    ball_scale_2exp,
)


def exp_ball(x: RealBall, prec: int) -> RealBall:
    """Enclosure of exp over the input ball.

    The Taylor series runs on y = x / 2^s with |y| <= 1/16, so from the
    first term below 2^-(wp+4) on the tail is under twice that term; s
    squarings undo the scaling.
    """
    wp = prec + 10
    s = (max(-x.lo, x.hi) >> x.F).bit_length() + 4
    y = ball_scale_2exp(x, -s)
    term = acc = ball_from_fraction(1, wp)
    k = 1
    while True:
        term = ball_div_int(ball_mul(term, y), k)
        units = max(-term.lo, term.hi)
        if units << (wp + 4) <= 1 << term.F:
            acc = ball_add(acc, RealBall(-2 * units, 2 * units, term.F, wp))
            break
        acc = ball_add(acc, term)
        k += 1
    for _ in range(s):
        acc = ball_mul(acc, acc)
    return acc
