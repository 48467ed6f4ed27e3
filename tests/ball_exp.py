"""exp over balls, a test-side check on the ln and log-Gamma balls.

The package needs no exponential; the tests use this one to close round
trips such as exp(ln q) containing q and the reflection formula for
log-Gamma.
"""

import mpmath

from symfreq.balls import (
    RealBall,
    _ONE,
    _mag,
    _restamp,
    _rmul,
    ball_add,
    ball_div_int,
    ball_from_int,
    ball_inflate,
    ball_mul,
    ball_scale_2exp,
)


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
