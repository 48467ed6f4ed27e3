"""The retired log-Gamma paths, kept as oracles for `balls` and `frequencies`.

`balls.lgamma_ball` reads its Stirling coefficients B_2k / (2k (2k-1)) as
integer pairs from the tangent numbers, and `frequencies.h_value` sums one
cached vector G(a) = ln Gamma(a/m).  This module keeps the paths they
replaced: the Bernoulli numbers from the classical Fraction recurrence over
every n, and H(m, d) as three fresh `lgamma_ball` calls divided by ln 2.
"""

from __future__ import annotations

import math
from fractions import Fraction

from symfreq import balls
from symfreq.balls import PrecisionContext, RealBall

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    while len(_BERNOULLI) <= n:
        k = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (k + 1))
    return _BERNOULLI[n]


def h_three_lgammas(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """(ln Gamma(d/m) + ln Gamma((d+2)/m) - 2 ln Gamma((d+1)/m)) / ln 2, three fresh series."""
    acc = balls.ball_add(balls.lgamma_ball(d, m, ctx), balls.lgamma_ball(d + 2, m, ctx))
    acc = balls.ball_sub(acc, balls.ball_scale_2exp(balls.lgamma_ball(d + 1, m, ctx), 1))
    return balls.ball_div(acc, balls.ln2_ball(ctx))
