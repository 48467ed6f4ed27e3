"""The digit-frequency series, an independent oracle for `frequencies.h_value`.

`h_value` evaluates H(m, d) through the log-Gamma closed form in certified
balls.  This module sums the single-digit frequencies
log2((j+1)^2/(j(j+2))) over the arithmetic progression j = d mod m directly,
in IEEE double arithmetic with an explicit worst-case rounding bound, plus
the tail bound (1/ln 2)/J, so the tests can compare the two routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from symfreq.balls import RealBall


def h_series(m: int, d: int, terms: int) -> RealBall:
    """Independent oracle for h_value: truncated digit-frequency series.

    Sums log2((j+1)^2 / (j (j+2))) over j = d, d+m, d+2m, ... <= terms.  The
    truncation tail is bounded by (1/ln 2)/terms (each term is below
    (1/ln 2)/j^2), and the double-precision product accumulates a worst-case
    relative error below 6*K*2^-53 for K factors.
    """
    if m < 1:
        raise ValueError("modulus must be at least 1")
    if not 1 <= d <= m:
        raise ValueError(f"H-index {d} out of range 1..{m}")
    if terms < m:
        raise ValueError("term bound must be at least m")
    j = np.arange(d, terms + 1, m, dtype=np.float64)
    # (j+1)^2 and j(j+2) are exact in doubles up to ~2^26 factors beyond 1e6 terms
    ratios = ((j + 1.0) * (j + 1.0)) / (j * (j + 2.0))
    prod = float(np.prod(ratios))
    mid = math.log2(prod)
    k = len(j)
    tail = 1.0 / (math.log(2) * terms)
    rounding = 18.0 * k * 2.0**-53 + 2.0**-50
    rad = tail + rounding
    # every double is an integer multiple of 2^-1074, so the ends are exact
    F = 1074
    lo, hi = (Fraction(mid) - Fraction(rad)) * 2**F, (Fraction(mid) + Fraction(rad)) * 2**F
    return RealBall(math.floor(lo), math.ceil(hi), F, 53)
