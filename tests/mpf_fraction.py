"""Exact conversion of mpmath floats, for the tests that use mpmath as an oracle."""

from fractions import Fraction

import mpmath


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact value of a finite mpf as a Fraction."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError("cannot convert a non-finite value")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v
