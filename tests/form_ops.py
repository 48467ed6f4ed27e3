"""Sums and rational multiples of linear forms, for building test claims."""

from fractions import Fraction

from symfreq.linalg import LinearForm


def form_add(a: LinearForm, b: LinearForm) -> LinearForm:
    if a.space != b.space or a.m != b.m:
        raise ValueError("cannot add forms from different spaces or moduli")
    return LinearForm(a.space, a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def form_scale(a: LinearForm, c: Fraction) -> LinearForm:
    c = Fraction(c)
    return LinearForm(a.space, a.m, tuple(c * x for x in a.coeffs))
