"""Rows of ints and Fractions for `linalg.rref`, and its RREF read as Fractions.

`rref` takes one integer matrix.  `integer_matrix` scales each row by the
lcm of its denominators, which changes neither the row space nor the RREF;
`rational_rref` rebuilds the RREF's rows as Fractions from its integer
numerators and row denominators, zero rows last, as `fraction_rref` gives
them.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from symfreq.linalg import rref


def integer_row(row) -> list[int]:
    """An int or Fraction row times the lcm of its denominators."""
    row = list(row)
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def integer_matrix(rows) -> np.ndarray:
    """Rows of ints or Fractions, each scaled to integers, as one matrix.

    int64 where every entry fits, else Python ints in an object array.
    """
    ints = [integer_row(r) for r in rows]
    ncols = len(ints[0]) if ints else 0
    if any(len(r) != ncols for r in ints):
        raise ValueError("rows of mixed length")
    try:
        return np.array(ints, dtype=np.int64).reshape(len(ints), ncols)
    except OverflowError:
        return np.array(ints, dtype=object).reshape(len(ints), ncols)


def stack_forms(forms) -> np.ndarray:
    """The coefficient vectors of the given forms, as one matrix for `rref`."""
    return integer_matrix(f.coeffs for f in forms)


class RationalRref(NamedTuple):
    rows: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]
    rank: int


def rational_rref(rows) -> RationalRref:
    """`rref` of an integer ndarray, or of rows of ints or Fractions, with Fraction rows.

    The rows are the nonzero rows nums[i] / dens[i], then as many zero rows
    as the input has beyond the rank.
    """
    mat = rows if isinstance(rows, np.ndarray) else integer_matrix(rows)
    ech = rref(mat)
    out = [tuple(Fraction(x, d) for x in row) for row, d in zip(ech.nums, ech.dens)]
    out += [(Fraction(0),) * mat.shape[1]] * (len(mat) - ech.rank)
    return RationalRref(tuple(out), ech.pivots, ech.rank)
