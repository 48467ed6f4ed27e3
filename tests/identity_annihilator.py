"""The annihilator of the identity span, an independent oracle for `cyclotomic.check_matrix`.

`check_matrix` builds its table in closed form, one column of
even-character congruence counts and that column's orbit under
(Z/m)^*/+-1, and never eliminates.  This module builds a check matrix
of the same kernel from the one elimination of the identities,
`identity_oracle.identity_span`, so the two share nothing but the modulus.
"""

import numpy as np

from identity_oracle import identity_span
from symfreq.relations import phi_coeffs


def identity_annihilator(m: int) -> np.ndarray:
    """An integer matrix C of shape (m' - 1, t) with u C = 0 iff u lies in the identity span.

    A claim u over U_2..U_m' has the S-coordinates s = u Phi, with Phi the
    symmetric matrix min(i, j) of `relations.phi_coeffs`, and s lies in
    `identity_span(m)` iff s A = 0 for its annihilator A: column j of A holds
    -den in row f_j, the j-th free column, and nums[i][f_j] in row
    pivots[i].  So C = Phi A = phi_coeffs(A^T)^T, int64 when its entries
    fit and Python ints otherwise.
    """
    span = identity_span(m)
    free = span.free
    try:
        nums = np.array(span.nums, dtype=np.int64)
    except OverflowError:
        nums = np.array(span.nums, dtype=object)
    annihilator = np.zeros((len(free), m // 2 - 1), dtype=nums.dtype)  # A^T
    annihilator[np.arange(len(free)), free] = -span.den
    annihilator[:, list(span.pivots)] = nums.reshape(len(span.pivots), m // 2 - 1)[:, free].T
    return np.ascontiguousarray(phi_coeffs(annihilator).T)
