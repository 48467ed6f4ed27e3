"""The norm-bound certificate, an independent oracle for `verify_u_relation`.

`symfreq.cyclotomic.verify_u_relation` decides a claim by one exact product
with the even-character table.  This module decides the same claims by
evaluation alone: both sides of the product identity A = B (see
`split_prime_oracle.claim_sides`) are evaluated at split primes by
`split_prime_oracle._products_agree`, over primes whose product exceeds a
bound on the mean of log2|sigma(A - B)| over the embeddings sigma.  The bound is
taken factor by factor from a table of log2|2 sin(pi r/n)| in integer
fixed point, rounded up, and never exceeds the trivial bound M + 1.  For a
true claim it is about log2|N(A)|/phi(n), a few bits for most claims, so
the oracle decides true claims with large coefficients over far fewer
primes than M + 1 asks for.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from split_prime_oracle import _products_agree, claim_sides
from symfreq.balls import ln2_fixed, ln_fixed, pi_fixed, sin_fixed

#: Entries of the log-sine table are in units of 2^-LOG_UNIT_BITS bits.
LOG_UNIT_BITS = 20


@lru_cache(maxsize=None)
def log_sine_table(n: int) -> tuple[int, ...]:
    """T with T[r] >= 2^20 log2|2 sin(pi r/n)| for r = 1..n-1, and T[0] = 0.

    Under every embedding z -> zeta_n^j, |1 - z^c| = |2 sin(pi c j/n)|, so
    T[c j mod n] bounds its log2 from above; T[0] is a placeholder that is
    never read.  The `balls` kernels compute it in units of 2^-64.  Folded
    to r <= n/2, pi r/n lies in (0, pi/2]; its upper bound
    X = ceil(pi_hi r/n) / 2^64 exceeds it by under 2^-62, far less than the
    gap pi/(2n) to pi/2 when 2r < n, so sin(X) >= sin(pi r/n) there.  With
    ln_hi the upper end of 2^64 ln|2 sin|, the entry is
    ceil(2^20 ln_hi / ln2), dividing by the lower end of 2^64 ln 2 when
    ln_hi >= 0 and by its upper end otherwise.
    """
    one = 1 << 64
    pi_hi = pi_fixed(64)[1]
    half = [0]
    for r in range(1, n // 2 + 1):
        s = one if 2 * r == n else min(sin_fixed(-(-pi_hi * r // n), 64)[1], one)
        ln_hi = ln_fixed(2 * s, 64)[1]
        half.append(-((-ln_hi << LOG_UNIT_BITS) // ln2_fixed(64)[ln_hi < 0]))
    return tuple(half + half[(n - 1) // 2 : 0 : -1])


def norm_bits(n: int, idx: np.ndarray, exps: list[int], nl: int) -> int:
    """ceil of the mean over the roots j of 1 + max(a_j, b_j).

    Row i of `idx` holds c j mod n for the root j and each factor
    (1 - z^c)^e, with exponents `exps`, of which the first `nl` are the left
    side.  a_j and b_j are the table's upper bounds on log2|sigma_j(prod
    left)| and log2|sigma_j(prod right)|, sigma_j: z -> zeta_n^j, so for the
    difference D of the two sides (a root of unity times `left`, minus
    `right`) log2|sigma_j(D)| <= 1 + max(a_j, b_j).  The sums are taken in
    int64 when no partial sum can reach 2^63, and in Python ints otherwise.
    """
    logs = np.array(log_sine_table(n), dtype=np.int64)[idx]
    exact = max(exps, default=0) * int(np.abs(logs).max(initial=0)) * idx.size < 1 << 63
    dtype = np.int64 if exact else object
    logs, e = logs.astype(dtype, copy=False), np.array(exps, dtype=dtype)
    total = int(np.maximum(logs[:, :nl] @ e[:nl], logs[:, nl:] @ e[nl:]).sum())
    return 1 - (-total // (len(idx) << LOG_UNIT_BITS))


def norm_bound(n: int, left, right, units) -> int:
    """min(M + 1, `norm_bits`) for the two sides: the bits their agreement must cover."""
    cs = [c for c, _ in left] + [c for c, _ in right]
    exps = [e for _, e in left] + [e for _, e in right]
    nl = len(left)
    idx = np.outer(units, cs) % n
    mass = max(sum(exps[:nl]), sum(exps[nl:]))
    return min(mass + 1, norm_bits(n, idx, exps, nl))


def verify_by_norm(m: int, form) -> bool:
    """Whether the U-form is an exact relation, by evaluation at split primes alone."""
    sides = claim_sides(m, form)
    if sides is None:
        return True
    n, twist, left, right, units = sides
    return _products_agree(n, twist, left, right, units, norm_bound(n, left, right, units))
