"""The check table built one conductor at a time, a reference for `cyclotomic.build_check_matrix`.

`build_check_matrix` sums its first column over the sets of primes of m and
gathers the unit columns from that one column along the orbit of
(Z/m)^*/+-1.  This module builds the same table the direct way: for each
conductor f | m, f >= 2, the array E_f of its even-character congruence
counts, and then row k, column b reads w_k E_(f_k)(a_k b^-1 mod f_k).
"""

from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from symfreq.intmath import euler_phi, factorize


def even_counts(f: int) -> np.ndarray:
    """E[y] = sum over the sets S of primes of f of (-1)^|S| N(g_S, p_S, y), y = 0..f-1.

    p_S is the product of S and g_S is f with every power of each p in S
    removed; N(g, x, y) = 2 if g <= 2 and phi(g) [x = +-y (mod g)] otherwise.
    At a unit y, N(g, x, y) is twice the sum over the even characters psi
    mod g of psi(x / y).
    """
    out = np.zeros(f, dtype=np.int64)
    primes = [p for p, _ in factorize(f)]
    for size in range(len(primes) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(primes, size):
            g = f
            for p in subset:
                while g % p == 0:
                    g //= p
            if g <= 2:
                out += 2 * sign
            else:
                # r is a unit mod g > 2, so the classes of r and -r differ
                r = prod(subset) % g
                out[r::g] += sign * euler_phi(g)
                out[g - r :: g] += sign * euler_phi(g)
    return out


def conductor_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The table T of `build_check_matrix` as (tau, units), one row per k = 1..m'.

    tau holds the columns tau_p, p | m ascending (none for prime m); units
    the columns b for the units b = 1..m', ascending, column 1 included.
    """
    half = m // 2
    k = np.arange(1, half + 1, dtype=np.int64)
    g = np.gcd(k, m)
    f, a = m // g, k // g
    conductors = sorted(set(f.tolist()))
    phis = [euler_phi(c) for c in conductors]
    which = np.searchsorted(conductors, f)  # f_k = conductors[which[k - 1]]
    weight = (lcm(*phis) // np.array(phis, dtype=np.int64))[which, None]
    # E of every conductor end to end, and where row k's E starts
    counts = np.concatenate([even_counts(c) for c in conductors])
    start = np.cumsum([0, *conductors[:-1]])[which, None]
    units = [b for b in range(1, half + 1) if gcd(b, m) == 1]
    inverses = np.array([pow(b, -1, m) for b in units], dtype=np.int64)
    table = weight * counts[start + a[:, None] * inverses % f[:, None]]
    fact = factorize(m)
    tau = np.zeros((half, 0), dtype=np.int64)
    if len(fact) > 1 or fact[0][1] > 1:
        # tau_p: w_k where f_k is a power of p
        base = np.array([factorize(c)[0][0] if len(factorize(c)) == 1 else 0 for c in conductors])[which, None]
        tau = weight * (base == [p for p, _ in fact])
    return tau, table


def conductor_check_matrix(m: int) -> np.ndarray:
    """C = T[2..m'] - T[1] over the columns tau_p and b = 2..m', column-major."""
    tau, units = conductor_table(m)
    table = np.hstack([tau, units[:, 1:]])
    return np.asfortranarray(table[1:] - table[0])
