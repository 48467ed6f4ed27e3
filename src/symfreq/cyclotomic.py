"""The exact certificate for relations among log-sine values.

A claimed linear relation sum(c_k * log2(sin(pi*k/m)/sin(pi/m))) = 0 is a
claim about the numbers x_a = log|1 - zeta_m^a| = log(2 sin(pi a/m)).
`verify_u_relation` is the one entry point.  It makes one exact integer
product u C of the claim's exponent vector u with the modulus's check
matrix C (`check_matrix`), whose cost does not grow with the claim's
coefficients, and the claim holds iff u C = 0.  C is a closed-form table of
even-character congruence counts, built with no elimination.  By Fourier
inversion on (Z/m)^*/+-1, u C = 0 iff every even-character sum
theta_psi(c) and every tau_p(c) of `build_check_matrix` vanishes, and the
Fourier coefficients of h(b) = sum_k c_k log|1 - zeta_m^(bk)| are these
numbers times B_psi(f_psi) and log p:

* True when u C = 0: every Fourier coefficient vanishes, so the claim,
  h(1) = 0, holds.
* False when u C != 0: B_psi(f_psi) is a nonzero multiple of L(1, psibar),
  nonzero by Dirichlet's theorem, and the log p are independent over Q, so
  some Fourier coefficient is nonzero; as Q(zeta_m) is a CM field, h(1) is
  nonzero too.

No witness is computed and no rounding is involved.  The cold build of C
costs under 0.2 ms at m <= 100, about 4 ms at m = 990 and 0.08 s at
m = 4106 on a 2-core x86 VM.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from .intmath import divisors, euler_phi, factorize
from .linalg import LinearForm, U_SPACE

# ----------------------------------------------------------------------
# Integer polynomials and the cyclotomic polynomial


def _intpoly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, denominator monic-leading or not;
    # used only where divisibility is guaranteed.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    if any(num[:dd]):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, lowest degree first."""
    if M < 1:
        raise ValueError("conductor must be positive")
    if M == 1:
        return (-1, 1)
    poly = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in divisors(M):
        if d < M:
            poly = _intpoly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


# ----------------------------------------------------------------------
# Relation certificates


def _even_counts(f: int) -> np.ndarray:
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


def build_check_matrix(m: int) -> np.ndarray:
    """The integer check matrix C at modulus m, built afresh: u C = 0 proves the claim u.

    For k = 1..m' let f_k = m/gcd(k, m), a_k = k/gcd(k, m), D = lcm_k
    phi(f_k) and w_k = D/phi(f_k).  The table T has one row per x_k and the
    columns

        tau_p, per p | m (composite m only):  T[k, p] = w_k if f_k is a power of p, else 0;
        b, per unit b with 2 <= b <= m':      T[k, b] = w_k E_(f_k)(a_k b^-1 mod f_k),

    with E of `_even_counts`; that is w_k sum_S (-1)^|S| N(g_S, b p_S, a_k)
    over the sets S of primes of f_k.  A claim u over U_2..U_m' is the
    vector c over x_1..x_m' with c_1 = -sum u and c_k = u_k, so c T = u C
    with C = T[2..m'] - T[1]: shape (m' - 1, t), t = phi(m)/2 - 1 + omega(m)
    for composite m and (m - 3)/2 for prime m.  As D divides phi(m),
    |C| <= 2^(omega(m)+2) phi(m), so C is int64; in fact max|C| is at most
    996 for m <= 1000, and 4104 at m = 4106.

    Why u C = 0 proves the claim.  Let h(b) = sum_k c_k log|1 - zeta_m^(bk)|
    on G = (Z/m)^*/+-1; the claim is h(1) = 0.  Column b is twice
    sum_(psi even) psi(b) theta_psi(c), with

        theta_psi(c) = sum_(k: f_psi | f_k) c_k w_k psibar(a_k) prod_(p | f_k, p not| f_psi) (1 - psi(p)),

    since summing psi(b p_S / a_k) over the even psi of conductor dividing
    g_S counts the congruence of N.  The trivial character's term is
    sum_k c_k w_k sum_S (-1)^|S| = 0, so column 1 is minus the sum of the
    others, and u C = 0 gives theta_psi(c) = 0 for every even psi != 1 by
    Fourier inversion on G.  By the distribution relation
    B_psi(f) = prod_(p | f, p not| f_psi) (1 - psi(p)) B_psi(f_psi) for
    B_psi(f) = sum_(x in (Z/f)^*) psi(x) log|1 - zeta_f^x| (Washington,
    Introduction to Cyclotomic Fields, ch. 4 and 8), the Fourier coefficient
    of h at psi is (phi(m)/D) theta_psi(c) B_psi(f_psi) = 0.  At the trivial
    character it is (phi(m)/D) sum_p tau_p(c) log p, as prod_(x in (Z/f)^*)
    (1 - zeta_f^x) = Phi_f(1) is p for f a power of p and 1 otherwise; the
    tau columns make that 0 (for prime m it is w_1 sum c_k = 0 already).
    So h = 0, and h(1) = 0.  The proof uses no L-function and no
    completeness of the identities; a claim with u C != 0 is refused by
    Dirichlet's theorem L(1, psi) != 0 (`verify_u_relation`).

    The table is one gather from the E of its conductors, with no
    elimination: under 0.2 ms at m <= 100, about 4 ms at m = 990 and
    0.08 s at m = 4106 on a 2-core x86 VM.  Nothing is cached: the
    certificate reads `check_matrix`, and the scan builds C per modulus.
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
    counts = np.concatenate([_even_counts(c) for c in conductors])
    start = np.cumsum([0, *conductors[:-1]])[which, None]
    units = [b for b in range(2, half + 1) if gcd(b, m) == 1]
    inverses = np.array([pow(b, -1, m) for b in units], dtype=np.int64)
    table = weight * counts[start + a[:, None] * inverses % f[:, None]]
    fact = factorize(m)
    if len(fact) > 1 or fact[0][1] > 1:
        # tau_p: w_k where f_k is a power of p
        base = np.array([factorize(c)[0][0] if len(factorize(c)) == 1 else 0 for c in conductors])[which, None]
        table = np.hstack([weight * (base == [p for p, _ in fact]), table])
    # column-major, so that each column of u C is one contiguous dot product
    return np.asfortranarray(table[1:] - table[0])


@lru_cache(maxsize=None)
def check_matrix(m: int) -> tuple[np.ndarray, int]:
    """`build_check_matrix(m)`, read-only, and max|C|, cached per modulus for the certificate."""
    check = build_check_matrix(m)
    check.setflags(write=False)
    return check, max(int(check.max()), -int(check.min()))


def scaled_exponents(form: LinearForm) -> tuple[int, dict[int, int]]:
    """Clear denominators of a form: (lcm L, {index: integer coefficient})."""
    scale, ints = form.integer_coeffs()
    return scale, {k: e for k, e in enumerate(ints, start=form.first_index) if e}


def verify_u_relation(m: int, form: LinearForm) -> bool:
    """Exact certificate for a claimed relation among the m-modulus log-sine values.

    The coefficients are scaled by the lcm of their denominators to the
    integer vector u of e_k over U_2..U_m', and the claim is
    sum_k e_k (x_k - x_1) = 0 with x_a = log|1 - zeta_m^a|, that is
    h(1) = 0 for h(b) = sum_k c_k x_(bk) on G = (Z/m)^*/+-1, c_1 = -sum e_k
    and c_k = e_k.  Returns True iff u C = 0, C the closed-form table of
    `check_matrix`, one exact integer product and nothing evaluated.

    True: when u C = 0, every Fourier coefficient of h vanishes
    (`build_check_matrix`), so h(1) = 0.

    False: when u C != 0, some theta_psi(c) != 0 for an even psi != 1, or
    some tau_p(c) != 0.  The Fourier coefficient of h at psi is
    (phi(m)/D) theta_psi(c) B_psi(f_psi), and B_psi(f_psi) is a nonzero
    multiple of L(1, psibar), which is nonzero by Dirichlet's theorem
    (Washington, Introduction to Cyclotomic Fields, Thm 4.9).  The one at
    the trivial character is (phi(m)/D) sum_p tau_p(c) log p, nonzero as
    the log p are independent over Q.  So h(b) != 0 at some unit b.  With
    beta = prod_k (1 - zeta_m^k)^(c_k), h(b) = log|sigma_b(beta)|, and
    Q(zeta_m) is a CM field: complex conjugation commutes with every
    sigma_b, so |beta| = 1 would give |sigma_b(beta)| = 1 for every b.
    Hence h(1) != 0 and the claim is false.

    The product runs in int64 when sum |e_k| max|C| < 2^62, which bounds
    every entry and partial sum, and in Python ints otherwise.
    """
    if form.space != U_SPACE:
        raise ValueError("verify_u_relation expects a U-space form")
    if form.m != m:
        raise ValueError(f"form has modulus {form.m}, expected {m}")
    u = form.integer_coeffs()[1]
    check, cmax = check_matrix(m)
    dtype = np.int64 if sum(map(abs, u)) * cmax < 1 << 62 else object
    return not (np.array(u, dtype=dtype) @ check.astype(dtype, copy=False)).any()
