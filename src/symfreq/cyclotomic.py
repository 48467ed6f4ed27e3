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
costs about 0.1 ms at m <= 100, 1 ms at m = 990 and 25 ms at m = 4106 on
a 2-core x86 VM.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .intmath import divisors, factorize
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


def build_check_matrix(m: int) -> np.ndarray:
    """The integer check matrix C at modulus m, built afresh: u C = 0 proves the claim u.

    For k = 1..m' let f_k = m/gcd(k, m), a_k = k/gcd(k, m), D = lcm_k
    phi(f_k) and w_k = D/phi(f_k).  The table T has one row per x_k and the
    columns

        tau_p, per p | m (composite m only):  T[k, p] = w_k if f_k is a power of p, else 0;
        b, per unit b with 2 <= b <= m':      T[k, b] = w_k E_(f_k)(a_k b^-1 mod f_k),

    with E_f(y) = sum_S (-1)^|S| N(g_S, p_S, y) over the sets S of primes of
    f, p_S the product of S, g_S the number f with every power of each p in
    S removed, and N(g, x, y) = phi(g) ([x = y] + [x = -y] (mod g)); that
    is w_k sum_S (-1)^|S| N(g_S, b p_S, a_k).  A claim u over U_2..U_m' is
    the vector c over x_1..x_m' with c_1 = -sum u and c_k = u_k, so c T = u C
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

    The table is one column and its orbit.  Column 1, v_k = T[k, 1] =
    w_k E_(f_k)(a_k), is one sum over the sets S of primes of m, from the
    p-parts of f_k, one gcd per p; a set with a prime that does not divide
    f_k contributes 0.  The unit columns are gathers of it:
    T[k, b] = v_(k_red(k b^-1 mod m)).

    * Orbit identity.  For a unit b, k' = k_red(k b^-1 mod m) has
      gcd(k', m) = gcd(k, m), so f_k' = f_k and w_k' = w_k, and
      a_k' = +-a_k b^-1 (mod f_k).  E is even, so T[k', 1] = T[k, b].
    * g_S <= 2.  The table reads E only at units y mod f_k, and there both
      congruences of N hold when g_S <= 2 (mod 2, y and p_S are odd, as 2 is
      not in S): N is 2, twice the one even character mod g_S, with no
      branch.  For g_S > 2 the classes of y and -y differ, and N is twice
      the sum of the phi(g_S)/2 even characters.

    No elimination, and nothing cached: about 0.1 ms at m <= 100, 1 ms at
    m = 990 and 25 ms at m = 4106 on a 2-core x86 VM.  The certificate
    reads `check_matrix`, and the scan builds C per modulus.
    """
    half = m // 2
    k = np.arange(1, half + 1, dtype=np.int64)
    common = np.gcd(k, m)
    f, a = m // common, k // common
    fact = factorize(m)
    primes = np.array([p for p, _ in fact], dtype=np.int64)
    # the p-part of f_k and its phi, one row per p | m
    parts = np.gcd(f, np.array([[p**e] for p, e in fact], dtype=np.int64))
    phis = np.where(parts > 1, parts - parts // primes[:, None], 1)
    phi = phis.prod(axis=0)
    weight = np.lcm.reduce(phi) // phi
    # column 1: one row per set S of primes of m, S the chosen ones, and
    # (-1)^|S| phi(g_S) where every p in S divides f_k, else 0
    chosen = (np.arange(1 << len(fact))[:, None] >> np.arange(len(fact)) & 1).astype(bool)
    sign_phi = np.where(chosen[..., None], -1 * (parts > 1), phis).prod(axis=1)
    g_s = np.where(chosen[..., None], 1, parts).prod(axis=1)
    p_s = np.where(chosen, primes, 1).prod(axis=1)[:, None]
    column = weight * (sign_phi * ((a - p_s) % g_s == 0) + sign_phi * ((a + p_s) % g_s == 0)).sum(axis=0)
    # v_(k_red(r)) at every residue r = 1..m-1; row b of T^T gathers it at r = k b^-1
    orbit = np.concatenate([[0], column, column[: (m - 1) // 2][::-1]])
    inverses = np.array([pow(b, -1, m) for b in k[common == 1][1:].tolist()], dtype=np.int64)
    table = orbit[inverses[:, None] * k % m]
    if len(fact) > 1 or fact[0][1] > 1:
        # tau_p: w_k where f_k is a power of p
        table = np.vstack([weight * (parts == f), table])
    # C^T row-major is C column-major, so each column of u C is one contiguous dot product
    return (table[:, 1:] - table[:, :1]).T


@lru_cache(maxsize=None)
def check_matrix(m: int) -> tuple[np.ndarray, int]:
    """`build_check_matrix(m)`, read-only, and max|C|, cached per modulus for the certificate."""
    check = build_check_matrix(m)
    check.setflags(write=False)
    return check, max(int(check.max()), -int(check.min()))


def scaled_exponents(form: LinearForm) -> tuple[int, dict[int, int]]:
    """Clear denominators of a form: (lcm L, {index: integer coefficient})."""
    return form.den, {k: e for k, e in enumerate(form.nums, start=form.first_index) if e}


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
    u = form.nums
    check, cmax = check_matrix(m)
    dtype = np.int64 if sum(map(abs, u)) * cmax < 1 << 62 else object
    return not (np.array(u, dtype=dtype) @ check.astype(dtype, copy=False)).any()
