"""The exact certificate for relations among log-sine values.

A claimed linear relation sum(c_k * log2(sin(pi*k/m)/sin(pi/m))) = 0 is a
claim about the numbers x_a = log|1 - zeta_m^a| = log(2 sin(pi a/m)).
`verify_u_relation` is the one entry point, and each verdict carries its
own proof:

* True when u C = 0, one exact integer product of the claim's exponent
  vector u with the modulus's check matrix C (`check_matrix`), whose cost
  does not grow with the claim's coefficients.  C is a closed-form table
  of even-character congruence counts, built with no elimination.  By
  Fourier inversion on (Z/m)^*/+-1 and the distribution relation of the
  character sums of log|1 - zeta|, u C = 0 makes every Fourier coefficient
  of b -> sum_k c_k log|1 - zeta_m^(bk)| vanish, so the claim, its value
  at b = 1, holds.  The cold build of C costs under 0.2 ms at m <= 100,
  about 4 ms at m = 990 and 0.08 s at m = 4106 on a 2-core x86 VM.
* False only with a witness.  Each ratio sin(pi*k/m)/sin(pi/m) is an
  element of the cyclotomic field of conductor 2m:

      sin(pi*k/m)/sin(pi/m) = z^(1-k) * (1 - z^(2k)) / (1 - z^2),   z = zeta_2m,

  so after clearing denominators the claim is an equality A = B between a
  root of unity times a product of factors 1 - z^c and another such
  product in Z[z].  For a prime p = 1 (mod 2m) and an element w of order
  2m in F_p, each map z -> w^j with j a unit mod 2m is a ring homomorphism
  Z[z] -> F_p, so a root where the two sides differ mod p disproves the
  claim.  The witness is sought in this order:

  1. a power-residue character at the least split prime q
     (`character_matrix`): a nonzero entry of u X mod 2m, one integer
     product, is a root where A/B is not 1 mod q;
  2. the split primes below 2^31, only for a claim on which every
     character vanishes: every root, factor and prime is evaluated in
     int64 numpy passes (a product of two residues stays below 2^62),
     after one scalar root of the first prime;
  3. `CertificateLimitError`, below.

If no root differs over primes whose product exceeds 2^(M+1), M the number
of factors on the larger side, the norm argument proves A = B and the
claim is True after all.  As L(1, psi) != 0 for every even Dirichlet
character psi, a claim with u C != 0 is false, so this never happens.  The
primes of one class in (2^30, 2^31) are finitely many, so a claim with
u C != 0 on which every character vanishes, whose first split prime agrees
and whose M + 1 bits need more of those primes, raises
`CertificateLimitError` instead of returning a verdict.  No rounding is
involved.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from .intmath import divisors, euler_phi, factorize, is_prime
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
# Product identities by evaluation at split primes

#: Split primes lie in (2^30, 2^31), so the product of two residues fits in int64.
PRIME_BITS = 31

#: Entries (primes x roots x factors) of one array pass, bounding its memory;
#: at m = 100 and 210, 2^14 and 2^18 both ran slower, 2^18 with 9 MB more RSS.
_CHUNK = 1 << 16

# conductor n -> [(p, w), ...], the split primes found so far, descending
_SPLIT_PRIMES: dict[int, list[tuple[int, int]]] = {}


class CertificateLimitError(ArithmeticError):
    """A claim with u C != 0 whose bound needs more split primes than lie below 2^31."""


def _root_of_unity(n: int, p: int) -> int:
    """An element of exact multiplicative order n in F_p, for a prime p = 1 (mod n)."""
    cofactor = (p - 1) // n
    for x in range(2, p):
        w = pow(x, cofactor, p)
        if all(pow(w, n // q, p) != 1 for q, _ in factorize(n)):
            return w
    raise ArithmeticError(f"no element of order {n} mod {p}")


def _pool_size(n: int) -> int:
    """An upper bound on the number of primes p = 1 (mod n) in (2^30, 2^31).

    The interval holds at most 2^30/n + 1 integers of that class, and by the
    Brun-Titchmarsh inequality of Montgomery and Vaughan at most
    2y/(phi(n) ln(y/n)) primes of it, y = 2^30 > n; here ln(y/n) is bounded
    below by 0.693 floor(log2(y/n)) in integers.
    """
    y = 1 << (PRIME_BITS - 1)
    size = y // n + 1
    k = (y // n).bit_length() - 1
    if k > 0:
        size = min(size, 2000 * y // (693 * euler_phi(n) * k) + 1)
    return size


def _prime_count(n: int, bits: int) -> int:
    """The number of split primes whose product exceeds 2^bits, each above 2^30.

    Raises CertificateLimitError at once when `_pool_size` rules that many out.
    """
    count = max(1, -(-bits // (PRIME_BITS - 1)))
    if count > _pool_size(n):
        raise CertificateLimitError(
            f"a {bits}-bit certificate needs {count} split primes for conductor {n}, "
            "more than lie in (2^30, 2^31)"
        )
    return count


def split_primes(n: int, bits: int) -> list[tuple[int, int]]:
    """Pairs (p, w) with p = 1 (mod n) prime and w of exact order n mod p.

    The primes are the largest in (2^30, 2^31) in that residue class, each
    proven prime by `is_prime`; enough are returned that their product
    exceeds 2^bits.  Such a p splits completely in Q(zeta_n) (Washington,
    ch. 2): the prime ideals above it are the kernels of z -> w^j,
    Z[zeta_n] -> F_p, one for each j in (Z/n)^*.  The pairs are cached per
    conductor.  Raises CertificateLimitError when the class has too few
    primes there: at once when `_pool_size` rules the count out, otherwise
    once the search passes 2^30.
    """
    primes = _SPLIT_PRIMES.setdefault(n, [])
    count = _prime_count(n, bits)
    p = primes[-1][0] - n if primes else ((1 << PRIME_BITS) - 2) // n * n + 1
    while len(primes) < count:
        if p <= 1 << (PRIME_BITS - 1):
            raise CertificateLimitError(
                f"{count} split primes needed for conductor {n}; only {len(primes)} lie in (2^30, 2^31)"
            )
        if is_prime(p):
            primes.append((p, _root_of_unity(n, p)))
        p -= n
    return primes[:count]


def _root_tables(n: int, pairs) -> np.ndarray:
    """Row i: w^r mod p at r and 1 - w^r mod p at n + r, 0 <= r < n, for the i-th pair (p, w)."""
    p = np.array([q for q, _ in pairs], dtype=np.int64)[:, None]
    base = np.array([w for _, w in pairs], dtype=np.int64)[:, None]
    powers = np.ones((len(pairs), n), dtype=np.int64)
    k = 1
    while k < n:  # base = w^k: the powers below k give those from k to 2k
        h = min(k, n - k)
        powers[:, k : k + h] = powers[:, :h] * base % p
        base = base * base % p
        k *= 2
    return np.concatenate((powers, (1 - powers) % p), axis=1)


@lru_cache(maxsize=None)
def _first_table(n: int, p: int, w: int) -> np.ndarray:
    """`_root_tables` of the first split prime, the one every claim is evaluated at."""
    return _root_tables(n, [(p, w)])


# ----------------------------------------------------------------------
# Array evaluation at split primes


def _agree_at(pos: np.ndarray, sides: list[list[int]], pairs, tables: np.ndarray) -> bool:
    """Whether the two sides agree under z -> w^j at every root j and split prime (p, w).

    Row i of `pos` holds, for the root j, each side's factors as positions
    in a prime's row of `tables` (`_root_tables`: w^r at r, 1 - w^r at
    n + r), padded to one width with position 0 (w^0 = 1); `sides` holds
    their exponents in the same (2, width) layout.  The primes of `pairs`
    are evaluated together, along a leading axis, and the roots in chunks
    of at most `_CHUNK` entries.  Each exponent e is reduced to
    (e - 1) mod (p - 1) + 1 in Python ints, which leaves b^e mod p unchanged
    for every residue b, zero included.
    """
    primes = [p for p, _ in pairs]
    p = np.array(primes, dtype=np.int64)[:, None, None, None]
    reduced = [[[(e - 1) % (q - 1) + 1 for e in side] for side in sides] for q in primes]
    bits = np.array(reduced, dtype=np.int64)[:, None]
    top = int(bits.max()).bit_length()
    masks = (bits >> np.arange(top).reshape(-1, 1, 1, 1, 1)) & 1 == 1
    rows = max(1, _CHUNK // (len(primes) * pos[0].size))
    for r in range(0, len(pos), rows):
        # square-and-multiply of every base at once, then each side's product
        x = tables[:, pos[r : r + rows]]
        acc = np.ones_like(x)
        tmp = np.empty_like(x)
        for i in range(top):
            if i:
                np.remainder(np.multiply(x, x, out=x), p, out=x)
            np.remainder(np.multiply(acc, x, out=tmp), p, out=tmp)
            np.copyto(acc, tmp, where=masks[i])
        while acc.shape[-1] > 1:
            h = acc.shape[-1] // 2
            acc = np.concatenate((acc[..., :h] * acc[..., h : 2 * h] % p, acc[..., 2 * h :]), axis=-1)
        if not np.array_equal(acc[:, :, 0], acc[:, :, 1]):
            return False
    return True


def _products_agree(n: int, twist: int, left, right, units, bits: int | None = None) -> bool:
    """Whether z^twist * prod(left) = prod(right) in Z[z], z = zeta_n.

    `left` and `right` hold (c, e) for factors (1 - z^c)^e with e > 0, and
    `units` holds one j of each pair {j, -j} of units mod n, chosen so that
    complex conjugation maps the difference D of the two sides to a root of
    unity times D (see `verify_u_relation`).  Both sides are evaluated at
    z -> w^j mod p for each j in `units` and each split prime p < 2^31, as
    int64 array work: one gathered index array c j mod n serves every prime.
    A mismatch at one root proves D nonzero, so False always comes with its
    witness.  The first root of the first prime is checked with scalar
    `pow` before the array pass, so most false claims stop there; the later
    primes are found and evaluated batch by batch, and the search stops at
    the first batch with a mismatch.  Agreement at every j of a prime p puts
    D in every prime ideal above p, since D vanishes at w^j iff it vanishes
    at w^(-j), hence in pZ[z]; over primes whose product P exceeds 2^bits,
    D lies in PZ[z], so a nonzero D would have |N(D)| >= P^phi(n) >
    2^(bits phi(n)).  `bits` defaults to M + 1, M = max(sum of left e, sum
    of right e): every factor has absolute value at most 2 under every
    embedding sigma, so |sigma(D)| <= 2^(M+1) and |N(D)| <= 2^((M+1) phi(n)).
    So agreement there proves D = 0.  A caller with a smaller proven bound
    on the mean of log2|sigma(D)| over the embeddings may pass it instead.
    Raises CertificateLimitError, once the first prime agrees, when the
    bound needs more primes than its conductor has below 2^31.
    """
    cs = [c for c, _ in left] + [c for c, _ in right]
    exps = [e for _, e in left] + [e for _, e in right]
    nl = len(left)
    p, w = split_primes(n, 1)[0]
    table = _first_table(n, p, w)
    j = units[0]
    bases = table[0, [n + c * j % n for c in cs]].tolist()
    vals = [pow(b, e, p) for b, e in zip(bases, exps)]
    if pow(w, twist * j, p) * prod(vals[:nl]) % p != prod(vals[nl:]) % p:
        return False
    units = np.array(units, dtype=np.int64)
    idx = np.outer(units, np.array(cs, dtype=np.int64)) % n
    # the twist joins the left side as w^(twist j) with exponent 1
    nr = len(cs) - nl
    width = max(nl + 1, nr)
    pos = np.zeros((len(units), 2, width), dtype=np.int64)
    pos[:, 0, 0] = twist * units % n
    pos[:, 0, 1 : nl + 1] = n + idx[:, :nl]
    pos[:, 1, :nr] = n + idx[:, nl:]
    sides = [side + [1] * (width - len(side)) for side in ([1, *exps[:nl]], exps[nl:])]
    if not _agree_at(pos, sides, [(p, w)], table):
        return False
    if bits is None:
        bits = max(sum(exps[:nl]), sum(exps[nl:])) + 1
    count = _prime_count(n, bits)
    # later primes in batches of at most `_CHUNK` entries, tables built per batch
    step = max(1, _CHUNK // pos.size)
    for have in range(1, count, step):
        batch = split_primes(n, (PRIME_BITS - 1) * min(count, have + step))[have:]
        if not _agree_at(pos, sides, batch, _root_tables(n, batch)):
            return False
    return True


# ----------------------------------------------------------------------
# Power-residue characters at the least split prime

#: Roots z -> w^j of the character table, the first units j below m.  A
#: claim with u C != 0 goes on to the split primes only when its character
#: is 0 mod n at every root: of the 3330 perturbed claims of the
#: benchmark's `certify` seeds 1-3, 5 did with one root and none with two,
#: and each further root widens every refusal's product and the table.
CHARACTER_ROOTS = 2


@lru_cache(maxsize=None)
def character_matrix(m: int) -> np.ndarray:
    """Power-residue characters of the sine ratios at the least split prime.

    With n = 2m, q the least prime = 1 (mod n) and w of order n mod q,
    chi(v) = dlog_w(v^((q-1)/n)) is a homomorphism F_q^* -> Z/n.  Row k - 2,
    column i holds chi(ratio_k(w^j)) for the i-th of the first
    `CHARACTER_ROOTS` units j < m, with ratio_k = z^(1-k) (1 - z^(2k)) /
    (1 - z^2) as in `verify_u_relation`:

        X[k, j] = ((1-k) j chi(w) + D[2kj mod n] - D[2j mod n]) mod n,   D[r] = chi(1 - w^r).

    No 1 - w^(2kj) vanishes, as m divides no kj.  A relation
    prod ratio_k^(u_k) = 1 gives u X = 0 (mod n), so a nonzero entry of
    u X mod n is a root z -> w^j where the two sides of the claim differ
    mod q.  One table of shape (m' - 1, `CHARACTER_ROOTS`) is cached per
    modulus; every m >= 4 has at least two units below m.
    """
    n = 2 * m
    q = n + 1
    while not is_prime(q):
        q += n
    w = _root_of_unity(n, q)
    cofactor = (q - 1) // n
    powers = [1] * n
    for r in range(1, n):
        powers[r] = powers[r - 1] * w % q
    dlog = {v: r for r, v in enumerate(powers)}
    # D at even r only, the only positions the table reads
    logs = np.zeros(n, dtype=np.int64)
    logs[2::2] = [dlog[pow(1 - v, cofactor, q)] for v in powers[2::2]]
    units = [j for j in range(1, m) if gcd(j, n) == 1][:CHARACTER_ROOTS]
    k = np.arange(2, m // 2 + 1, dtype=np.int64)[:, None]
    j = np.array(units, dtype=np.int64)
    # chi(w) = (q - 1)/n mod n
    table = ((1 - k) * j * (cofactor % n) + logs[2 * k * j % n] - logs[2 * j % n]) % n
    table.setflags(write=False)
    return table


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
    completeness of the identities; a claim with u C != 0 is refused only
    with a witness (`verify_u_relation`).

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

    The coefficients are scaled by the lcm of their denominators to integers,
    then divided by the gcd g of those, giving the vector u of e_k over
    U_2..U_m'; each ratio_k is a positive real, and a positive real whose
    g-th power is 1 is 1, so the relation holds iff sum_k e_k U_k = 0.

    True: the claim is sum_k e_k (x_k - x_1) = 0 with x_a = log|1 - zeta_m^a|.
    When u C = 0, with C the closed-form table of `check_matrix`, every
    Fourier coefficient of b -> sum_k c_k x_(bk) over (Z/m)^*/+-1 vanishes
    (c_1 = -sum e_k, c_k = e_k), so the claim, its value at b = 1, holds;
    nothing is evaluated.

    False: otherwise the claim is refuted only by a root where its two
    sides differ mod a split prime.  With z = zeta_2m, n = 2m, S = sum e_k
    and ratio_k = z^(1-k) (1 - z^(2k)) / (1 - z^2), the claim is the
    identity A = B between

        A = z^(sum e_k (1-k)) * prod_{e_k>0} (1 - z^(2k))^(e_k) * (1 - z^2)^max(-S, 0),
        B = prod_{e_k<0} (1 - z^(2k))^(-e_k) * (1 - z^2)^max(S, 0),

    each a product of M = max(sum of positive e_k, sum of |negative e_k|)
    factors 1 - z^c, c = 2k with 1 <= k <= m/2, times a root of unity.  No
    factor vanishes under an embedding z -> zeta_n^j: c j = 0 (mod n) would
    make m divide k j, hence k, as j is a unit.  First, a nonzero entry of
    u X mod n, X the power-residue characters of `character_matrix`, is a
    root z -> w^j at the least split prime q where A/B is not 1 mod q.
    Only a claim on which every character vanishes goes on to the split
    primes below 2^31 of `_products_agree`, at the j in (Z/n)^* with
    j < m.  That half of the roots suffices because A/B is real: up to one
    root of unity common to A and B, both are products of M binomials
    z^(1-k) - z^(1+k) and 1 - z^2, each z^a - z^b with a + b = 2 (mod n),
    which complex conjugation sends to -z^(-2) times itself.  So
    conjugation maps A - B to a root of unity times A - B.  If the primes
    covering M + 1 bits all agree, the norm argument of `_products_agree`
    proves A = B and the claim is True after all.  As L(1, psi) != 0 for
    every even Dirichlet character psi, u C != 0 makes some Fourier
    coefficient nonzero, so that never happens, but neither verdict rests
    on it.

    Both products u C and u X run in int64 when sum |e_k| max(max|C|, n)
    < 2^62, which bounds every entry and partial sum, and in Python ints
    otherwise.  Returns True iff the relation is exactly valid.
    """
    if form.space != U_SPACE:
        raise ValueError("verify_u_relation expects a U-space form")
    if form.m != m:
        raise ValueError(f"form has modulus {form.m}, expected {m}")
    n = 2 * m
    u = form.integer_coeffs()[1]
    g = gcd(*u)
    if not g:
        return True
    if g > 1:
        u = [e // g for e in u]
    check, cmax = check_matrix(m)
    dtype = np.int64 if sum(map(abs, u)) * max(cmax, n) < 1 << 62 else object
    vec = np.array(u, dtype=dtype)
    if not (vec @ check.astype(dtype, copy=False)).any():
        return True
    if (vec @ character_matrix(m).astype(dtype, copy=False) % n).any():
        return False
    exps = {k: e for k, e in enumerate(u, start=2) if e}
    total = sum(u)
    twist = sum(e * (1 - k) for k, e in exps.items()) % n
    left = [(2 * k, e) for k, e in exps.items() if e > 0]
    right = [(2 * k, -e) for k, e in exps.items() if e < 0]
    if total < 0:
        left.append((2, -total))
    elif total > 0:
        right.append((2, total))
    units = [j for j in range(1, m) if gcd(j, n) == 1]
    return _products_agree(n, twist, left, right, units)
