"""Refutation by evaluation, an independent oracle for `cyclotomic.verify_u_relation`.

`verify_u_relation` decides a claim by one exact product u C with the
closed-form even-character table: True by Fourier inversion, False by
L(1, psi) != 0.  This module decides the same claims by evaluating them in
finite fields, with no character table and no L-function, and finds a
witness for every refusal.

Each ratio sin(pi*k/m)/sin(pi/m) is an element of the cyclotomic field of
conductor n = 2m:

    sin(pi*k/m)/sin(pi/m) = z^(1-k) * (1 - z^(2k)) / (1 - z^2),   z = zeta_n,

so after clearing denominators a claim is an identity A = B between a root
of unity times a product of factors 1 - z^c and another such product in
Z[z] (`claim_sides`).  For a prime p = 1 (mod n) and an element w of order
n in F_p, each map z -> w^j with j a unit mod n is a ring homomorphism
Z[z] -> F_p, so a root where the two sides differ mod p disproves the
claim.  Two witnesses are sought:

* a power-residue character at the least split prime q
  (`character_matrix`): a nonzero entry of u X mod n, one integer product,
  is a root where A/B is not 1 mod q (`character_witness`);
* the split primes below 2^31 (`verify_by_split_primes`): every root,
  factor and prime is evaluated in int64 numpy passes (a product of two
  residues stays below 2^62), after one scalar root of the first prime.
  Agreement over primes whose product exceeds 2^(M+1), M the number of
  factors on the larger side, proves A = B by the norm argument of
  `_products_agree`.  The primes of one class in (2^30, 2^31) are finitely
  many, so a claim whose first prime agrees and whose M + 1 bits need more
  of them raises `CertificateLimitError` instead of returning a verdict.

No rounding is involved.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

import numpy as np

from symfreq.cyclotomic import scaled_exponents
from symfreq.intmath import euler_phi, factorize, is_prime

#: Split primes lie in (2^30, 2^31), so the product of two residues fits in int64.
PRIME_BITS = 31

#: Entries (primes x roots x factors) of one array pass, bounding its memory.
_CHUNK = 1 << 16

# conductor n -> [(p, w), ...], the split primes found so far, descending
_SPLIT_PRIMES: dict[int, list[tuple[int, int]]] = {}


class CertificateLimitError(ArithmeticError):
    """A claim whose bound needs more split primes than lie below 2^31."""


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
    unity times D (see `claim_sides`).  Both sides are evaluated at
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


#: Roots z -> w^j of the character table, the first units j below m.
CHARACTER_ROOTS = 2


@lru_cache(maxsize=None)
def character_matrix(m: int) -> np.ndarray:
    """Power-residue characters of the sine ratios at the least split prime.

    With n = 2m, q the least prime = 1 (mod n) and w of order n mod q,
    chi(v) = dlog_w(v^((q-1)/n)) is a homomorphism F_q^* -> Z/n.  Row k - 2,
    column i holds chi(ratio_k(w^j)) for the i-th of the first
    `CHARACTER_ROOTS` units j < m, with ratio_k = z^(1-k) (1 - z^(2k)) /
    (1 - z^2):

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


def reduced_exponents(form) -> dict[int, int]:
    """{k: e_k} of a U-form, scaled to integers and divided by their gcd; empty for 0.

    Each ratio_k is a positive real, and a positive real whose g-th power is
    1 is 1, so the claim holds iff the reduced one does.
    """
    _, exps = scaled_exponents(form)
    g = gcd(*exps.values())
    return {k: e // g for k, e in exps.items()}


def claim_sides(m: int, form):
    """(n, twist, left, right, units) of the identity A = B behind a U-form, or None if it is 0.

    With z = zeta_2m, n = 2m, e_k the `reduced_exponents` and S = sum e_k,

        A = z^(sum e_k (1-k)) * prod_{e_k>0} (1 - z^(2k))^(e_k) * (1 - z^2)^max(-S, 0),
        B = prod_{e_k<0} (1 - z^(2k))^(-e_k) * (1 - z^2)^max(S, 0),

    each a product of M = max(sum of positive e_k, sum of |negative e_k|)
    factors 1 - z^c, c = 2k with 1 <= k <= m/2, times a root of unity.  No
    factor vanishes under an embedding z -> zeta_n^j: c j = 0 (mod n) would
    make m divide k j, hence k, as j is a unit.  The roots are the j in
    (Z/n)^* with j < m.  That half of the roots suffices because A/B is
    real: up to one root of unity common to A and B, both are products of
    M binomials z^(1-k) - z^(1+k) and 1 - z^2, each z^a - z^b with
    a + b = 2 (mod n), which complex conjugation sends to -z^(-2) times
    itself.  So conjugation maps A - B to a root of unity times A - B.
    """
    n = 2 * m
    exps = reduced_exponents(form)
    if not exps:
        return None
    twist = sum(e * (1 - k) for k, e in exps.items()) % n
    total = sum(exps.values())
    left = [(2 * k, e) for k, e in exps.items() if e > 0]
    right = [(2 * k, -e) for k, e in exps.items() if e < 0]
    if total < 0:
        left.append((2, -total))
    elif total > 0:
        right.append((2, total))
    units = [j for j in range(1, m) if gcd(j, n) == 1]
    return n, twist, left, right, units


def verify_by_split_primes(m: int, form) -> bool:
    """Whether the U-form is an exact relation, by evaluation at split primes over M + 1 bits."""
    sides = claim_sides(m, form)
    return sides is None or _products_agree(*sides)


def character_witness(m: int, form) -> bool:
    """Whether some entry of u X mod 2m is nonzero, u the `reduced_exponents` of the form."""
    exps = reduced_exponents(form)
    u = np.zeros(m // 2 - 1, dtype=object)
    for k, e in exps.items():
        u[k - 2] = e
    return bool((u @ character_matrix(m).astype(object) % (2 * m)).any())


def has_refutation_witness(m: int, form) -> bool:
    """Whether the claim is refuted by a character or, failing that, by a split-prime mismatch."""
    return character_witness(m, form) or not verify_by_split_primes(m, form)
