"""Exact rational linear algebra: linear forms and the reduced row echelon form.

A `LinearForm` stores its coefficients as integers over one denominator
and reads them out as `fractions.Fraction`, which keeps every value in
canonical form (positive denominator, gcd-reduced).  The wire format for a
rational is the string "p/q", or just "p" when q = 1, with a leading "-" for
negatives; this is exactly what `str(Fraction)` produces.

`rref` is the package's one elimination routine, on one integer matrix:
modular elimination, then rational reconstruction, then an exact check that
makes the result a proof.  It returns the pivots and each nonzero row as
integer numerators over one positive denominator; no Fraction is built.
`certify_nonsingular` proves a square integer matrix nonsingular with no
elimination, by one exact float64 product.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .intmath import is_prime

S_SPACE = "S"
U_SPACE = "U"


def rat_to_str(q: Fraction) -> str:
    return str(Fraction(q))


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def ratio_from_str(s: str) -> tuple[int, int]:
    """The rational of a wire string as integers (p, q), q > 0, not reduced.

    The wire forms "p" and "p/q", an optional sign and ASCII digits, are
    read with int alone, past Fraction's regular expression; every other
    string goes to Fraction(s.strip()).  A zero q raises ZeroDivisionError
    either way.
    """
    num, slash, den = s.partition("/")
    if _is_digits(num[1:] if num[:1] in ("+", "-") else num):
        if not slash:
            return int(num), 1
        if _is_digits(den):
            q = int(den)
            if not q:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            return int(num), q
    return Fraction(s.strip()).as_integer_ratio()


def format_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Nonzero (variable, coefficient) terms as "X1 - 2*X2 + 1/3*X4"; "" if none."""
    parts = []
    for var, c in terms:
        mag = abs(c)
        term = var if mag == 1 else f"{rat_to_str(mag)}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


_ZERO = Fraction(0)


def _ratio(c) -> tuple[int, int]:
    """Fraction(c) in lowest terms as a pair of Python ints, for ints, Fractions, numpy integers, floats and the like."""
    if type(c) in (int, Fraction):
        return c.as_integer_ratio()
    f = Fraction(c)
    return int(f.numerator), int(f.denominator)


@dataclass(frozen=True, init=False)
class LinearForm:
    """A rational linear form over the S- or U-variables of a fixed modulus.

    For modulus m with m' = floor(m/2), both spaces hold m' - 1 coefficients:
    S-space covers indices 1..m'-1 and U-space covers 2..m' (index 1 of the
    U-space is excluded; that variable is identically zero by convention).

    The coefficients are stored as integers over one denominator: `den` is
    the lcm of their reduced denominators and `nums` the coefficients times
    `den`, so den > 0 and gcd(den, *nums) = 1.  That pair is unique to the
    coefficient vector, so equality and hashing on (space, m, den, nums) are
    equality of the rational coefficients.  `LinearForm(space, m, coeffs,
    den=1)` is the form coeffs / den, for coeffs ints, Fractions or a mix and
    den a positive int; all-int coefficients over den = 1 are stored as
    given, with no Fraction built.  `coeffs`, the Fraction tuple, is built
    only when it is read.
    """

    space: str
    m: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, space: str, m: int, coeffs: Iterable, den: int = 1):
        if space not in (S_SPACE, U_SPACE):
            raise ValueError(f"unknown space {space!r}")
        if m < 4:
            raise ValueError("linear forms need a modulus m >= 4")
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        nums = tuple(coeffs)
        expected = m // 2 - 1
        if len(nums) != expected:
            raise ValueError(
                f"space {space} at m={m} needs {expected} coefficients, got {len(nums)}"
            )
        types, scale = set(map(type, nums)), 1
        if not types <= {int}:
            pairs = list(map(_ratio, nums))
            scale = math.lcm(*{d for _, d in pairs})
            nums = tuple([n * (scale // d) for n, d in pairs] if scale != 1 else [n for n, _ in pairs])
        if den != 1:
            # gcd(scale, *nums) = 1, so only den can share a factor with nums
            g = math.gcd(den, *nums)
            if g != 1:
                den, nums = den // g, tuple(n // g for n in nums)
        den *= scale
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @property
    def first_index(self) -> int:
        return 1 if self.space == S_SPACE else 2

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, every zero the one shared Fraction(0)."""
        den = self.den
        return tuple([Fraction(n, den) if n else _ZERO for n in self.nums])

    @classmethod
    def zero(cls, space: str, m: int) -> "LinearForm":
        return cls(space, m, (0,) * (m // 2 - 1))

    @classmethod
    def from_map(cls, space: str, m: int, coeffs: Mapping[int, Fraction]) -> "LinearForm":
        """Build a form from an {index: coefficient} mapping.

        U-space index 1 is dropped silently (the corresponding value is 0);
        any other out-of-range index is an error.  The coefficients are
        summed as integer numerators over the lcm of their denominators.
        """
        return cls._from_ratios(space, m, [(idx, _ratio(c)) for idx, c in coeffs.items()])

    @classmethod
    def _from_ratios(cls, space: str, m: int, ratios: Iterable[tuple[int, tuple[int, int]]]) -> "LinearForm":
        """`from_map` over (index, (numerator, denominator > 0)) pairs."""
        first = 1 if space == S_SPACE else 2
        vec = [0] * (m // 2 - 1)
        terms = []
        for idx, (n, d) in ratios:
            idx = int(idx)
            if space == U_SPACE and idx == 1:
                continue
            if not first <= idx <= first + len(vec) - 1:
                raise ValueError(
                    f"index {idx} out of range {first}..{first + len(vec) - 1} "
                    f"for space {space} at m={m}"
                )
            terms.append((idx - first, n, d))
        den = math.lcm(*{d for _, _, d in terms})
        for i, n, d in terms:
            vec[i] += n * (den // d)
        return cls(space, m, vec, den)

    def items(self) -> list[tuple[int, Fraction]]:
        """Nonzero (index, coefficient) pairs, index ascending."""
        first, den = self.first_index, self.den
        return [(first + i, Fraction(n, den)) for i, n in enumerate(self.nums) if n]

    def is_zero(self) -> bool:
        return not any(self.nums)


def form_to_json(form: LinearForm, provenance: str | None = None) -> dict:
    out: dict = {
        "m": form.m,
        "space": form.space,
        "coeffs": {str(i): rat_to_str(c) for i, c in form.items()},
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def form_from_json(obj: Mapping) -> LinearForm:
    try:
        m = obj["m"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise ValueError(f"modulus {m!r} is not an integer")
        space = str(obj["space"])
        ratios = [(int(k), ratio_from_str(str(v))) for k, v in obj["coeffs"].items()]
        if len({k for k, _ in ratios}) != len(ratios):
            # keys such as "2" and "02" name one index twice
            twice = Counter(k for k, _ in ratios).most_common(1)[0][0]
            raise ValueError(f"index {twice} appears twice")
        # int() also reads " 6", "+3", "1_0" and non-ASCII digits
        odd = [k for k in obj["coeffs"] if not (k.isascii() and k.isdigit())]
        if odd:
            raise ValueError(f"index {odd[0]!r} is not written in ASCII digits")
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed relation object: {exc}") from exc
    return LinearForm._from_ratios(space, m, ratios)


@dataclass(frozen=True)
class RrefResult:
    """The RREF: nonzero row i is nums[i] / dens[i], with pivot column pivots[i].

    nums holds Python int rows and dens positive ints.
    """

    pivots: tuple[int, ...]
    nums: list[list[int]]
    dens: list[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(mat: np.ndarray) -> RrefResult:
    """The reduced row echelon form over Q of a 2-D integer matrix.

    mat is an int64 array, or an object array of Python ints; any other
    input raises ValueError.  Returns the pivot columns and the nonzero rows
    of the unique RREF, one per pivot.  The integer matrix is reduced over
    Z/p for primes p < 2^31, so that products of residues fit in int64.  The
    reduced rows of all primes with the same pivots are combined by the CRT,
    and every row is recovered by rational reconstruction with one
    denominator per row (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 5).  The result R is returned only after an exact check: R
    has unit pivot columns and zeros left of its pivots, and every input row
    a equals the sum over i of a[pivot_i] * R_i.  So span(input) lies in
    span(R), which has dimension rank(R) = rank over Z/p <= rank over Q =
    dim span(input); the spans are equal and R is the RREF.  A prime whose
    pivots come later than another's is dropped: it divides a minor of the
    matrix.  Until the check passes, primes are added; past the Hadamard
    bound, where the check cannot fail for a correct reduction,
    ArithmeticError is raised instead.
    """
    if not isinstance(mat, np.ndarray) or mat.ndim != 2:
        raise ValueError("rref takes a 2-D numpy integer matrix")
    ints = mat.tolist()
    if mat.dtype != np.int64 and not (mat.dtype == object and all(type(x) is int for row in ints for x in row)):
        raise ValueError(f"rref takes int64 or Python ints, not {mat.dtype}")
    if not mat.size:
        return RrefResult((), [], [])
    best = modulus = residues = None
    spent, budget = 0, None
    for p in _primes():
        pivots, reduced = _echelon_mod((mat % p).astype(np.int64), p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, residues = key, p, reduced
        elif key == best:
            residues = _crt(residues, modulus, reduced, p)
            modulus *= p
        if key == best:
            fracs = _reconstruct(residues, modulus)
            if fracs is not None and _verified(ints, mat, pivots, *fracs):
                nums, dens = fracs
                return RrefResult(pivots, nums.tolist(), dens.tolist())
        spent += p.bit_length()
        if budget is None:
            # bad primes divide one nonzero minor, and reconstruction
            # needs a modulus above twice its square
            budget = 3 * _hadamard_bits(ints) + 64
        if spent > budget:
            raise ArithmeticError("modular elimination failed its exact check")


_PRIMES: list[int] = []


def _primes():
    """The primes below 2^31, descending."""
    for i in itertools.count():
        if i == len(_PRIMES):
            q = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
            while not is_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[i]


def _echelon_mod(a: np.ndarray, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Pivots and nonzero rows of the RREF over Z/p of a (entries in [0, p)).

    Reduces a in place, with one vectorised update per pivot of the rows
    that have a nonzero entry in its column.
    """
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, col])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        pivot_row = a[r, col:] * pow(int(a[r, col]), -1, p) % p
        a[r, col:] = pivot_row
        factors = a[:, col].copy()
        factors[r] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            a[hit, col:] = (a[hit, col:] - factors[hit, None] * pivot_row) % p
        pivots.append(col)
        r += 1
    return tuple(pivots), a[:r]


def _crt(x: np.ndarray, m: int, y: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m*p that are x mod m and y mod p."""
    x = x.astype(object)
    lift = (y - (x % p).astype(np.int64)) * pow(m, -1, p) % p
    return x + m * lift.astype(object)


def _reconstruct(x: np.ndarray, m: int):
    """Numerators s and row denominators d with s = d x (mod m), or None.

    Every |s| and d is at most b = isqrt(m / 2).  Each row starts from d = 1;
    while an entry of d x is out of range, d is multiplied by that entry's
    reconstructed denominator.
    """
    bound = math.isqrt(m // 2)
    dens = np.ones(len(x), dtype=x.dtype)
    y = x
    while True:
        nums = np.where(y > m // 2, y - m, y)
        out = np.abs(nums) > bound
        bad = np.flatnonzero(out.any(axis=1))
        if not bad.size:
            return nums, dens
        for i, j in zip(bad, out[bad].argmax(axis=1)):
            e = _denominator(int(y[i, j]), m, bound)
            if e is None or dens[i] * e > bound:
                return None
            dens[i] *= e
        y = x * dens[:, None] % m


def _denominator(u: int, m: int, bound: int) -> int | None:
    """The denominator b > 1 of a/b = u (mod m) with |a|, b <= bound, or None."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 1 < abs(t1) <= bound else None


def _verified(ints, mat, pivots, nums, dens) -> bool:
    """Whether R_i = nums_i / dens_i is in RREF shape and contains every row.

    The containment a = sum_i a[pivot_i] R_i is checked on the free columns
    (the shape settles the pivot columns), after clearing the common
    denominator D, with every entry and partial sum of either side below
    2^(W-1) in absolute value.  When that bound is below 2^53 all rows are
    checked at once as one float64 matrix identity, which is exact: every
    product and every partial sum, in whatever order the matrix product
    adds them, is an integer below 2^53.  Otherwise each row is one integer
    identity, with both sides packed into slots of W bits.
    """
    rank, ncols = nums.shape
    if rank:
        piv = np.array(pivots)
        if nums[np.arange(ncols) < piv[:, None]].any():
            return False
        if (nums[:, piv] != np.diag(dens)).any():
            return False
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    dens = dens.tolist()
    common = math.lcm(*dens)
    free_nums = [
        [x * (common // d) for x in row] for row, d in zip(nums[:, free].tolist(), dens)
    ]
    amax = max(int(mat.max(initial=0)), -int(mat.min(initial=0)))
    nmax = max((abs(x) for row in free_nums for x in row), default=0)
    bound = common * amax + rank * amax * nmax
    if bound >> 53 == 0:
        free_mat = np.array(free_nums, dtype=np.float64).reshape(rank, len(free))
        lhs = (common * mat[:, free]).astype(np.float64)
        return np.array_equal(lhs, mat[:, list(pivots)].astype(np.float64) @ free_mat)
    width = bound.bit_length() // 8 + 1
    zero = bytes(width - 1) + b"\x80"  # 2^(W-1), the offset of each slot
    offsets = int.from_bytes(zero * len(free), "little")
    half = 1 << (8 * width - 1)

    def pack(vals) -> int:
        data = b"".join([(v + half).to_bytes(width, "little") if v else zero for v in vals])
        return int.from_bytes(data, "little") - offsets

    packed = [pack(row) for row in free_nums]
    for a in ints:
        combo = sum(a[c] * pr for c, pr in zip(pivots, packed) if a[c])
        if common * pack([a[j] for j in free]) != combo:
            return False
    return True


def _hadamard_bits(ints) -> int:
    """log2 of the Hadamard bound on every minor of the rows, rounded up."""
    return sum((sum(x * x for x in row).bit_length() + 1) // 2 for row in ints)


def certify_nonsingular(b: np.ndarray) -> bool:
    """Whether the square integer matrix b is proven nonsingular over Q; False leaves it open.

    With n = len(b), 2^e max|b| n <= 2^52, the float64 inverse of b is
    scaled by 2^k and rounded to R with |R| <= 2^(e-1).  Every product and
    partial sum of R b is then an integer below 2^51, so the float64 product
    is exact, in whatever order it adds, and so is E = R b - 2^k I for
    0 <= k <= 52.  If every row of |E| sums below 2^k, then
    2^-k R b = I + F with ||F||_inf < 1 is invertible, hence so is b.  The
    row sums are float sums of nonnegative integers; one that comes out
    below 2^k <= 2^52 is exact, as rounding is monotone and every integer up
    to 2^53 is a float64.  For an accurate inverse, 2^k < 2^(e-1) n max|b|,
    so k <= 51.
    """
    n = len(b)
    e = ((1 << 52) // max(n * int(np.abs(b).max(initial=0)), 1)).bit_length() - 1
    if e < 1:
        return False
    mat = b.astype(np.float64)
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return False
    amax = float(np.abs(inv).max(initial=0))
    if not 0 < amax < math.inf:
        return False
    k = e - 1 - math.frexp(amax)[1]  # amax < 2^frexp, so |2^k inv| < 2^(e-1)
    if not 0 <= k <= 52:
        return False
    err = np.rint(np.ldexp(inv, k)) @ mat - np.ldexp(np.eye(n), k)
    return bool((np.abs(err).sum(axis=1) < 2.0**k).all())
