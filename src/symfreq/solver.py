"""Relation-space linear algebra: elimination tables, dimensions, discovery.

Elimination tables and the scan read the closed-form even-character table
of the certificate (`cyclotomic.build_check_matrix`) in S-coordinates,
`relations.s_check_matrix`.  Its left kernel is the S-relation space, so t
is its rank, with no numerics involved.  `express_dependents` reads the one
RREF of that table, `relations.dependence_rref`; the scan needs no
elimination where its trailing block is proven nonsingular
(`trailing_basis`), and that same RREF otherwise.

Discovery (`discover_relations`, behind `symfreq discover`) is an
independent numeric route to the same relation spaces.  It builds the
classical integer-relation lattice over the values U_2..U_m' scaled by
2^(P-64), LLL-reduces it, and treats short rows as candidate integer
relations.  A candidate whose ball sum(c_k U_k) excludes 0 is rejected; the
others are accepted only when the exact cyclotomic certificate confirms
them, so numerics alone never admit a relation.
Accepted relations are filtered to an independent set, the found pivots are
projected out, and the search repeats on the remaining coordinates until a
pass adds nothing new.  The reported dimension is therefore an exact lower
bound on the relation space paired with numeric evidence (the smallest
rejected residual) that nothing further exists at the scanned precision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import frequencies
from .balls import PrecisionContext, mpf_to_fraction
from .cyclotomic import verify_u_relation
from .intmath import euler_phi
from .linalg import (
    LinearForm,
    S_SPACE,
    U_SPACE,
    certify_nonsingular,
    format_terms,
    rat_to_str,
    rref,
    stack_forms,
)
from .lll import lll_reduce
from .relations import (
    CASE_PRIME,
    RelationBasis,
    dependence_rref,
    modulus_profile,
    s_check_matrix,
)


# ----------------------------------------------------------------------
# Elimination tables


@dataclass(frozen=True)
class ExpressionTable:
    """Dependent S-values expressed over a trailing basis.

    Each row (d, coeffs) states S_d = sum_j coeffs[j] * S_j.  trailing_ok
    records whether the pivots occupied exactly the leading columns, i.e.
    whether the trailing values S_{m'-t}..S_{m'-1} really form the basis.
    """

    m: int
    t: int
    rows: tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]
    trailing_ok: bool
    method: str

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "trailing_basis_ok": self.trailing_ok,
            "method": self.method,
            "rows": [
                {"dependent": d, "coeffs": {str(j): rat_to_str(c) for j, c in coeffs}}
                for d, coeffs in self.rows
            ],
        }

    def render_text(self) -> str:
        return "\n".join(
            f"S{d} = " + (format_terms((f"S{j}", c) for j, c in coeffs) or "0")
            for d, coeffs in self.rows
        )


def express_dependents(m: int) -> ExpressionTable:
    """Express the dependent S-values over the free ones.

    The rows are read from the one RREF of the character table,
    `relations.dependence_rref(s_check_matrix(m))`: its pivots are the t
    free values, picked greedily from the right, and each column j without
    a pivot is a dependent S_(m'-1-j) over the free values right of it, one
    coefficient per row.  The table is always produced from the actual
    pivots; trailing_ok flags whether the free values were the trailing
    S_(m'-t)..S_(m'-1).
    """
    if m < 4:
        raise ValueError("expression tables need m >= 4")
    ech = dependence_rref(s_check_matrix(m))
    last = ech.shape[1]  # m' - 1
    pivots = set(ech.pivots)
    rows = list(zip(ech.pivots, ech.nums, ech.dens))[::-1]
    table = tuple(
        (last - j, tuple((last - p, Fraction(row[j], den)) for p, row, den in rows if row[j]))
        for j in reversed(range(last))
        if j not in pivots
    )
    trailing_ok = ech.pivots == tuple(range(ech.rank))
    return ExpressionTable(m, ech.rank, table, trailing_ok, "characters")


# ----------------------------------------------------------------------
# Certified discovery


@dataclass(frozen=True)
class DiscoveryReport:
    m: int
    precision: int
    bound: int
    basis: RelationBasis
    empirical_t: int
    evidence: dict
    warnings: tuple[str, ...] = ()


def _scaled_int(value, shift: int) -> int:
    """Nearest integer to value * 2^shift, from the exact ball midpoint."""
    frac = mpf_to_fraction(value.mid) * Fraction(2) ** shift
    return round(frac)


def _free_indices(m: int, forms: list[LinearForm]) -> list[int]:
    half = m // 2
    idxs = list(range(2, half + 1))
    if not forms:
        return idxs
    pivots = rref(stack_forms(forms)).pivots
    pivot_indices = {idxs[p] for p in pivots}
    return [i for i in idxs if i not in pivot_indices]


def discover_relations(m: int, precision: int = 256, bound: int = 10**6) -> DiscoveryReport:
    """Hunt for integer relations among U_2..U_m' and certify them exactly.

    precision is the ball precision used for the lattice; the scaling
    exponent is precision - 64.  A candidate row surviving LLL goes on only
    when its residual ball sum(c_k U_k), at that precision, contains 0; the
    smallest norm of the rejected rows is reported as evidence.  Every
    accepted relation passed verify_u_relation, and a warning is raised only
    when a candidate whose ball contains 0 fails it.
    """
    if m < 4:
        raise ValueError("discovery needs m >= 4")
    if precision < 128:
        raise ValueError("discovery needs precision >= 128")
    half = m // 2
    ctx = PrecisionContext(precision)
    values = {k: frequencies.u_value(m, k, ctx) for k in range(2, half + 1)}
    shift = precision - 64
    x = {k: _scaled_int(values[k], shift) for k in values}

    verified: list[LinearForm] = []
    warnings: list[str] = []
    min_rejected = math.inf
    passes = 0
    while True:
        passes += 1
        free = _free_indices(m, verified)
        if len(free) < 2:
            break
        rows = []
        for pos, k in enumerate(free):
            row = [0] * len(free) + [x[k]]
            row[pos] = 1
            rows.append(row)
        reduced = lll_reduce(rows)
        found_new = False
        near_miss = False
        # smallest candidates first: once they are verified, the larger rows
        # are usually combinations of them and fail the cheap rank pre-check
        # instead of entering the exact certificate
        for row in sorted(reduced, key=lambda r: sum(map(abs, r[:-1]))):
            coeffs = row[:-1]
            resid = row[-1]
            if not any(coeffs):
                continue
            if max(map(abs, coeffs)) > bound:
                continue
            form = LinearForm.from_map(U_SPACE, m, {k: Fraction(c) for k, c in zip(free, coeffs)})
            if form.is_zero():
                continue
            if not frequencies.evaluate_form(form, ctx).contains_zero():
                # the ball holds the exact value sum c_k U_k, so it is not 0
                min_rejected = min(min_rejected, _row_norm(coeffs, resid, shift))
                continue
            trial = verified + [form]
            if rref(stack_forms(trial)).rank != len(trial):
                continue  # already in the verified span, nothing to gain
            if verify_u_relation(m, form):
                verified = trial
                found_new = True
            else:
                near_miss = True  # its ball contains 0, but it is no relation
        if near_miss and not found_new:
            warnings.append(
                f"candidates at m={m} had residual balls containing 0 but failed the exact "
                f"certificate; consider raising the precision above {precision}"
            )
        if not found_new:
            break

    basis = RelationBasis(m, U_SPACE, tuple(verified), "discovered")
    evidence = {
        "min_rejected_norm": min_rejected,
        "passes": passes,
        "scaling_log2": shift,
    }
    return DiscoveryReport(
        m, precision, bound, basis, (half - 1) - len(verified), evidence, tuple(warnings)
    )


def _row_norm(coeffs, resid: int, shift: int) -> float:
    try:
        r = float(Fraction(resid, 2**shift))
    except OverflowError:
        return math.inf
    s = float(sum(c * c for c in coeffs)) + r * r
    return math.sqrt(s) if s < math.inf else math.inf


@dataclass(frozen=True)
class ScanRow:
    m: int
    case: str
    t: int
    formula_value: int
    formula_applies: bool
    match: bool
    trailing_basis_ok: bool
    method: str

    def to_json(self) -> dict:
        return asdict(self)


def trailing_basis(m: int) -> tuple[int, LinearForm | None]:
    """t, and a relation among S_{m'-t}..S_{m'-1} when those values are no basis of the span.

    Psi = `relations.s_check_matrix(m)` has one column per tau_p and per
    unit b, and its left kernel is the S-relation space, so t is its rank,
    and the trailing values are a basis iff its trailing t rows have rank
    t.  When its trailing t x t block B is proven nonsingular
    (`linalg.certify_nonsingular`, one float64 product), both hold, with no
    elimination.  Otherwise the one RREF `relations.dependence_rref(psi)`
    settles them: t is its rank, and the trailing values are a basis iff
    its pivots are 0..t-1.  Where they are not, its first column j < t
    without a pivot is a trailing value S_(m'-1-j) that depends only on the
    pivot columns left of j, all of them trailing values too; that
    dependence is returned as the coprime integer S-form
    -a S_d + sum_i b_i S_i with a > 0, d = m' - 1 - j, a relation that
    `verify_u_relation` accepts on u C = 0.  The table is built afresh on
    every call, so nothing is kept per modulus.
    """
    psi = s_check_matrix(m)
    t = psi.shape[1]
    if certify_nonsingular(psi[-t:]):
        return t, None
    ech = dependence_rref(psi)
    t = ech.rank
    j = next((j for j, p in enumerate(ech.pivots) if j != p), t)
    if j == t:
        return t, None
    # column j is sum_i R_i[j] times the pivot columns i < j: s_j = -den,
    # s_(pivots[i]) = den R_i[j], read from the bottom of Psi
    den = math.lcm(*ech.dens[:j])
    s = [den * row[j] // d for row, d in zip(ech.nums[:j], ech.dens[:j])] + [-den]
    g = math.gcd(*s)
    return t, LinearForm(S_SPACE, m, (0,) * (len(psi) - j - 1) + tuple(x // g for x in s[::-1]))


def scan_range(lo: int, hi: int) -> list[ScanRow]:
    """Per-modulus dimension and trailing-basis report over a range.

    Each row's t and trailing flag come from `trailing_basis`, and t is
    compared against phi(m)/2 - 1 + omega(m).  Prime m lies outside the
    formula's scope (formula_applies is False): there t = (p-3)/2.
    """
    if lo < 4 or hi < lo:
        raise ValueError("scan needs 4 <= from <= to")
    out = []
    for m in range(lo, hi + 1):
        prof = modulus_profile(m)
        t, witness = trailing_basis(m)
        formula = euler_phi(m) // 2 - 1 + len(prof.factorization)
        applies = prof.case != CASE_PRIME
        out.append(
            ScanRow(m, prof.case, t, formula, applies, t == formula, witness is None, "characters")
        )
    return out
