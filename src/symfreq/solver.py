"""Relation-space linear algebra: elimination tables, dimensions, discovery.

Elimination tables and the scan are views of `relations.RelationSpace`,
which reads the closed-form even-character table of the certificate
(`cyclotomic.build_check_matrix`) in S-coordinates.  Its left kernel is the
S-relation space, so t is its column count, proven (`s_check_matrix`), with
no numerics involved.  `express_dependents` reads the relations, the RREF
of that space, and its trailing flag from their dependents; the scan reads
t and the trailing flag, the nonsingularity of the table's trailing t x t
block, which needs no elimination where that block is proven nonsingular.

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

import numpy as np

from . import frequencies
from .balls import PrecisionContext
from .cyclotomic import verify_u_relation
from .intmath import euler_phi
from .linalg import LinearForm, U_SPACE, format_terms, rat_to_str, rref
from .lll import lll_reduce
from .relations import CASE_PRIME, RelationBasis, RelationSpace, modulus_profile


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

    Each row den S_d - sum_j c_j S_j of `relations.RelationSpace(m).relations`
    gives S_d = sum_j (c_j / den) S_j, over the free values right of S_d,
    picked greedily from the right.  The table is always produced from the
    actual free values; trailing_ok flags whether they were the trailing
    S_(m'-t)..S_(m'-1), that is whether every dependent d is at most
    m'-1-t.  At prime m, t = m'-1 leaves no dependent value, and neither a
    certificate nor an elimination runs.
    """
    if m < 4:
        raise ValueError("expression tables need m >= 4")
    space = RelationSpace(m)
    table = []
    for row in space.relations:
        d, *free = np.flatnonzero(row).tolist()
        table.append((d + 1, tuple((j + 1, Fraction(-row[j], row[d])) for j in free)))
    lead = m // 2 - 1 - space.t
    return ExpressionTable(m, space.t, tuple(table), all(d <= lead for d, _ in table), "characters")


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
    return round(value.mid * 2**shift)


def _free_indices(m: int, forms: list[LinearForm]) -> list[int]:
    half = m // 2
    idxs = list(range(2, half + 1))
    if not forms:
        return idxs
    # row i is form i times its den > 0, which keeps the rank and the pivots
    pivots = rref(np.array([f.nums for f in forms], dtype=object)).pivots
    pivot_indices = {idxs[p] for p in pivots}
    return [i for i in idxs if i not in pivot_indices]


def discover_relations(m: int, precision: int = 256, bound: int = 10**6) -> DiscoveryReport:
    """Hunt for integer relations among U_2..U_m' and certify them exactly.

    precision is the ball precision used for the lattice; the scaling
    exponent is precision - 64.  A candidate row surviving LLL goes on only
    when its residual ball sum(c_k U_k), at that precision, contains 0; the
    smallest norm of the rejected rows within `bound` is reported as
    evidence.  Every accepted relation passed verify_u_relation, and a
    warning is raised only when a candidate whose ball contains 0 fails it
    or is skipped for a coefficient above `bound`.
    """
    if m < 4:
        raise ValueError("discovery needs m >= 4")
    if precision < 128:
        raise ValueError("discovery needs precision >= 128")
    if bound < 1:
        raise ValueError("discovery needs a coefficient bound >= 1")
    half = m // 2
    ctx = PrecisionContext(precision)
    values = {k: frequencies.u_value(m, k, ctx) for k in range(2, half + 1)}
    shift = precision - 64
    x = {k: _scaled_int(values[k], shift) for k in values}

    verified: list[LinearForm] = []
    warnings: list[str] = []
    min_rejected = math.inf
    over_bound = False
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
            form = LinearForm.from_map(U_SPACE, m, dict(zip(free, coeffs)))
            if form.is_zero():
                continue
            within = max(map(abs, coeffs)) <= bound
            if not frequencies.evaluate_form(form, ctx).contains_zero():
                # the ball holds the exact value sum c_k U_k, so it is not 0
                if within:
                    min_rejected = min(min_rejected, _row_norm(coeffs, resid, shift))
                continue
            if not within:
                over_bound = True  # possibly a relation, but beyond the bound
                continue
            trial = verified + [form]
            if rref(np.array([f.nums for f in trial], dtype=object)).rank != len(trial):
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
    if over_bound:
        warnings.append(
            f"candidates at m={m} had residual balls containing 0 but a coefficient above "
            f"the bound {bound}; consider raising the bound"
        )

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


def scan_range(lo: int, hi: int) -> list[ScanRow]:
    """Per-modulus dimension and trailing-basis report over a range.

    Each row's t and trailing flag come from `relations.RelationSpace`: t
    is the column count of the character table, a theorem at every m, and
    the flag whether its trailing t x t block is nonsingular.  t is
    compared against phi(m)/2 - 1 + omega(m); `match` is a corollary of the
    theorem at every composite m, kept as a field of the row.  Prime m lies
    outside the formula's scope (formula_applies is False): there
    t = (p-3)/2.
    """
    if lo < 4 or hi < lo:
        raise ValueError("scan needs 4 <= from <= to")
    out = []
    for m in range(lo, hi + 1):
        prof = modulus_profile(m)
        space = RelationSpace(m)
        t, ok = space.t, space.trailing_ok
        formula = euler_phi(m) // 2 - 1 + len(prof.factorization)
        applies = prof.case != CASE_PRIME
        out.append(ScanRow(m, prof.case, t, formula, applies, t == formula, ok, "characters"))
    return out
