"""Relation-space linear algebra: elimination tables, dimensions, discovery.

Elimination tables, the dimension check and the scan take their relations
from `relation_basis`: the constructed basis for the covered shapes and the
cyclotomic-identity basis otherwise.  Both are exact and complete, so the
t they report is the dimension of the span, with no numerics involved.

Discovery (`discover_relations`, behind `symfreq discover`) is an
independent numeric route to the same relation spaces.  It builds the
classical integer-relation lattice over the values U_2..U_m' scaled by
2^(P-64), LLL-reduces it, and treats short rows as candidate integer
relations.  A candidate is accepted only when the exact
cyclotomic certificate confirms it; numerics alone never admit a relation.
Accepted relations are filtered to an independent set, the found pivots are
projected out, and the search repeats on the remaining coordinates until a
pass adds nothing new.  The reported dimension is therefore an exact lower
bound on the relation space paired with numeric evidence (the smallest
rejected residual) that nothing further exists at the scanned precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import frequencies
from .balls import PrecisionContext, mpf_to_fraction
from .cyclotomic import verify_u_relation
from .intmath import euler_phi
from .linalg import LinearForm, U_SPACE, rat_to_str, rref, stack_forms
from .lll import lll_reduce
from .relations import (
    CASE_PRIME,
    RelationBasis,
    UnsupportedModulus,
    closed_form_count,
    identity_u_basis,
    modulus_profile,
    phi_forward,
    u_basis,
)


def s_relation_basis(m: int) -> list[LinearForm]:
    """Constructed S-space relation basis: the image of the U-basis."""
    return [phi_forward(f) for f in u_basis(m).forms]


def relation_basis(m: int) -> RelationBasis:
    """Exact relation basis for any m >= 4.

    The constructed basis for the covered shapes (it fixes the golden table
    layouts and is the cheaper of the two), the cyclotomic-identity basis
    otherwise; the provenance says which.
    """
    try:
        return u_basis(m)
    except UnsupportedModulus:
        return identity_u_basis(m)


def closed_form_dimension(m: int) -> int | None:
    """Relation-space dimension for the covered shapes, None otherwise."""
    if m < 4:
        raise ValueError("dimension formulas need m >= 4")
    return closed_form_count(m)


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
        lines = []
        for d, coeffs in self.rows:
            if not coeffs:
                lines.append(f"S{d} = 0")
                continue
            parts = []
            for j, c in coeffs:
                mag = abs(c)
                term = f"S{j}" if mag == 1 else f"{rat_to_str(mag)}*S{j}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                else:
                    parts.append(f"+ {term}" if c > 0 else f"- {term}")
            lines.append(f"S{d} = " + " ".join(parts))
        return "\n".join(lines)


def express_dependents(m: int, sforms: list[LinearForm] | None = None) -> ExpressionTable:
    """Eliminate the S-relation matrix and express dependent S-values.

    Without sforms the relations come from relation_basis(m) and the method
    is its provenance; given sforms, the method is "provided".  The table is
    always produced from the actual pivots; trailing_ok flags whether they
    were the leading columns.
    """
    if m < 4:
        raise ValueError("expression tables need m >= 4")
    half = m // 2
    method = "provided"
    if sforms is None:
        basis = relation_basis(m)
        sforms = [phi_forward(f) for f in basis.forms]
        method = basis.provenance
    if not sforms:
        return ExpressionTable(m, half - 1, (), True, method)
    result = rref(stack_forms(sforms))
    rank = result.rank
    t = (half - 1) - rank
    trailing_ok = result.pivots == tuple(range(rank))
    rows = []
    pivot_set = set(result.pivots)
    for i, pcol in enumerate(result.pivots):
        entries = result.matrix.entries[i]
        coeffs = tuple(
            (c + 1, -entries[c]) for c in range(half - 1) if c not in pivot_set and entries[c] != 0
        )
        rows.append((pcol + 1, coeffs))
    return ExpressionTable(m, t, tuple(rows), trailing_ok, method)


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
    exponent is precision - 64, so a candidate row surviving LLL has residual
    below its own coefficient mass only if the relation is plausible.  Every
    accepted relation passed verify_u_relation; rejected near-misses are
    reported as evidence.
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
        # instead of entering the (comparatively costly) exact certificate
        for row in sorted(reduced, key=lambda r: sum(map(abs, r[:-1]))):
            coeffs = row[:-1]
            resid = row[-1]
            if not any(coeffs):
                continue
            if max(map(abs, coeffs)) > bound:
                continue
            l1 = sum(map(abs, coeffs))
            if abs(resid) > l1:
                # cannot be an exact relation: |x_k - U_k 2^shift| <= 0.51
                min_rejected = min(min_rejected, _row_norm(coeffs, resid, shift))
                continue
            form = LinearForm.from_map(U_SPACE, m, {k: Fraction(c) for k, c in zip(free, coeffs)})
            if form.is_zero():
                continue
            trial = verified + [form]
            if rref(stack_forms(trial)).rank != len(trial):
                continue  # already in the verified span, nothing to gain
            if l1 > 50000:
                warnings.append(
                    f"skipped a rank-increasing candidate at m={m} with coefficient "
                    f"mass {l1}; certificate cost would be excessive"
                )
                continue
            if verify_u_relation(m, form):
                verified = trial
                found_new = True
            else:
                near_miss = True
        if near_miss and not found_new:
            warnings.append(
                f"candidates at m={m} passed the numeric filter but failed the exact "
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


# ----------------------------------------------------------------------
# The dimension formula


@dataclass(frozen=True)
class ConjectureRecord:
    m: int
    t: int
    formula_value: int
    match: bool
    method: str
    formula_applies: bool

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "formula_value": self.formula_value,
            "match": self.match,
            "method": self.method,
            "formula_applies": self.formula_applies,
        }


def conjecture_check(m: int) -> ConjectureRecord:
    """Compare the span dimension t against phi(m)/2 - 1 + omega(m).

    t = m' - 1 - dim, where dim is the size of relation_basis(m): an exact,
    complete basis of the relation space, so t is the span dimension itself
    for every m.  Prime m is flagged as outside the formula's scope: there
    t = (p-3)/2.
    """
    prof = modulus_profile(m)
    basis = relation_basis(m)
    t = (m // 2 - 1) - len(basis.forms)
    formula = euler_phi(m) // 2 - 1 + len(prof.factorization)
    return ConjectureRecord(
        m, t, formula, t == formula, basis.provenance, prof.case != CASE_PRIME
    )


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
        return {
            "m": self.m,
            "case": self.case,
            "t": self.t,
            "formula_value": self.formula_value,
            "formula_applies": self.formula_applies,
            "match": self.match,
            "trailing_basis_ok": self.trailing_basis_ok,
            "method": self.method,
        }


def scan_range(lo: int, hi: int) -> list[ScanRow]:
    """Per-modulus dimension and trailing-basis report over a range."""
    if lo < 4 or hi < lo:
        raise ValueError("scan needs 4 <= from <= to")
    out = []
    for m in range(lo, hi + 1):
        prof = modulus_profile(m)
        table = express_dependents(m)
        formula = euler_phi(m) // 2 - 1 + len(prof.factorization)
        applies = prof.case != CASE_PRIME
        out.append(
            ScanRow(
                m,
                prof.case,
                table.t,
                formula,
                applies,
                table.t == formula,
                table.trailing_ok,
                table.method,
            )
        )
    return out
