"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import json
import time
from fractions import Fraction as F

import mpmath
import pytest

from ball_ops import contains_fraction, overlaps
from closed_form import closed_form_count
from series_oracle import h_series
from symfreq import balls
from symfreq.balls import PrecisionContext
from symfreq.cli import main
from symfreq.cyclotomic import verify_u_relation
from symfreq.frequencies import h_value, s_value, u_value
from rref_rows import stack_forms
from symfreq.linalg import LinearForm, U_SPACE, rref
from symfreq.relations import UnsupportedModulus, phi_inverse, short_s_relation, u_basis
from symfreq.relations import modulus_profile
from symfreq.solver import discover_relations, express_dependents, scan_range


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stream=buf)
    return code, buf.getvalue()


def report(n, message):
    print(f"ACCEPTANCE {n:>2} PASS  {message}")


# Golden data transcribed from the worked examples.

M27_S_RELATIONS = [
    (1, 1, 0, -1, -2, -2, -3, -3, -3, -2, -2, -2),
    (1, 2, 2, 1, -1, -3, -5, -6, -7, -7, -7, -6),
    (3, 5, 3, 0, -4, -8, -13, -15, -16, -14, -13, -12),
]
M27_TABLE = {
    1: {4: 1, 5: 3, 6: 1, 7: 1, 9: 1, 10: 1, 11: 3, 12: 2},
    2: {5: -1, 6: 1, 7: 2, 8: 3, 9: 2, 10: 1, 11: -1},
    3: {4: -1, 9: 1, 10: 2, 11: 3, 12: 2},
}
M32_TABLE = {
    1: {8: 1, 9: 2, 10: 2, 11: 2, 12: 4, 13: 5, 14: 7, 15: 8},
    2: {10: 2, 11: 4, 12: 2, 13: 2, 14: 1},
    3: {11: -1, 12: 1, 13: 2, 14: 3, 15: 4},
    4: {8: 1, 9: 2},
    5: {9: -1, 10: 1, 11: 2, 12: 1},
    6: {8: -1, 12: 1, 13: 2, 14: 1},
    7: {14: 1, 15: 2},
}
M35_U_RELATIONS = [
    {2: 1, 5: 2, 6: -1, 8: -1, 9: 1, 10: -1, 12: 1, 13: -1, 15: -1, 16: 1},
    {3: 1, 4: 1, 5: 1, 6: -1, 8: -1, 10: 1, 11: 1, 13: -1, 15: -2, 17: 1},
    {2: 1, 3: 1, 4: -1, 6: -1, 7: 2, 8: 1, 9: -1, 11: -1, 12: 1, 13: 1, 14: -2, 16: -1, 17: 1},
]
M35_TABLE = {
    1: {4: -1, 5: 1, 6: 2, 7: 3, 8: 3, 9: 5, 10: 4, 11: 2, 12: 2, 13: 1, 15: -1},
    2: {4: 1, 5: -1, 6: -3, 7: -3, 8: -1, 9: -2, 11: 2, 12: 3, 13: 6, 14: 7, 15: 8, 16: 6},
    3: {4: -1, 5: 1, 6: 3, 7: 3, 8: 1, 9: 1, 13: -2, 14: -2, 15: -3, 16: -2},
}


def table_to_int_dicts(payload_rows):
    return {
        int(r["dependent"]): {int(j): F(c) for j, c in r["coeffs"].items()}
        for r in payload_rows
    }


def test_criterion_01_h41():
    t0 = time.perf_counter()
    code, out = run_cli("freq", "--m", "4", "--kind", "H", "--index", "1", "--prec", "256")
    elapsed = time.perf_counter() - t0
    assert code == 0
    val = json.loads(out)["payload"]["values"][0]["value"]
    assert mpmath.mpf(val["rad"]) <= mpmath.ldexp(1, -200)
    # exact containment through the library surface
    ball = h_value(4, 1, PrecisionContext(256))
    assert contains_fraction(ball, F(1, 2))
    assert ball.rad <= F(1, 2**200)
    assert elapsed < 1.0
    report(1, f"H(4,1) ball contains 1/2, radius <= 2^-200, CLI in {elapsed:.2f}s")


def test_criterion_02_inhomogeneous_m12():
    ctx = PrecisionContext(256)
    acc = h_value(12, 1, ctx)
    for d in (6, 7, 8):
        acc = balls.ball_sub(acc, h_value(12, d, ctx))
    assert contains_fraction(acc, F(1, 3))
    report(2, "H(12,1) - H(12,6) - H(12,7) - H(12,8) contains 1/3 at P=256")


def test_criterion_03_m27_golden():
    t0 = time.perf_counter()
    code, out = run_cli("basis", "--m", "27", "--space", "S")
    assert code == 0
    rels = json.loads(out)["payload"]["relations"]
    got = [
        tuple(F(r["coeffs"].get(str(i), "0")) for i in range(1, 13)) for r in rels
    ]
    assert got == [tuple(F(x) for x in row) for row in M27_S_RELATIONS]

    code, out = run_cli("express", "--m", "27")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["t"] == 9 and payload["trailing_basis_ok"]
    assert table_to_int_dicts(payload["rows"]) == {
        d: {j: F(c) for j, c in row.items()} for d, row in M27_TABLE.items()
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"m=27 S-basis and elimination table match the worked example ({elapsed:.2f}s)")


def test_criterion_04_m32_table():
    code, out = run_cli("express", "--m", "32")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["t"] == 8 and payload["trailing_basis_ok"]
    assert table_to_int_dicts(payload["rows"]) == {
        d: {j: F(c) for j, c in row.items()} for d, row in M32_TABLE.items()
    }
    report(4, "m=32 elimination table reproduces all seven printed equations")


def test_criterion_05_m35_golden():
    code, out = run_cli("basis", "--m", "35", "--space", "U")
    assert code == 0
    rels = json.loads(out)["payload"]["relations"]
    got = [{int(k): F(v) for k, v in r["coeffs"].items()} for r in rels]
    assert got == [{k: F(v) for k, v in row.items()} for row in M35_U_RELATIONS]

    code, out = run_cli("express", "--m", "35")
    payload = json.loads(out)["payload"]
    assert payload["t"] == 13 and payload["trailing_basis_ok"]
    assert table_to_int_dicts(payload["rows"]) == {
        d: {j: F(c) for j, c in row.items()} for d, row in M35_TABLE.items()
    }
    report(5, "m=35 U-basis emitted verbatim; elimination table matches")


def test_criterion_06_certificate_sweep():
    t0 = time.perf_counter()
    relations = perturbations = 0
    for m in range(4, 101):
        try:
            basis = u_basis(m)
        except UnsupportedModulus:
            continue
        for form in basis.forms:
            assert verify_u_relation(m, form), (m, form)
            relations += 1
            for i in range(len(form.coeffs)):
                bumped = list(form.coeffs)
                bumped[i] += 1
                assert not verify_u_relation(m, LinearForm(U_SPACE, m, tuple(bumped))), (m, i)
                perturbations += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        6,
        f"{relations} constructed relations certified and {perturbations} "
        f"single-coefficient perturbations rejected in {elapsed:.1f}s",
    )


def test_criterion_07_dimension_counts():
    checked = 0
    for m in range(4, 101):
        expect = closed_form_count(m)
        if expect is None:
            continue
        forms = u_basis(m).forms
        assert len(forms) == expect, m
        rank = rref(stack_forms(forms)).rank if forms else 0
        assert rank == expect, m
        checked += 1
    report(7, f"basis sizes equal the closed-form counts with full rank for {checked} moduli <= 100")


def test_criterion_08_short_relation_sweep():
    verified = 0
    for m in range(10, 61, 2):
        rel = short_s_relation(m)
        half = m // 2
        expect_exists = half % 3 in (1, 2) and (
            (half % 3 == 1 and (half - 1) // 3 >= 2) or (half % 3 == 2 and (half + 1) // 3 >= 2)
        )
        assert (rel is not None) == expect_exists, m
        if rel is None:
            continue
        assert verify_u_relation(m, phi_inverse(rel)), m
        verified += 1
    report(8, f"short S-relations exactly certified for {verified} even moduli <= 60")


def test_criterion_09_telescoping():
    ctx = PrecisionContext(128)
    count = 0
    for m in range(4, 31):
        half = m // 2
        svals = {d: s_value(m, d, ctx) for d in range(1, half)}
        for k in range(1, half):
            rhs = balls.ball_from_fraction(0, ctx.wp)
            for d in range(1, half):
                rhs = balls.ball_add(rhs, balls.ball_mul_int(svals[d], min(d, k)))
            assert overlaps(u_value(m, k + 1, ctx), rhs), (m, k)
            count += 1
    report(9, f"telescoping identities hold in ball arithmetic for {count} (m, k) pairs, m <= 30")


def test_criterion_10_discovery_equivalence():
    def same_span(a, b):
        a, b = list(a), list(b)
        ra = rref(stack_forms(a)).rank if a else 0
        rb = rref(stack_forms(b)).rank if b else 0
        if ra != rb:
            return False
        if not a and not b:
            return True
        return rref(stack_forms(a + b)).rank == ra

    worst = 0.0
    for m in (14, 15, 16, 21, 25, 27, 32, 35):
        t0 = time.perf_counter()
        rep = discover_relations(m, 512, 10**6)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60.0, (m, elapsed)
        constructed = u_basis(m).forms
        assert len(rep.basis.forms) == len(constructed), m
        assert same_span(rep.basis.forms, constructed), m
        for form in rep.basis.forms:
            assert verify_u_relation(m, form), m
    report(10, f"discovered spans equal constructed spans at P=512 (slowest modulus {worst:.1f}s)")


def test_criterion_11_conjecture_scan():
    t0 = time.perf_counter()
    code, out = run_cli("scan", "--from", "4", "--to", "35")
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert [r["m"] for r in rows] == list(range(4, 36))
    for r in rows:
        assert r["trailing_basis_ok"], r["m"]
        if r["formula_applies"]:
            assert r["match"], r["m"]
        else:
            assert r["t"] == (r["m"] - 3) // 2, r["m"]
    elapsed = time.perf_counter() - t0
    report(
        11,
        f"scan 4..35: every composite matches t = phi(m)/2 - 1 + omega(m), trailing basis "
        f"holds throughout, prime rows carry (p-3)/2 ({elapsed:.1f}s)",
    )


def test_criterion_12_series_oracle_agreement():
    pairs = 0
    for m in range(1, 13):
        ctx = PrecisionContext(128)
        for d in range(1, m + 1):
            if m == 1:
                series = h_series(1, 1, 10**6)
                assert contains_fraction(series, 1)
                pairs += 1
                continue
            hv = h_value(m, d, ctx)
            hs = h_series(m, d, 10**6)
            assert overlaps(hv, hs), (m, d)
            pairs += 1
    report(12, f"series oracle agrees with the closed form for {pairs} (m, d) pairs, m <= 12")
