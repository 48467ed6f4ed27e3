import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from closed_form import closed_form_count
from form_ops import form_add, form_scale
from fraction_rref import fraction_rref
from identity_oracle import identity_forms, identity_table
from rref_rows import stack_forms
from symfreq.balls import PrecisionContext
from symfreq.intmath import euler_phi, factorize, is_prime
from symfreq.cyclotomic import scaled_exponents, verify_u_relation
from symfreq.frequencies import evaluate_form
from symfreq.linalg import LinearForm, RrefResult, S_SPACE, U_SPACE, rref
from symfreq import cyclotomic, relations, solver
from symfreq.relations import (
    RelationSpace,
    UnsupportedModulus,
    identity_u_basis,
    phi_forward,
    phi_inverse,
    short_s_relation,
    u_basis,
)
from symfreq.solver import (
    ExpressionTable,
    discover_relations,
    express_dependents,
    scan_range,
)

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

M35_TABLE = {
    1: {4: -1, 5: 1, 6: 2, 7: 3, 8: 3, 9: 5, 10: 4, 11: 2, 12: 2, 13: 1, 15: -1},
    2: {4: 1, 5: -1, 6: -3, 7: -3, 8: -1, 9: -2, 11: 2, 12: 3, 13: 6, 14: 7, 15: 8, 16: 6},
    3: {4: -1, 5: 1, 6: 3, 7: 3, 8: 1, 9: 1, 13: -2, 14: -2, 15: -3, 16: -2},
}


def table_as_dicts(table):
    return {d: {j: c for j, c in coeffs} for d, coeffs in table.rows}


class TestSRelationBasis:
    def test_m27_exact_vectors(self):
        forms = [phi_forward(f) for f in u_basis(27).forms]
        assert [tuple(f.coeffs) for f in forms] == [
            tuple(F(x) for x in row) for row in M27_S_RELATIONS
        ]

    def test_prime_empty(self):
        assert [phi_forward(f) for f in u_basis(5).forms] == []

    def test_general_propagates(self):
        with pytest.raises(UnsupportedModulus):
            [phi_forward(f) for f in u_basis(12).forms]


class TestExpress:
    def test_m27_table(self):
        table = express_dependents(27)
        assert table.t == 9 and table.trailing_ok and table.method == "characters"
        assert table_as_dicts(table) == {
            d: {j: F(c) for j, c in row.items()} for d, row in M27_TABLE.items()
        }

    def test_m32_table(self):
        table = express_dependents(32)
        assert table.t == 8 and table.trailing_ok
        assert table_as_dicts(table) == {
            d: {j: F(c) for j, c in row.items()} for d, row in M32_TABLE.items()
        }

    def test_m35_table(self):
        table = express_dependents(35)
        assert table.t == 13 and table.trailing_ok
        assert table_as_dicts(table) == {
            d: {j: F(c) for j, c in row.items()} for d, row in M35_TABLE.items()
        }

    def test_prime_trivial(self):
        table = express_dependents(11)
        assert table.t == 4 and table.rows == () and table.trailing_ok

    def test_rows_substitute_to_zero(self):
        # replacing each dependent S_d by its expression must kill every
        # S-relation of the stack, exactly
        for m in (27, 32, 35):
            forms = [phi_forward(f) for f in u_basis(m).forms]
            table = express_dependents(m)
            exprs = table_as_dicts(table)
            for rel in forms:
                acc = {}
                for idx, c in rel.items():
                    if idx in exprs:
                        for j, cj in exprs[idx].items():
                            acc[j] = acc.get(j, F(0)) + c * cj
                    else:
                        acc[idx] = acc.get(idx, F(0)) + c
                assert all(v == 0 for v in acc.values()), (m, rel)

    def test_rows_numerically_sound(self):
        ctx = PrecisionContext(256)
        for m in (27, 35):
            table = express_dependents(m)
            for d, coeffs in table.rows:
                mapping = {d: F(-1)}
                for j, c in coeffs:
                    mapping[j] = mapping.get(j, F(0)) + c
                form = LinearForm.from_map(S_SPACE, m, mapping)
                assert evaluate_form(form, ctx).contains_zero(), (m, d)

    def test_render_text_m32(self):
        text = express_dependents(32).render_text()
        assert text.splitlines()[3] == "S4 = S8 + 2*S9"
        assert text.splitlines()[6] == "S7 = S14 + 2*S15"

    def test_rows_certified_to_120(self):
        # the two readers of the one elimination check each other: each row,
        # as the S-relation -S_d + sum_j c_j S_j, passes the certificate's
        # check matrix, and a +-1 change on one coefficient of its integer
        # U-form is refused
        rng = random.Random(120)
        for m in range(4, 121):
            for d, coeffs in express_dependents(m).rows:
                uform = phi_inverse(LinearForm.from_map(S_SPACE, m, {d: F(-1), **dict(coeffs)}))
                assert verify_u_relation(m, uform), (m, d)
                exps = scaled_exponents(uform)[1]
                ints = [exps.get(k, 0) for k in range(2, m // 2 + 1)]
                ints[rng.randrange(len(ints))] += rng.choice((-1, 1))
                assert not verify_u_relation(m, LinearForm(U_SPACE, m, tuple(ints))), (m, d)

    def test_discovered_fallback(self):
        # outside the covered shapes the relations come from the character
        # table; certified discovery must find the same span
        table = express_dependents(12)
        assert table.method == "characters"
        assert table.t == 3 and table.trailing_ok
        assert same_span(identity_u_basis(12).forms, discover_relations(12, 512).basis.forms)

    def test_identities_match_discovery(self):
        for m in (12, 18, 20, 24):
            found = discover_relations(m, 512).basis.forms
            assert same_span(identity_u_basis(m).forms, found), m
            assert express_dependents(m).method == "characters"


class TestClosedFormDimension:
    def test_examples(self):
        assert closed_form_count(27) == 3
        assert closed_form_count(35) == 3
        assert closed_form_count(12) is None
        assert closed_form_count(5) == 0
        assert closed_form_count(9) == 0

    def test_matches_basis_sizes_to_60(self):
        for m in range(4, 61):
            expect = closed_form_count(m)
            if expect is None:
                continue
            forms = u_basis(m).forms
            assert len(forms) == expect
            if forms:
                assert rref(stack_forms(forms)).rank == expect
            sforms = [phi_forward(f) for f in u_basis(m).forms]
            assert len(sforms) == expect
            if sforms:
                assert rref(stack_forms(sforms)).rank == expect


def same_span(a, b):
    a, b = list(a), list(b)
    if not a and not b:
        return True
    ra = rref(stack_forms(a)).rank if a else 0
    rb = rref(stack_forms(b)).rank if b else 0
    if ra != rb:
        return False
    return rref(stack_forms(a + b)).rank == ra


class TestDiscovery:
    def test_m27_span_matches_constructed(self):
        rep = discover_relations(27, 512, 10**6)
        assert len(rep.basis.forms) == 3
        assert same_span(rep.basis.forms, u_basis(27).forms)
        assert rep.empirical_t == 9
        assert rep.basis.provenance == "discovered"

    def test_prime_finds_nothing(self):
        rep = discover_relations(5, 256)
        assert rep.basis.forms == () and rep.empirical_t == 1
        rep = discover_relations(9, 256)
        assert rep.basis.forms == () and rep.empirical_t == 3

    def test_m20_contains_short_relation_image(self):
        rep = discover_relations(20, 256)
        target = phi_inverse(short_s_relation(20))
        assert same_span(rep.basis.forms, list(rep.basis.forms))
        combined = rref(stack_forms(list(rep.basis.forms) + [target]))
        assert combined.rank == len(rep.basis.forms)  # target already in span

    def test_every_emitted_relation_is_certified(self):
        for m in (12, 18, 24):
            rep = discover_relations(m, 256)
            for form in rep.basis.forms:
                assert verify_u_relation(m, form)

    def test_evidence_fields(self):
        rep = discover_relations(14, 256)
        assert rep.evidence["scaling_log2"] == 192
        assert rep.evidence["passes"] >= 1
        assert rep.evidence["min_rejected_norm"] > 0

    def test_bound_warns_when_it_drops_a_candidate(self):
        # at m = 12 two of the three relations have a coefficient -2: bound 1
        # skips them, with a warning, and bound 2 finds the whole space
        rep = discover_relations(12, 256, 1)
        assert len(rep.warnings) == 1 and "above the bound 1" in rep.warnings[0]
        assert rep.empirical_t > expected_t(12)
        rep = discover_relations(12, 256, 2)
        assert rep.warnings == () and rep.empirical_t == expected_t(12)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            discover_relations(12, 64)

    # the moduli in 4..62 where discovery used to skip candidates of
    # coefficient mass above 50000 as too costly to certify
    HEAVY_MODULI = (23, 25, 29, 31, 33, 34, 35, 38, 39, 40, 44, 45, 46, 48, 50, 52, 54, 56, 60)

    @pytest.mark.parametrize("m", HEAVY_MODULI)
    def test_no_candidate_is_skipped_for_its_mass(self, m):
        # every rank-increasing candidate goes to the certificate, whose
        # cost does not grow with the coefficients, and t stays exact
        rep = discover_relations(m)
        assert not any("coefficient mass" in w for w in rep.warnings), rep.warnings
        assert rep.empirical_t == expected_t(m)

    @pytest.mark.parametrize("m", range(4, 63))
    def test_no_warning_where_the_search_is_complete(self, m):
        # a candidate whose residual ball excludes 0 is rejected before the
        # certificate, so only a ball containing 0 could warn; at 256 bits
        # none does in 4..62, and the found span is the whole relation space
        rep = discover_relations(m)
        assert rep.warnings == ()
        assert rep.empirical_t == expected_t(m)
        assert same_span(rep.basis.forms, identity_u_basis(m).forms)


class TestOracleTables:
    def test_tables_match_fraction_oracle(self):
        # the two-step route: a U-basis (the constructed one where it exists,
        # else the oracle's elimination of the identities, both independent of
        # the character table), mapped to S, eliminated by Fraction
        # Gauss-Jordan
        for m in range(4, 101):
            try:
                forms = u_basis(m).forms
            except UnsupportedModulus:
                forms = identity_forms(m)
            rows = [phi_forward(f).coeffs for f in forms]
            table = express_dependents(m)
            if not rows:
                assert table.rows == () and table.t == m // 2 - 1
                continue
            ech, pivots = fraction_rref(rows)
            free = [c for c in range(m // 2 - 1) if c not in pivots]
            expect = tuple(
                (p + 1, tuple((c + 1, -ech[i][c]) for c in free if ech[i][c]))
                for i, p in enumerate(pivots)
            )
            assert table.rows == expect, m
            assert table.t == m // 2 - 1 - len(pivots), m
            assert table.trailing_ok == (pivots == tuple(range(len(pivots)))), m


# the moduli m <= 300 where S_{m'-t}..S_{m'-1} is not a basis of the span
TRAILING_FAILURES_TO_300 = {
    42, 45, 50, 75, 78, 85, 91, 98, 100, 110, 117, 120, 130, 135, 140, 145, 147, 150, 153,
    156, 168, 170, 175, 182, 186, 190, 195, 200, 205, 210, 220, 221, 225, 230, 231, 234,
    240, 245, 247, 250, 253, 259, 260, 264, 273, 275, 285, 290, 294, 300,
}
TRAILING_FAILURES_TO_150 = {m for m in TRAILING_FAILURES_TO_300 if m <= 150}


def expected_t(m):
    """(m-3)/2 for prime m, else phi(m)/2 - 1 + omega(m)."""
    if is_prime(m):
        return (m - 3) // 2
    return euler_phi(m) // 2 - 1 + len(factorize(m))


def trailing_witness(m):
    """t, and the relation among the trailing values where they are no basis, else None.

    Where the trailing flag is False, the last row of the RREF of the
    relation space depends on trailing values only; it is returned negated
    and coprime, -a S_d + sum_i b_i S_i with a > 0.
    """
    space = RelationSpace(m)
    if space.trailing_ok:
        return space.t, None
    row = [-c for c in space.relations[-1].tolist()]
    g = math.gcd(*row)
    return space.t, LinearForm(S_SPACE, m, tuple(c // g for c in row))


class TestScan:
    def test_finding_to_150(self):
        rows = scan_range(4, 150)
        assert [r.m for r in rows] == list(range(4, 151))
        assert [r.t for r in rows] == [expected_t(m) for m in range(4, 151)]
        assert {r.m for r in rows if not r.trailing_basis_ok} == TRAILING_FAILURES_TO_150

    def test_finding_to_300(self):
        rows = scan_range(4, 300)
        assert [r.m for r in rows] == list(range(4, 301))
        assert [r.t for r in rows] == [expected_t(m) for m in range(4, 301)]
        assert {r.m for r in rows if not r.trailing_basis_ok} == TRAILING_FAILURES_TO_300
        assert len(TRAILING_FAILURES_TO_300) == 50

    @pytest.mark.parametrize(
        "m, t, formula, method",
        [(27, 9, 9, "characters"), (32, 8, 8, "characters"), (35, 13, 13, "characters"),
         (12, 3, 3, "characters"), (5, 1, 2, "characters")],
    )
    def test_row(self, m, t, formula, method):
        (row,) = scan_range(m, m)
        assert (row.m, row.t, row.formula_value, row.method) == (m, t, formula, method)
        # the formula covers every composite m; prime m lies outside it
        assert row.match == row.formula_applies == (m != 5)

    def test_small_range(self):
        rows = scan_range(4, 16)
        assert [r.m for r in rows] == list(range(4, 17))
        for r in rows:
            assert r.trailing_basis_ok, r.m
            if r.formula_applies:
                assert r.match, r.m
            else:
                assert r.t == (r.m - 3) // 2  # prime rows carry (p-3)/2

    def test_no_discovery_on_scan_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("discovery called on the scan path")

        monkeypatch.setattr(solver, "discover_relations", refuse)
        rows = scan_range(60, 63)
        assert [(r.t, r.method) for r in rows] == [
            (10, "characters"), (29, "characters"), (16, "characters"), (19, "characters")
        ]
        assert express_dependents(24).method == "characters"
        assert scan_range(36, 36)[0].match

    def test_scan_keeps_no_per_modulus_state(self):
        # every scan op builds its table afresh; it fills no certificate cache
        assert not hasattr(relations.s_check_matrix, "cache_info")
        assert not hasattr(cyclotomic.build_check_matrix, "cache_info")
        first, second = RelationSpace(42), RelationSpace(42)
        assert first.relations is not second.relations
        assert not np.shares_memory(first.relations, second.relations)
        assert (first.relations == second.relations).all()
        before = cyclotomic.check_matrix.cache_info().currsize
        scan_range(4, 120)
        assert cyclotomic.check_matrix.cache_info().currsize == before

    def test_no_elimination_where_the_trailing_block_is_certified(self, monkeypatch):
        # through m = 41 every trailing block is certified; where t = m' - 1
        # (prime m, m = 4, 6 and 9) the relation space is empty, and express
        # runs neither the certificate nor an elimination
        def refuse(*args, **kwargs):
            raise AssertionError("certificate or elimination called where none is needed")

        monkeypatch.setattr(relations, "rref", refuse)
        assert all(r.trailing_basis_ok for r in scan_range(4, 41))
        monkeypatch.setattr(relations, "certify_nonsingular", refuse)
        for m in (4, 5, 6, 7, 9, 101, 211, 997):
            table = express_dependents(m)
            assert (table.t, table.trailing_ok, table.rows) == (m // 2 - 1, True, ()), m
            assert identity_u_basis(m).forms == (), m

    def test_express_reads_t_and_the_flag_from_its_elimination(self, monkeypatch):
        # t is the table's column count, and express reads its flag from the
        # dependents of its RREF, so the trailing block is not certified; the
        # scan's flag at m = 990, the block's nonsingularity, agrees with it
        expect = express_dependents(990).to_json()
        row = scan_range(990, 990)[0]
        assert (row.t, row.trailing_basis_ok) == (expect["t"], expect["trailing_basis_ok"])

        def refuse(*args, **kwargs):
            raise AssertionError("certify_nonsingular called where the RREF is computed")

        monkeypatch.setattr(relations, "certify_nonsingular", refuse)
        assert express_dependents(990).to_json() == expect

    def test_t_is_the_column_count_with_nothing_computed(self, monkeypatch):
        # the theorem of s_check_matrix: Psi has full column rank, so t is
        # its column count, read with no certificate and no elimination
        def refuse(*args, **kwargs):
            raise AssertionError("t computed")

        monkeypatch.setattr(relations, "certify_nonsingular", refuse)
        monkeypatch.setattr(relations, "rref", refuse)
        for m in range(4, 301):
            assert RelationSpace(m).t == expected_t(m), m

    def test_trailing_flag_needs_nothing_where_t_is_m_half_minus_one(self, monkeypatch):
        # at prime m and at m = 4, 6 and 9, t = m' - 1: the trailing block
        # is all of Psi, nonsingular by the theorem, so the scan row is read
        # with no certificate and no elimination
        ms = [4, 6, 9] + [m for m in range(5, 301) if is_prime(m)]
        expect = [scan_range(m, m)[0] for m in ms]

        def refuse(*args, **kwargs):
            raise AssertionError("trailing flag computed where the theorem settles it")

        monkeypatch.setattr(relations, "certify_nonsingular", refuse)
        monkeypatch.setattr(relations, "rref", refuse)
        assert [scan_range(m, m)[0] for m in ms] == expect
        assert all(r.trailing_basis_ok for r in expect)

    def test_scan_reduces_only_the_trailing_block(self, monkeypatch):
        # where certify_nonsingular leaves the trailing t x t block B open,
        # rref reduces B alone, and only at the trailing failures to 62
        real, seen = relations.rref, []

        def spy(rows):
            seen.append(np.array(rows))
            return real(rows)

        monkeypatch.setattr(relations, "rref", spy)
        rows = scan_range(4, 62)
        assert {r.m for r in rows if not r.trailing_basis_ok} == {42, 45, 50}
        assert len(seen) == 3
        for m, block in zip((42, 45, 50), seen):
            t = expected_t(m)
            assert block.shape == (t, t), m
            assert (block == relations.s_check_matrix(m)[-t:]).all(), m

    @pytest.mark.parametrize("m", [27, 42, 990])
    def test_relations_check_their_rank_against_t(self, monkeypatch, m):
        # an RREF of rank t - 1 contradicts the theorem and is refused
        real = relations.rref

        def short(rows):
            ech = real(rows)
            return RrefResult(ech.pivots[:-1], ech.nums[:-1], ech.dens[:-1])

        monkeypatch.setattr(relations, "rref", short)
        with pytest.raises(ArithmeticError):
            RelationSpace(m).relations

    def test_scan_equals_the_identity_elimination_to_300(self):
        # two independent routes: the character table, its trailing block
        # certified nonsingular or eliminated, against the oracle's one
        # elimination of the cyclotomic identities
        for row in scan_range(4, 300):
            t, _, trailing_ok = identity_table(row.m)
            assert (row.t, row.trailing_basis_ok) == (t, trailing_ok), row.m

    def test_express_and_identity_basis_equal_the_identity_elimination_to_300(self):
        # the one RREF of the character table gives the same unique RREF of
        # the relation space as the eliminated identities, row for row
        for m in range(4, 301):
            t, rows, trailing_ok = identity_table(m)
            expect = ExpressionTable(m, t, rows, trailing_ok, "characters")
            assert express_dependents(m).to_json() == expect.to_json(), m
            assert identity_u_basis(m).forms == identity_forms(m), m

    def test_trailing_witnesses_are_certified_to_120(self):
        # each trailing failure comes with a nonzero S-relation on the trailing
        # values, which the certificate accepts; every other m has none
        for m in range(4, 121):
            t, witness = trailing_witness(m)
            assert t == expected_t(m), m
            if m not in TRAILING_FAILURES_TO_300:
                assert witness is None, m
                continue
            lead = m // 2 - 1 - t
            assert not witness.is_zero() and not any(witness.coeffs[:lead]), m
            assert all(c.denominator == 1 for c in witness.coeffs), m
            assert verify_u_relation(m, phi_inverse(witness)), m

    def test_bad_range(self):
        with pytest.raises(ValueError):
            scan_range(3, 10)
        with pytest.raises(ValueError):
            scan_range(10, 4)

    def test_trailing_basis_first_fails_at_42(self):
        # the trailing-basis property holds through m = 41 and breaks at 42:
        # -S13 - 2S14 - 2S15 + S17 + 2S18 + 2S19 + 2S20 = 0 is an exactly
        # certified relation supported inside the would-be trailing basis
        rows = scan_range(36, 42)
        assert [r.trailing_basis_ok for r in rows] == [True] * 6 + [False]
        witness = LinearForm.from_map(
            S_SPACE,
            42,
            {13: F(-1), 14: F(-2), 15: F(-2), 17: F(1), 18: F(2), 19: F(2), 20: F(2)},
        )
        assert verify_u_relation(42, phi_inverse(witness))
        assert trailing_witness(42)[1] == witness
        table = express_dependents(42)
        assert table.t == 8 and not table.trailing_ok
