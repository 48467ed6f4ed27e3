from fractions import Fraction as F

import pytest

from symfreq.balls import PrecisionContext
from symfreq.cyclotomic import verify_u_relation
from symfreq.frequencies import evaluate_form
from symfreq.linalg import LinearForm, S_SPACE, U_SPACE, form_scale, form_add, rref, stack_forms
from symfreq import solver
from symfreq.relations import (
    UnsupportedModulus,
    identity_u_basis,
    phi_forward,
    phi_inverse,
    short_s_relation,
    u_basis,
)
from symfreq.solver import (
    closed_form_dimension,
    conjecture_check,
    discover_relations,
    express_dependents,
    s_relation_basis,
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
        forms = s_relation_basis(27)
        assert [tuple(f.coeffs) for f in forms] == [
            tuple(F(x) for x in row) for row in M27_S_RELATIONS
        ]

    def test_prime_empty(self):
        assert s_relation_basis(5) == []

    def test_general_propagates(self):
        with pytest.raises(UnsupportedModulus):
            s_relation_basis(12)


class TestExpress:
    def test_m27_table(self):
        table = express_dependents(27)
        assert table.t == 9 and table.trailing_ok and table.method == "constructed"
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
            forms = s_relation_basis(m)
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

    def test_discovered_fallback(self):
        # outside the covered shapes the relations come from the identity
        # engine; certified discovery must find the same span
        table = express_dependents(12)
        assert table.method == "identities"
        assert table.t == 3 and table.trailing_ok
        assert same_span(identity_u_basis(12).forms, discover_relations(12, 512).basis.forms)

    def test_identities_match_discovery(self):
        for m in (12, 18, 20, 24):
            found = discover_relations(m, 512).basis.forms
            assert same_span(identity_u_basis(m).forms, found), m
            table = express_dependents(m)
            assert table.method == "identities"
            assert table_as_dicts(table) == table_as_dicts(
                express_dependents(m, sforms=[phi_forward(f) for f in found])
            ), m


class TestClosedFormDimension:
    def test_examples(self):
        assert closed_form_dimension(27) == 3
        assert closed_form_dimension(35) == 3
        assert closed_form_dimension(12) is None
        assert closed_form_dimension(5) == 0
        assert closed_form_dimension(9) == 0

    def test_matches_basis_sizes_to_60(self):
        for m in range(4, 61):
            expect = closed_form_dimension(m)
            if expect is None:
                continue
            forms = u_basis(m).forms
            assert len(forms) == expect
            if forms:
                assert rref(stack_forms(forms)).rank == expect
            sforms = s_relation_basis(m)
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

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            discover_relations(12, 64)


class TestConjecture:
    def test_worked_examples(self):
        for m, t in ((27, 9), (32, 8), (35, 13)):
            rec = conjecture_check(m)
            assert rec.t == t and rec.formula_value == t and rec.match
            assert rec.method == "constructed" and rec.formula_applies

    def test_prime_flagged(self):
        rec = conjecture_check(5)
        assert rec.t == 1 and rec.formula_value == 2
        assert not rec.match and not rec.formula_applies

    def test_general_discovered(self):
        rec = conjecture_check(12)
        assert rec.method == "identities" and rec.t == 3 and rec.match
        found = discover_relations(12, 512).basis.forms
        assert same_span(identity_u_basis(12).forms, found)
        assert rec.t == 12 // 2 - 1 - len(found)


class TestScan:
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
            (10, "identities"), (29, "constructed"), (16, "constructed"), (19, "identities")
        ]
        assert express_dependents(24).method == "identities"
        assert conjecture_check(36).match

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
        table = express_dependents(42)
        assert table.t == 8 and not table.trailing_ok
