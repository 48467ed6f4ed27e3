from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from symfreq.balls import PrecisionContext
from symfreq.cyclotomic import verify_u_relation
from symfreq.frequencies import evaluate_form
from symfreq.linalg import LinearForm, S_SPACE, U_SPACE, rref, stack_forms
from symfreq.relations import (
    CASE_GENERAL,
    CASE_ODD_SEMIPRIME,
    CASE_PRIME,
    CASE_PRIME_POWER,
    CASE_TWO_TIMES_PRIME,
    RelationBasis,
    UnsupportedModulus,
    c_set,
    closed_form_count,
    hset,
    identity_u_basis,
    k_red,
    modulus_profile,
    phi_forward,
    phi_inverse,
    prime_power_u_basis,
    semiprime_u_basis,
    short_s_relation,
    two_p_u_basis,
    u_basis,
)
from symfreq.intmath import euler_phi, factorize, is_prime


def u_form(m, coeffs):
    return LinearForm.from_map(U_SPACE, m, {k: F(v) for k, v in coeffs.items()})


def s_form(m, coeffs):
    return LinearForm.from_map(S_SPACE, m, {k: F(v) for k, v in coeffs.items()})


class TestModulusProfile:
    def test_cases(self):
        assert modulus_profile(5).case == CASE_PRIME
        assert modulus_profile(4).case == CASE_PRIME_POWER
        assert modulus_profile(27).case == CASE_PRIME_POWER
        assert modulus_profile(6).case == CASE_TWO_TIMES_PRIME
        assert modulus_profile(35).case == CASE_ODD_SEMIPRIME
        assert modulus_profile(12).case == CASE_GENERAL
        assert modulus_profile(30).case == CASE_GENERAL
        assert modulus_profile(20).case == CASE_GENERAL

    def test_fields(self):
        p = modulus_profile(27)
        assert p.half == 13 and p.factorization == ((3, 3),)


class TestKRed:
    def test_examples(self):
        assert k_red(27, 28) == 1
        assert k_red(27, 20) == 7
        assert k_red(12, 7) == 5

    def test_divisible_rejected(self):
        with pytest.raises(ValueError):
            k_red(12, 24)

    @given(st.integers(min_value=4, max_value=200), st.integers(min_value=-500, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_sign_and_shift_invariance(self, m, k):
        if k % m == 0:
            return
        r = k_red(m, k)
        assert 1 <= r <= m // 2
        assert k_red(m, -k) == r
        assert k_red(m, k + m) == r
        assert (r - k) % m == 0 or (r + k) % m == 0


class TestPhi:
    def test_y2_at_m8(self):
        assert phi_forward(u_form(8, {2: 1})).items() == [(1, F(1)), (2, F(1)), (3, F(1))]

    def test_m27_first_relation_image(self):
        img = phi_forward(u_form(27, {6: -1, 3: 1, 2: 1, 7: 1, 8: -1, 10: -1, 11: 1}))
        assert [c for c in img.coeffs] == [F(x) for x in (1, 1, 0, -1, -2, -2, -3, -3, -3, -2, -2, -2)]

    def test_zero_maps_to_zero(self):
        assert phi_forward(LinearForm.zero(U_SPACE, 20)).is_zero()
        assert phi_inverse(LinearForm.zero(S_SPACE, 20)).is_zero()

    def test_inverse_substitution_x1(self):
        assert phi_inverse(s_form(8, {1: 1})).items() == [(2, F(2)), (3, F(-1))]

    def test_space_guards(self):
        with pytest.raises(ValueError):
            phi_forward(LinearForm.zero(S_SPACE, 8))
        with pytest.raises(ValueError):
            phi_inverse(LinearForm.zero(U_SPACE, 8))

    @given(
        st.integers(min_value=4, max_value=40),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, m, data):
        n = m // 2 - 1
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=n,
                max_size=n,
            )
        )
        u = LinearForm(U_SPACE, m, tuple(coeffs))
        assert phi_inverse(phi_forward(u)) == u
        s = LinearForm(S_SPACE, m, tuple(coeffs))
        assert phi_forward(phi_inverse(s)) == s


class TestPrimePowerBasis:
    def test_m27_golden(self):
        basis = prime_power_u_basis(3, 3)
        expected = [
            {2: 1, 3: 1, 6: -1, 7: 1, 8: -1, 10: -1, 11: 1},
            {3: 1, 4: 1, 5: 1, 8: -1, 10: -1, 12: -1, 13: 1},
            {2: 1, 3: 4, 4: 1, 5: 1, 7: 1, 8: -3, 9: -1, 10: -3, 11: 1, 13: 1},
        ]
        assert [dict(f.items()) for f in basis.forms] == [
            {k: F(v) for k, v in e.items()} for e in expected
        ]
        assert basis.provenance == "constructed"

    def test_m16_r21_golden(self):
        basis = prime_power_u_basis(2, 4)
        r21 = basis.forms[1]
        assert dict(r21.items()) == {2: F(3), 3: F(1), 4: F(-1), 5: F(1), 7: F(-2)}
        assert verify_u_relation(16, r21)

    def test_m9_empty(self):
        assert prime_power_u_basis(3, 2).forms == ()

    def test_counts_match_closed_form(self):
        for p, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
            basis = prime_power_u_basis(p, n)
            expect = 2 ** (n - 2) - 1 if p == 2 else (p ** (n - 1) - 3) // 2
            assert len(basis.forms) == expect, (p, n)

    def test_invalid(self):
        with pytest.raises(ValueError):
            prime_power_u_basis(4, 2)
        with pytest.raises(ValueError):
            prime_power_u_basis(3, 1)


class TestHSet:
    def test_examples(self):
        assert hset(7, 5) == [1, 2, 3]
        assert hset(5, 3) == [1, 2]
        assert hset(7, 3) == [1, 2, 10]

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            hset(7, 7)

    def test_properties_all_semiprimes_to_200(self):
        for p in range(3, 68, 2):
            for q in range(3, 68, 2):
                if p == q or p * q > 200 or not (is_prime(p) and is_prime(q)):
                    continue
                h = hset(p, q)
                assert 1 in h
                assert all(k % q for k in h)
                reps = {min(k % p, (-k) % p) for k in h}
                assert reps == set(range(1, (p - 1) // 2 + 1))


class TestSemiprimeBasis:
    def test_m35_golden(self):
        basis = semiprime_u_basis(7, 5)
        expected = [
            {2: 1, 5: 2, 6: -1, 8: -1, 9: 1, 10: -1, 12: 1, 13: -1, 15: -1, 16: 1},
            {3: 1, 4: 1, 5: 1, 6: -1, 8: -1, 10: 1, 11: 1, 13: -1, 15: -2, 17: 1},
            {2: 1, 3: 1, 4: -1, 6: -1, 7: 2, 8: 1, 9: -1, 11: -1, 12: 1, 13: 1, 14: -2, 16: -1, 17: 1},
        ]
        assert [dict(f.items()) for f in basis.forms] == [
            {k: F(v) for k, v in e.items()} for e in expected
        ]

    def test_count_3_5(self):
        assert len(semiprime_u_basis(5, 3).forms) == 1
        assert len(semiprime_u_basis(3, 5).forms) == 1

    def test_counts(self):
        for p, q in ((3, 5), (3, 7), (5, 7), (5, 11), (7, 11), (3, 13)):
            assert len(semiprime_u_basis(p, q).forms) == (p + q) // 2 - 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            semiprime_u_basis(5, 5)
        with pytest.raises(ValueError):
            semiprime_u_basis(2, 7)

    def test_c_set_distinct_and_sized(self):
        for p, q in ((3, 5), (5, 7), (7, 11), (5, 13)):
            m = p * q
            for k in hset(p, q):
                ck = c_set(m, p, q, k)
                assert len(ck) == q - 1
                assert len(set(ck)) == len(ck)

    def test_c_sets_disjoint_within_prime(self):
        for p, q in ((5, 7), (7, 11), (5, 13)):
            m = p * q
            sets = [set(c_set(m, p, q, k)) for k in hset(p, q)]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert not (sets[i] & sets[j])

    def test_cross_intersections_nonempty(self):
        # the key combinatorial fact behind linear independence
        for p in range(3, 68, 2):
            for q in range(p + 2, 68, 2):
                if p * q > 200 or not (is_prime(p) and is_prime(q)):
                    continue
                m = p * q
                for k in hset(p, q):
                    for l in hset(q, p):
                        assert set(c_set(m, p, q, k)) & set(c_set(m, q, p, l)), (p, q, k, l)

    def test_right_part_may_vanish(self):
        # p=5, q=11, k=2: the four non-orbit terms cancel pairwise
        basis = semiprime_u_basis(5, 11)
        form = basis.forms[0]  # k = 2 block of the larger... first arg is 5
        m = 55
        qstar = pow(11, -1, 5)
        terms = [k_red(m, 11 * 2), k_red(m, 11 * qstar * 2), k_red(m, 11 * qstar), k_red(m, 11)]
        assert terms[0] == terms[1] and terms[2] == terms[3]
        assert verify_u_relation(55, form)


class TestTwoPBasis:
    def test_p7_golden(self):
        basis = two_p_u_basis(7)
        assert [dict(f.items()) for f in basis.forms] == [
            {2: F(-1), 3: F(-1), 4: F(-1), 6: F(2)},
            {2: F(-2), 4: F(1), 5: F(-1), 6: F(1)},
        ]

    def test_p5_single(self):
        basis = two_p_u_basis(5)
        assert [dict(f.items()) for f in basis.forms] == [{2: F(-2), 3: F(-1), 4: F(2)}]

    def test_p3_empty(self):
        assert two_p_u_basis(3).forms == ()

    def test_counts(self):
        for p in (5, 7, 11, 13, 17, 19, 23):
            assert len(two_p_u_basis(p).forms) == (p - 3) // 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            two_p_u_basis(9)


class TestShortSRelation:
    def test_goldens(self):
        assert dict(short_s_relation(14).items()) == {1: F(-1), 2: F(1), 3: F(2)}
        assert dict(short_s_relation(16).items()) == {2: F(-1), 5: F(2), 6: F(1)}
        assert dict(short_s_relation(20).items()) == {2: F(-1), 4: F(1), 5: F(2)}

    def test_m10_boundary_doubling(self):
        # index 2j is the boundary index at m=10, so its coefficient doubles
        assert dict(short_s_relation(10).items()) == {1: F(-1), 3: F(2), 4: F(2)}
        assert verify_u_relation(10, phi_inverse(short_s_relation(10)))

    def test_none_cases(self):
        for m in (4, 6, 8, 12, 18, 24, 13, 15):
            assert short_s_relation(m) is None

    def test_sweep_verifies(self):
        for m in range(10, 61, 2):
            r = short_s_relation(m)
            if r is None:
                continue
            assert verify_u_relation(m, phi_inverse(r)), m


def same_span(a, b):
    a, b = list(a), list(b)
    ra = rref(stack_forms(a)).rank if a else 0
    rb = rref(stack_forms(b)).rank if b else 0
    if not a or not b:
        return ra == rb == 0
    return ra == rb == rref(stack_forms(a + b)).rank


class TestIdentityBasis:
    def test_span_equals_constructed_to_100(self):
        covered = 0
        for m in range(4, 101):
            try:
                constructed = u_basis(m).forms
            except UnsupportedModulus:
                continue
            assert same_span(identity_u_basis(m).forms, constructed), m
            covered += 1
        assert covered > 60

    def test_dimension_formula_composites_to_100(self):
        for m in range(4, 101):
            if is_prime(m):
                continue
            forms = identity_u_basis(m).forms
            t = (m // 2 - 1) - len(forms)
            assert t == euler_phi(m) // 2 - 1 + len(factorize(m)), m

    def test_independent_coprime_integer_forms(self):
        for m in (12, 30, 45, 60):
            basis = identity_u_basis(m)
            assert basis.provenance == "identities" and basis.space == U_SPACE
            assert rref(stack_forms(basis.forms)).rank == len(basis.forms)
            for f in basis.forms:
                assert all(c.denominator == 1 for c in f.coeffs)
                assert gcd(*(int(c) for c in f.coeffs)) == 1

    def test_relations_certified(self):
        for m in (12, 42, 60):
            forms = identity_u_basis(m).forms
            assert forms
            for f in forms:
                assert verify_u_relation(m, f), (m, f)

    def test_primes_empty(self):
        for m in (5, 7, 31):
            assert identity_u_basis(m).forms == ()

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            identity_u_basis(3)


class TestUBasisDispatch:
    def test_prime_empty(self):
        assert u_basis(5).forms == ()
        assert u_basis(97).forms == ()

    def test_m27(self):
        assert len(u_basis(27).forms) == 3

    def test_m35_order(self):
        # larger prime's block first, matching the worked example layout
        forms = u_basis(35).forms
        assert dict(forms[0].items())[5] == F(2)  # the k=2 relation of the 7-block
        assert len(forms) == 3

    def test_general_raises(self):
        with pytest.raises(UnsupportedModulus):
            u_basis(12)
        with pytest.raises(UnsupportedModulus):
            u_basis(100)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            u_basis(3)

    def test_counts_match_closed_form_to_100(self):
        for m in range(4, 101):
            expect = closed_form_count(m)
            if expect is None:
                continue
            assert len(u_basis(m).forms) == expect, m


def test_constructed_bases_independent_to_100():
    for m in range(4, 101):
        try:
            basis = u_basis(m)
        except UnsupportedModulus:
            continue
        if not basis.forms:
            continue
        assert rref(stack_forms(basis.forms)).rank == len(basis.forms), m


def test_constructed_relations_numeric_residuals_to_100():
    ctx = PrecisionContext(256)
    for m in range(4, 101):
        try:
            basis = u_basis(m)
        except UnsupportedModulus:
            continue
        for form in basis.forms:
            assert evaluate_form(form, ctx).contains_zero(), (m, form)


def test_exact_and_numeric_verdicts_agree_on_perturbations():
    # bumping one coordinate must flip both the certificate and the residual
    ctx = PrecisionContext(256)
    for m in range(4, 61):
        try:
            basis = u_basis(m)
        except UnsupportedModulus:
            continue
        for form in basis.forms:
            bumped = list(form.coeffs)
            bumped[0] += 1
            pert = LinearForm(U_SPACE, m, tuple(bumped))
            assert not verify_u_relation(m, pert), m
            assert not evaluate_form(pert, ctx).contains_zero(), m
