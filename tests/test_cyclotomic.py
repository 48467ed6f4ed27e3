import random
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, lcm, prod

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ball_ops import log2_of_ball
from conductor_table import conductor_check_matrix, conductor_table
from cyclo_oracle import (
    CycloFraction,
    cyclo_add,
    cyclo_element,
    cyclo_mul,
    cyclo_one,
    cyclo_pow,
    cyclo_sub,
    embed_complex,
    sine_ratio_elem,
    zeta,
)
import norm_certificate
import split_prime_oracle as oracle
from mpf_fraction import mpf_to_fraction
from identity_annihilator import identity_annihilator
from identity_oracle import identity_forms
from rref_rows import integer_matrix
from split_prime_oracle import split_primes
from symfreq.cyclotomic import cyclotomic_poly, scaled_exponents, verify_u_relation
from symfreq import balls, cyclotomic, linalg
from symfreq.intmath import divisors, euler_phi, factorize, is_prime
from symfreq.linalg import LinearForm, U_SPACE, rref
from symfreq.relations import identity_u_basis, two_p_u_basis, u_basis


class TestCyclotomicPoly:
    def test_small_cases(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_monic_of_totient_degree(self):
        for M in range(1, 60):
            poly = cyclotomic_poly(M)
            assert poly[-1] == 1
            assert len(poly) - 1 == euler_phi(M)

    def test_product_reconstruction(self):
        # multiplying Phi_d over all divisors d of M recovers x^M - 1
        for M in range(1, 101):
            prod = [1]
            for d in divisors(M):
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
            expected = [-1] + [0] * (M - 1) + [1]
            assert prod == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


class TestElementArithmetic:
    def test_zeta4_squared(self):
        z = zeta(4)
        assert cyclo_mul(z, z).coeffs == (F(-1), F(0))

    def test_mul_by_one(self):
        a = cyclo_element(8, [F(1, 2), F(3), F(0), F(-2)])
        assert cyclo_mul(a, cyclo_one(8)) == a

    def test_norm_of_one_minus_zeta3(self):
        a = cyclo_sub(cyclo_one(3), zeta(3, 1))
        b = cyclo_sub(cyclo_one(3), zeta(3, 2))
        assert cyclo_mul(a, b) == cyclo_element(3, [3])

    def test_conductor_mismatch(self):
        with pytest.raises(ValueError):
            cyclo_mul(zeta(4), zeta(8))
        with pytest.raises(ValueError):
            cyclo_add(zeta(4), zeta(8))

    def test_pow_matches_repeated_mul(self):
        a = cyclo_add(zeta(12, 5), cyclo_element(12, [2]))
        acc = cyclo_one(12)
        for e in range(7):
            assert cyclo_pow(a, e) == acc
            acc = cyclo_mul(acc, a)

    def test_pow_negative(self):
        with pytest.raises(ValueError):
            cyclo_pow(zeta(4), -1)

    def test_zeta_wraps(self):
        assert zeta(10, 13) == zeta(10, 3)


def _mass(form):
    # M = max(sum of positive, sum of |negative|) scaled exponents
    _, exps = scaled_exponents(form)
    return max(sum(e for e in exps.values() if e > 0), -sum(e for e in exps.values() if e < 0))


class TestSplitPrimes:
    @pytest.mark.parametrize("m", [4, 5, 27, 60, 97, 100])
    def test_primes_and_roots(self, m):
        n = 2 * m
        pairs = split_primes(n, 300)
        assert len({p for p, _ in pairs}) == len(pairs)
        for p, w in pairs:
            assert is_prime(p) and p % n == 1 and 2**30 < p < 2**31
            # w has order exactly n: its first n powers are distinct
            assert pow(w, n, p) == 1
            assert len({pow(w, i, p) for i in range(n)}) == n
        assert prod(p for p, _ in pairs) > 2**300

    def test_certificate_uses_enough_primes(self, monkeypatch):
        # the norm-bound route of the oracle: its bound lies between the mean
        # of log2|sigma(A - B)| and M + 1, and the evaluated primes cover it
        evaluated = []

        def spy(pos, sides, pairs, tables):
            evaluated.extend(pairs)
            return agree_at(pos, sides, pairs, tables)

        agree_at = oracle._agree_at
        monkeypatch.setattr(oracle, "_agree_at", spy)
        for m in (16, 27, 35):
            forms = u_basis(m).forms
            for scale in (1, 64, 1000):
                for form, other in zip(forms, forms[1:] + forms[:1]):
                    # exponents of gcd 1, so the certificate cannot divide the scale away
                    vec = tuple(scale * c + d for c, d in zip(form.coeffs, other.coeffs))
                    assert gcd(*(int(c) for c in vec)) == 1
                    big = LinearForm(U_SPACE, m, vec)
                    n, _, left, right, units = norm_certificate.claim_sides(m, big)
                    bits = norm_certificate.norm_bound(n, left, right, units)
                    assert _mean_log_bits(m, big) <= bits <= _mass(big) + 1
                    evaluated.clear()
                    assert norm_certificate.verify_by_norm(m, big) is True
                    # the first prime, then the later ones in order, none twice,
                    # as many as the bound asks for
                    assert evaluated == split_primes(n, bits)
                    assert prod(p for p, _ in evaluated) > 2**bits

    @pytest.mark.parametrize("n", [8, 54, 200])
    def test_root_tables(self, n):
        pairs = split_primes(n, 100)
        tables = oracle._root_tables(n, pairs)
        for (p, w), row in zip(pairs, tables.tolist()):
            powers = [pow(w, r, p) for r in range(n)]
            assert row == powers + [(1 - x) % p for x in powers]

    @pytest.mark.parametrize("n", [2**20, 100002])
    def test_prime_pool(self, monkeypatch, n):
        # _pool_size bounds the primes the search finds in (2^30, 2^31); a
        # request above the bound is refused before any search, one within
        # it but past the primes found once the search reaches 2^30
        monkeypatch.setattr(oracle, "_SPLIT_PRIMES", {})
        size = oracle._pool_size(n)
        with pytest.raises(oracle.CertificateLimitError):
            split_primes(n, 30 * size + 1)
        assert oracle._SPLIT_PRIMES[n] == []
        with pytest.raises(oracle.CertificateLimitError):
            split_primes(n, 30 * size)
        found = oracle._SPLIT_PRIMES[n]
        assert 0 < len(found) <= size
        assert split_primes(n, 30 * len(found)) == found
        with pytest.raises(oracle.CertificateLimitError):
            split_primes(n, 30 * len(found) + 1)


def _mean_log_bits(m, form):
    # ceil of the mean over the embeddings z -> zeta_2m^j of
    # 1 + max(log2|sigma_j A|, log2|sigma_j B|), A and B as in verify_u_relation,
    # at 200 bits with mpmath
    _, exps = scaled_exponents(form)
    total = sum(exps.values())
    pos = {k: e for k, e in exps.items() if e > 0}
    neg = {k: -e for k, e in exps.items() if e < 0}
    side = pos if total < 0 else neg  # the side that carries (1 - z^2)^|S|
    side[1] = side.get(1, 0) + abs(total)
    n = 2 * m
    units = [j for j in range(n) if gcd(j, n) == 1]
    with mpmath.workprec(200):

        def log_abs(factors, j):
            return sum(e * mpmath.log(abs(2 * mpmath.sinpi(mpmath.mpf(2 * k * j) / n)), 2) for k, e in factors.items())

        mean = mpmath.fsum(1 + max(log_abs(pos, j), log_abs(neg, j)) for j in units) / len(units)
        return int(mpmath.ceil(mean))


class TestLogSineTable:
    def test_bounds_every_entry(self):
        # every entry against a 128-bit interval enclosure, for n in 8..200
        iv = mpmath.iv
        enclosures = {}
        saved, iv.prec = iv.prec, 128
        try:
            for n in range(8, 201):
                table = norm_certificate.log_sine_table(n)
                assert len(table) == n and table[0] == 0
                for r in range(1, n):
                    q = F(min(r, n - r), n)
                    if q not in enclosures:
                        x = iv.log(2 * iv.sin(iv.pi * q.numerator / q.denominator), 2) * 2**20
                        enclosures[q] = tuple(mpf_to_fraction(mpmath.mp.make_mpf(end)) for end in x._mpi_)
                    lo, hi = enclosures[q]
                    assert hi <= table[r] <= lo + 4, (n, r)
        finally:
            iv.prec = saved

    @pytest.mark.parametrize("n", [8, 9, 12, 97, 194])
    def test_bounds_against_balls(self, n):
        ctx = balls.PrecisionContext(128)
        table = norm_certificate.log_sine_table(n)
        for r in range(1, n):
            ball = log2_of_ball(balls.ball_mul_int(balls.sin_pi_rational(r, n, ctx), 2), ctx)
            assert (ball.mid + ball.rad) * 2**20 <= table[r] <= (ball.mid - ball.rad) * 2**20 + 4, (n, r)


class TestSineRatio:
    def test_k_equal_one_is_unity(self):
        for m in (4, 7, 12):
            r = sine_ratio_elem(m, 1)
            assert r.num == r.den

    def test_sqrt2_and_sqrt3(self):
        for m, k, val in ((4, 2, mpmath.sqrt(2)), (6, 2, mpmath.sqrt(3))):
            r = sine_ratio_elem(m, k)
            q = embed_complex(r.num, 80) / embed_complex(r.den, 80)
            assert abs(q.real - val) < 1e-18
            assert abs(q.imag) < 1e-18

    def test_range_errors(self):
        with pytest.raises(ValueError):
            sine_ratio_elem(10, 0)
        with pytest.raises(ValueError):
            sine_ratio_elem(10, 6)

    def test_real_and_positive_sweep(self):
        for m in range(4, 61):
            for k in range(1, m // 2 + 1):
                r = sine_ratio_elem(m, k)
                q = embed_complex(r.num, 64) / embed_complex(r.den, 64)
                assert abs(q.imag) < 1e-15, (m, k)
                assert q.real > 0, (m, k)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CycloFraction(cyclo_one(8), cyclo_element(8, [0]))


def via_elements(m, form):
    # the product of sine ratios, evaluated in dense Q(zeta_2m) arithmetic
    _, exps = scaled_exponents(form)
    n = 2 * m
    lhs, rhs = cyclo_one(n), cyclo_one(n)
    for k, e in exps.items():
        ratio = sine_ratio_elem(m, k)
        if e > 0:
            lhs = cyclo_mul(lhs, cyclo_pow(ratio.num, e))
            rhs = cyclo_mul(rhs, cyclo_pow(ratio.den, e))
        else:
            lhs = cyclo_mul(lhs, cyclo_pow(ratio.den, -e))
            rhs = cyclo_mul(rhs, cyclo_pow(ratio.num, -e))
    return lhs == rhs


def _u_form(m, coeffs):
    return LinearForm.from_map(U_SPACE, m, {k: F(v) for k, v in coeffs.items()})


class TestVerify:
    def test_m27_listed_relation(self):
        form = _u_form(27, {6: -1, 3: 1, 2: 1, 7: 1, 8: -1, 10: -1, 11: 1})
        assert verify_u_relation(27, form)

    def test_zero_form(self):
        assert verify_u_relation(27, LinearForm.zero(U_SPACE, 27))
        assert verify_u_relation(10, LinearForm.zero(U_SPACE, 10))

    def test_single_term_fails(self):
        # log2(sin(2pi/5)/sin(pi/5)) ~ 0.694 is nonzero
        assert not verify_u_relation(5, _u_form(5, {2: 1}))

    def test_rational_coefficients(self):
        base = _u_form(27, {6: -1, 3: 1, 2: 1, 7: 1, 8: -1, 10: -1, 11: 1})
        half = LinearForm(U_SPACE, 27, tuple(c / 2 for c in base.coeffs))
        scale, exps = scaled_exponents(half)
        assert scale == 2
        assert verify_u_relation(27, half)

    def test_space_and_modulus_guards(self):
        from symfreq.linalg import S_SPACE

        with pytest.raises(ValueError):
            verify_u_relation(27, LinearForm.zero(S_SPACE, 27))
        with pytest.raises(ValueError):
            verify_u_relation(25, LinearForm.zero(U_SPACE, 27))

    # phi(2m) above 4096: the certificate has no degree limit
    def test_rejects_beyond_degree_4096(self):
        m = 4099  # prime, phi(2m) = 4098
        assert verify_u_relation(m, _u_form(m, {2: 1})) is False

    # a two-p relation at m = 4106 = 2 * 2053, phi(2m) = 4104
    TWO_P_4106 = {3: -1, 2052: 1, 6: 1, 2050: -1, 2: -1}

    def test_accepts_beyond_degree_4096(self):
        assert verify_u_relation(4106, _u_form(4106, self.TWO_P_4106)) is True

    def test_perturbation_beyond_degree_4096(self):
        for k, c in self.TWO_P_4106.items():
            for d in (-1, 1):
                bumped = _u_form(4106, {**self.TWO_P_4106, k: c + d})
                assert verify_u_relation(4106, bumped) is False, (k, d)
                assert oracle.has_refutation_witness(4106, bumped), (k, d)

    @given(st.sampled_from((10, 14, 16, 27)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_element_route(self, m, data):
        # independent route through CycloElement products
        forms = u_basis(m).forms
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(forms), max_size=len(forms)))
        vec = [sum(c * f.coeffs[i] for c, f in zip(coeffs, forms)) for i in range(m // 2 - 1)]
        form = LinearForm(U_SPACE, m, tuple(vec))
        assert via_elements(m, form) is verify_u_relation(m, form) is True
        vec[data.draw(st.integers(0, len(vec) - 1))] += data.draw(st.sampled_from((-1, 1)))
        pert = LinearForm(U_SPACE, m, tuple(vec))
        assert via_elements(m, pert) is verify_u_relation(m, pert) is False

    def test_multi_prime_accept(self):
        # M far above one prime's 30 bits, and exponents with gcd 1, so an
        # accept at split primes would need many primes
        forms = identity_u_basis(100).forms
        vec = [300 * sum(f.coeffs[i] for f in forms) + forms[0].coeffs[i] for i in range(49)]
        form = LinearForm(U_SPACE, 100, tuple(vec))
        assert _mass(form) > 100 * 61 and gcd(*(int(c) for c in vec)) == 1
        assert verify_u_relation(100, form) is True
        for i in range(len(vec)):
            for d in (-1, 1):
                bumped = list(vec)
                bumped[i] += d
                assert verify_u_relation(100, LinearForm(U_SPACE, 100, tuple(bumped))) is False


@lru_cache(maxsize=None)
def _identity_rows(m):
    # the identity basis of the oracle, eliminated without the check matrix
    return tuple(tuple(int(c) for c in f.coeffs) for f in identity_forms(m))


@given(st.sampled_from((12, 42, 60, 100, 105)), st.data())
@settings(max_examples=20, deadline=None)
def test_verdict_is_span_membership(m, data):
    # independent oracle: a form is a relation iff it lies in the span of the
    # identity basis, judged by the rank of the basis with the form appended
    rows = _identity_rows(m)
    coeffs = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(rows), max_size=len(rows)))
    vec = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(rows[0]))]
    if data.draw(st.booleans()):
        vec[data.draw(st.integers(0, len(vec) - 1))] += data.draw(st.sampled_from((-1, 1)))
    in_span = rref(integer_matrix(rows + (tuple(vec),))).rank == len(rows)
    assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(vec))) is in_span


@lru_cache(maxsize=None)
def _route_claims(m):
    # seeded true claims, each with coefficients up to +-1000: the identity
    # basis form of least mass, then combinations of the basis with
    # multipliers up to a bound B log-uniform in 1..1000, redrawn while a
    # coefficient exceeds 1000; each followed by a +-1 change of it
    rng = random.Random(m)
    rows = _identity_rows(m)
    claims = [min(rows, key=lambda row: _mass(LinearForm(U_SPACE, m, row)))]
    while len(claims) < 5:
        bound = round(1000 ** rng.random())
        coeffs = [rng.randint(-bound, bound) for _ in rows]
        vec = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(rows[0]))]
        if any(vec) and max(map(abs, vec)) <= 1000:
            claims.append(vec)
    out = []
    for vec in claims:
        bumped = list(vec)
        bumped[rng.randrange(len(vec))] += rng.choice((-1, 1))
        out += [(LinearForm(U_SPACE, m, tuple(vec)), True), (LinearForm(U_SPACE, m, tuple(bumped)), False)]
    return out


ROUTE_MODULI = [16, 27, 35, 60, 100, 210]


@pytest.mark.parametrize("m", ROUTE_MODULI)
def test_membership_agrees_with_the_norm_certificate(m):
    # span membership against evaluation over the primes of the norm bound
    # (`tests/norm_certificate.py`), and against dense Q(zeta_2m) arithmetic
    # for the claims of mass up to 64 (the dense products grow with the mass)
    assert euler_phi(2 * m) <= 4096
    for form, truth in _route_claims(m):
        assert verify_u_relation(m, form) is norm_certificate.verify_by_norm(m, form) is truth
        if _mass(form) <= 64:
            assert via_elements(m, form) is truth


@pytest.mark.parametrize("m", ROUTE_MODULI)
def test_split_prime_route_agrees_with_membership(m):
    # every claim decided at split primes alone: a false one by a mismatch,
    # a true one by agreement over M + 1 bits
    for form, truth in _route_claims(m):
        assert oracle.verify_by_split_primes(m, form) is verify_u_relation(m, form) is truth


@pytest.mark.parametrize("m", ROUTE_MODULI)
def test_every_refusal_has_a_witness(m):
    # the certificate refuses by L(1, psi) != 0, with no witness; the oracle
    # must find one for each of its refusals, a character or a split prime
    for form, truth in _route_claims(m):
        assert verify_u_relation(m, form) is truth
        if not truth:
            assert oracle.has_refutation_witness(m, form)


def test_bumped_identities_have_witnesses_to_120():
    # every identity-basis row with one coefficient moved by +-1 is refused,
    # and the oracle finds a witness for it, at every modulus in 4..120
    for m in range(4, 121):
        for row in _identity_rows(m):
            for i in (0, len(row) - 1):
                for d in (-1, 1):
                    bumped = list(row)
                    bumped[i] += d
                    form = LinearForm(U_SPACE, m, tuple(bumped))
                    assert verify_u_relation(m, form) is False, (m, i, d)
                    assert oracle.has_refutation_witness(m, form), (m, i, d)


def _reference_characters(m, roots):
    # chi(ratio_k(w^j)) from the definition, at the least prime q = 1 (mod n)
    # and the w of order n that the smallest base gives: ratio_k(w^j) =
    # w^((1-k)j) (1 - w^(2kj)) / (1 - w^(2j)) in F_q, raised to (q-1)/n and
    # looked up among the powers of w
    n = 2 * m
    q = next(q for q in range(n + 1, n * n * n, n) if is_prime(q))
    for x in range(2, q):
        w = pow(x, (q - 1) // n, q)
        if next(e for e in range(1, n + 1) if pow(w, e, q) == 1) == n:
            break
    units = [j for j in range(1, m) if gcd(j, n) == 1][:roots]
    out = []
    for k in range(2, m // 2 + 1):
        row = []
        for j in units:
            v = pow(w, (1 - k) * j, q) * (1 - pow(w, 2 * k * j, q)) * pow(1 - pow(w, 2 * j, q), -1, q) % q
            row.append(next(e for e in range(n) if pow(w, e, q) == pow(v, (q - 1) // n, q)))
        out.append(row)
    return out


@pytest.mark.parametrize("m", [4, 12, 27, 42, 105])
def test_character_matrix_matches_definition(m):
    table = oracle.character_matrix(m)
    assert table.tolist() == _reference_characters(m, oracle.CHARACTER_ROOTS)


@pytest.mark.parametrize("m", [12, 42, 60, 100, 105, 210, 300])
def test_characters_vanish_on_the_identities(m):
    # independent of the check matrix: every identity-basis row is a
    # relation, so each of its characters is 0 mod n
    table = oracle.character_matrix(m)
    assert table.shape[1] == oracle.CHARACTER_ROOTS
    for row in _identity_rows(m):
        assert not (np.array(row, dtype=object) @ table % (2 * m)).any()


@pytest.mark.parametrize("m", ROUTE_MODULI)
def test_characters_refute_every_false_route_claim(m):
    # every false claim has a character witness, and no true one has;
    # `test_split_prime_route_agrees_with_membership` refutes the same
    # claims by a mismatch at split primes
    for form, truth in _route_claims(m):
        assert oracle.character_witness(m, form) is not truth


def test_claims_with_every_character_zero_reach_the_split_primes(monkeypatch):
    # a table of zeros refutes nothing: the false claims then get their
    # witness from a mismatch at a split prime
    verdicts = []
    real = oracle._products_agree

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    def zeros(m):
        return np.zeros((m // 2 - 1, oracle.CHARACTER_ROOTS), dtype=np.int64)

    monkeypatch.setattr(oracle, "_products_agree", spy)
    monkeypatch.setattr(oracle, "character_matrix", zeros)
    for m in (27, 60):
        for form, truth in _route_claims(m):
            assert verify_u_relation(m, form) is truth
            if not truth:
                assert oracle.has_refutation_witness(m, form)
    assert verdicts == [False] * 10


def test_character_matrix_grows_with_m_only():
    # one row per U_k and a fixed number of roots, not phi(2m) columns
    assert oracle.character_matrix(4106).shape == (2052, oracle.CHARACTER_ROOTS)


@pytest.mark.parametrize("m", [*range(4, 301), 990])
def test_check_matrix_has_the_kernel_of_the_identity_span(m):
    # the closed-form table against the annihilator of the one elimination
    # of the identities: both have t columns, t the scan's count, and rank
    # t together, so u C = 0 exactly when u lies in the identity span
    oracle = identity_annihilator(m)
    check, cmax = cyclotomic.check_matrix(m)
    t = oracle.shape[1]
    formula = (m - 3) // 2 if is_prime(m) else euler_phi(m) // 2 - 1 + len(factorize(m))
    assert check.shape == (m // 2 - 1, t) and t == formula
    assert cmax == int(abs(check).max())
    assert rref(check.T).rank == t
    assert rref(np.hstack([oracle.astype(object), check.astype(object)]).T).rank == t


@pytest.mark.parametrize("m", [*range(4, 301), 990, 1155, 2310, 3002, 4106])
def test_check_matrix_equals_the_conductor_table(m):
    # the table from its first column and that column's orbit against the
    # table built conductor by conductor: same dtype, shape, column-major
    # order and entries
    check = cyclotomic.build_check_matrix(m)
    reference = conductor_check_matrix(m)
    assert check.dtype == reference.dtype == np.int64
    assert check.shape == reference.shape
    assert check.flags.f_contiguous and reference.flags.f_contiguous
    assert (check == reference).all()


def test_conductor_table_is_one_column_and_its_orbit():
    # the orbit identity on the reference's own table: T[k, b] equals
    # T[k_red(k b^-1 mod m), 1] at every unit b = 1..m'
    for m in range(4, 301):
        _, table = conductor_table(m)
        k = np.arange(1, m // 2 + 1)
        units = [b for b in range(1, m // 2 + 1) if gcd(b, m) == 1]
        assert table.shape == (len(k), len(units))
        for j, b in enumerate(units):
            r = k * pow(b, -1, m) % m
            assert (table[:, j] == table[np.minimum(r, m - r) - 1, 0]).all(), (m, b)


def test_check_matrix_entries_fit_int64():
    # the premise of the int64 table: |C| <= 2^(omega(m)+2) phi(m), and the
    # maxima the docstring of build_check_matrix quotes
    peak = 0
    for m in range(4, 1001):
        cmax = int(abs(cyclotomic.build_check_matrix(m)).max())
        assert cmax <= 2 ** (len(factorize(m)) + 2) * euler_phi(m), m
        peak = max(peak, cmax)
    assert peak == 996
    assert int(abs(cyclotomic.build_check_matrix(4106)).max()) == 4104


def test_check_matrix_kernel_at_4106_is_the_two_p_basis():
    # the constructed basis of m = 2 * 2053 lies in the kernel of C, and C
    # has full column rank and the basis full row rank mod a prime, so the
    # kernel is its span: no elimination of the identities at this size
    rows = np.array([[int(c) for c in f.coeffs] for f in two_p_u_basis(2053).forms], dtype=np.int64)
    check, _ = cyclotomic.check_matrix(4106)
    assert check.shape == (2052, 2052 - len(rows))
    # |entries| <= 2 * 2052 * 4104 < 2^53, so the float product is exact
    assert not (rows.astype(float) @ check.astype(float)).any()
    p = 2**31 - 1
    for mat in (check.T, rows):
        assert len(linalg._echelon_mod(np.ascontiguousarray(mat) % p, p)[0]) == min(mat.shape)
    # verdicts on seeded combinations of the basis, and on +-1 changes
    rng = random.Random(4106)
    for _ in range(4):
        picks = rng.sample(range(len(rows)), 6)
        vec = sum(rng.choice((-3, -2, -1, 1, 2, 3)) * rows[i] for i in picks).tolist()
        assert verify_u_relation(4106, LinearForm(U_SPACE, 4106, tuple(vec))) is True
        for d in (-1, 1):
            bumped = list(vec)
            bumped[rng.randrange(len(vec))] += d
            form = LinearForm(U_SPACE, 4106, tuple(bumped))
            assert verify_u_relation(4106, form) is False
            assert oracle.has_refutation_witness(4106, form)


def test_check_matrix_past_int64(monkeypatch):
    # the same table scaled past int64 gives a check matrix in Python ints,
    # and the same verdicts
    real = cyclotomic.check_matrix

    def scaled(m):
        check, cmax = real(m)
        return check.astype(object) << 70, cmax << 70

    monkeypatch.setattr(cyclotomic, "check_matrix", scaled)
    for m in (27, 60):
        assert cyclotomic.check_matrix(m)[0].dtype == object
        for form in identity_u_basis(m).forms:
            assert verify_u_relation(m, form) is True
            bumped = list(form.coeffs)
            bumped[0] += 1
            assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(bumped))) is False


def test_int64_gate_on_integer_coefficients():
    # rows U_2..U_4 of the m = 30 table are divisible by 4, so for
    # u = 2^62 e_(U_2) an int64 product u C wraps to 0; the gate on
    # sum|u| max|C| sends it to Python ints, and the false claim is refused
    check, _ = cyclotomic.check_matrix(30)
    assert not (check[:3] % 4).any() and check[0].any()
    u = (2**62,) + (0,) * 13
    assert not (np.array(u, dtype=np.int64) @ check).any()
    assert verify_u_relation(30, LinearForm(U_SPACE, 30, u)) is False


class _DtypeSpy(np.ndarray):
    """A check matrix that records the dtype of each product it enters."""

    seen: list = []

    def astype(self, dtype, *args, **kwargs):
        _DtypeSpy.seen.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kwargs)


@pytest.mark.parametrize("m", [27, 30, 60])
def test_int64_gate_boundary(monkeypatch, m):
    # K times a relation, and that with one coefficient moved by +-1: with
    # sum|u| max|C| just below 2^62 the product runs in int64, and from 2^62
    # on in Python ints; the verdicts are right on both sides
    real = cyclotomic.check_matrix
    monkeypatch.setattr(cyclotomic, "check_matrix", lambda m: (real(m)[0].view(_DtypeSpy), real(m)[1]))
    _, cmax = real(m)
    limit = 1 << 62
    row = identity_u_basis(m).forms[0].nums
    l1 = sum(map(abs, row))
    below = ((limit - 1) // cmax - 1) // l1
    above = -(-limit // cmax) // l1 + 1
    for scale, dtype in ((below, np.dtype(np.int64)), (above, np.dtype(object))):
        vec = [scale * c for c in row]
        claims = [(vec, True)]
        for d in (-1, 1):
            bumped = list(vec)
            bumped[0] += d
            claims.append((bumped, False))
        for u, truth in claims:
            size = sum(map(abs, u)) * cmax
            assert (size < limit) == (dtype == np.int64) and abs(size - limit) <= (l1 + 2) * cmax
            _DtypeSpy.seen.clear()
            assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(u))) is truth
            assert _DtypeSpy.seen == [dtype]


@pytest.mark.parametrize("m", [12, 30])
def test_large_exponents(m):
    # e x a relation plus another is a relation, with exponents near e and of
    # gcd 1; a +-1 change on one coefficient is not, and the oracle finds a
    # witness for each such refusal
    forms = identity_u_basis(m).forms
    for form, other in zip(forms, forms[1:] + forms[:1]):
        first = next(i for i, c in enumerate(form.coeffs) if c)
        for e in (1000, 4321):
            vec = [e * c + d for c, d in zip(form.coeffs, other.coeffs)]
            assert gcd(*(int(c) for c in vec)) == 1
            assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(vec))) is True
            for d in (-1, 1):
                bumped = list(vec)
                bumped[first] += d
                form_bumped = LinearForm(U_SPACE, m, tuple(bumped))
                assert verify_u_relation(m, form_bumped) is False
                assert oracle.has_refutation_witness(m, form_bumped)


@pytest.mark.parametrize("n", [8, 10, 24, 60])
def test_all_roots_large_exponents(n):
    # (1 - z^2)^e = ((1 - z)(1 + z))^e with 1 + z = 1 - z^(n/2 + 1), checked
    # by the oracle's product check on the roots it is given for a claim (one
    # unit j of each pair {j, -j}).  Conjugation sends each side
    # to (-1)^e z^(-2e) times itself, as that root set requires.  At
    # e = 10^5 an accept needs about 1700 (n = 8) and 1900 (n = 10) primes.
    units = [j for j in range(1, n // 2) if gcd(j, n) == 1]
    one_plus = n // 2 + 1
    agree = oracle._products_agree
    for e in (1000, 4321, 10**5) if n in (8, 10) else (1000, 4321):
        assert agree(n, 0, [(2, e)], [(1, e), (one_plus, e)], units) is True
        for d in (-1, 1):
            assert agree(n, 0, [(2, e + d)], [(1, e), (one_plus, e)], units) is False
            assert agree(n, 0, [(2, e)], [(1, e + d), (one_plus, e)], units) is False


@pytest.mark.parametrize("m", [27, 35])
@pytest.mark.parametrize("scale", [2**70, 10**9])
def test_scaled_basis_form(m, scale):
    # a relation scaled far past int64 is still a relation, and every +-1
    # change on one coefficient, with exponents near the scale, is not
    vec = [scale * c for c in u_basis(m).forms[0].coeffs]
    assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(vec))) is True
    for i in range(len(vec)):
        for d in (-1, 1):
            bumped = list(vec)
            bumped[i] += d
            assert verify_u_relation(m, LinearForm(U_SPACE, m, tuple(bumped))) is False, (i, d)


def test_norm_bits_exact_at_any_exponent():
    # the array bound against the same sums in Python ints, on both sides of
    # the point where an int64 sum could wrap
    n, units, cs = 54, [1, 5, 7, 11, 13, 17, 19, 23, 25], [2, 4, 10, 6, 8, 14]
    idx = np.outer(units, cs) % n
    table = norm_certificate.log_sine_table(n)
    big = [2**35, 7, 2**34, 1, 3, 2**33]  # partial sums near 2^62, still int64
    for exps in ([3, 1, 4, 1, 5, 9], big, [2**40, 7, 2**38, 1, 3, 2**39], [2**70, 1, 3**50, 2**69 + 1, 5, 10**9]):
        for nl in (2, 3):

            def side(lo, hi, j):
                return sum(e * table[c * j % n] for c, e in zip(cs[lo:hi], exps[lo:hi]))

            total = sum(max(side(0, nl, j), side(nl, None, j)) for j in units)
            expect = 1 - (-total // (len(units) << norm_certificate.LOG_UNIT_BITS))
            assert norm_certificate.norm_bits(n, idx, exps, nl) == expect, (exps, nl)


def test_identity_combinations_at_m100():
    # identity-basis combinations with coefficients in +-1000 are accepted;
    # a +-1 change on one coefficient is refused
    rng = random.Random(13)
    rows = _identity_rows(100)
    for _ in range(3):
        coeffs = [rng.randint(-1000, 1000) for _ in rows]
        vec = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(rows[0]))]
        assert verify_u_relation(100, LinearForm(U_SPACE, 100, tuple(vec))) is True
        vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
        assert verify_u_relation(100, LinearForm(U_SPACE, 100, tuple(vec))) is False


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_verdicts_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # chunks below one prime's roots split the oracle's roots; larger ones
    # batch primes.  The accept is decided by evaluation alone, over the
    # several primes of the norm bound, and the refusals by a mismatch.
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    forms = identity_u_basis(60).forms
    vec = [500 * sum(f.coeffs[i] for f in forms) + forms[0].coeffs[i] for i in range(29)]
    form = LinearForm(U_SPACE, 60, tuple(vec))
    assert verify_u_relation(60, form) is norm_certificate.verify_by_norm(60, form) is True
    for i in (0, 13, 28):
        bumped = list(vec)
        bumped[i] += 1
        form = LinearForm(U_SPACE, 60, tuple(bumped))
        assert verify_u_relation(60, form) is oracle.verify_by_split_primes(60, form) is False


def test_exponents_past_int64_in_the_array_pass():
    # z^e (1 - z)^e = 1 at n = 6, since 1 - z = z^-1 there; with a bound of
    # one bit, so one prime, the array pass must reduce e exactly
    for e in (2**70, 2**70 + 1, 10**30 + 7, 3**60):
        assert oracle._products_agree(6, e % 6, [(1, e)], [], [1], 1) is True
        assert oracle._products_agree(6, (e + 1) % 6, [(1, e)], [], [1], 1) is False


def test_claims_past_the_prime_pool_are_refused_at_once():
    # a true claim with gcd-1 exponents near 10^9 at m = 27 lies in the
    # identity span, so it is accepted with no prime at all, and every +-1
    # change of it is refused, and has a witness; z (1 - z) = 1 at n = 6
    # raised to 2^70, given to the oracle's product check, needs
    # M + 1 = 2^70 + 1 bits, far more than the split primes below 2^31
    # supply (about 2*10^9)
    forms = u_basis(27).forms
    vec = [10**9 * c + d for c, d in zip(forms[0].coeffs, forms[1].coeffs)]
    assert verify_u_relation(27, LinearForm(U_SPACE, 27, tuple(vec))) is True
    for i in range(len(vec)):
        for d in (-1, 1):
            bumped = list(vec)
            bumped[i] += d
            form = LinearForm(U_SPACE, 27, tuple(bumped))
            assert verify_u_relation(27, form) is False, (i, d)
            assert oracle.has_refutation_witness(27, form), (i, d)
    e = 2**70
    with pytest.raises(oracle.CertificateLimitError):
        oracle._products_agree(6, e % 6, [(1, e)], [], [1])
    assert len(oracle._SPLIT_PRIMES.get(54, ())) < 100 and len(oracle._SPLIT_PRIMES[6]) < 100


def _order(b, p):
    o = p - 1
    for q, _ in factorize(p - 1):
        while o % q == 0 and pow(b, o // q, p) == 1:
            o //= q
    return o


def test_a_mismatch_after_the_first_root_is_found(monkeypatch):
    # (1 - z^2)^e = 1 with e the order of 1 - w^2 mod the first split prime
    # holds at the root j = 1 of that prime but not at j = 3, which a chunk
    # of one entry puts in a later pass
    monkeypatch.setattr(oracle, "_CHUNK", 1)
    p, w = split_primes(10, 1)[0]
    e = _order(1 - pow(w, 2, p), p)
    assert pow(1 - pow(w, 6, p), e, p) != 1
    assert oracle._products_agree(10, 0, [(2, e)], [], [1, 3], 1) is False


def test_a_mismatch_after_the_first_primes_is_found(monkeypatch):
    # (1 - z^2)^E = (1 - z)^E with E = lcm(p1 - 1, p2 - 1) holds at every
    # root of the first two split primes by Fermat, and is false; a bound of
    # 90 bits asks for three primes, and a chunk of one entry puts each prime
    # after the first in its own pass, so the last pass refutes it
    monkeypatch.setattr(oracle, "_CHUNK", 1)
    (p1, _), (p2, _) = split_primes(8, 60)
    e = lcm(p1 - 1, p2 - 1)
    assert oracle._products_agree(8, 0, [(2, e)], [(1, e)], [1, 3], 90) is False
