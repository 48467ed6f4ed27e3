from fractions import Fraction as F

import pytest

from ball_ops import contains_fraction, log2_of_fraction, overlaps
from gamma_oracle import h_three_lgammas
from series_oracle import h_series
from symfreq import balls, frequencies
from symfreq.balls import PrecisionContext
from symfreq.frequencies import (
    evaluate_form,
    frequency_value,
    h_value,
    index_range,
    residual_report,
    s_value,
    u_value,
)
from symfreq.linalg import LinearForm, S_SPACE, U_SPACE

CTX = PrecisionContext(128)


class TestHValue:
    def test_h41_is_one_half(self):
        assert contains_fraction(h_value(4, 1, CTX), F(1, 2))

    def test_residue_classes_sum_to_one(self):
        total = balls.ball_from_fraction(0, CTX.wp)
        for d in (1, 2, 3):
            total = balls.ball_add(total, h_value(3, d, CTX))
        assert contains_fraction(total, 1)

    @pytest.mark.parametrize("prec", (128, 1024))
    @pytest.mark.parametrize("m", (4, 5, 12, 97))
    def test_all_residues_telescope_to_one(self, m, prec):
        # with G(a) = ln Gamma(a/m), sum_d (G(d) + G(d+2) - 2 G(d+1)) is
        # G(m+2) - G(m+1) - G(2) + G(1) = ln 2, since Gamma(1+x) = x Gamma(x):
        # an exact identity, through the Pochhammer logarithms at every d
        ctx = PrecisionContext(prec)
        total = balls.ball_from_fraction(0, ctx.wp)
        for d in range(1, m + 1):
            total = balls.ball_add(total, h_value(m, d, ctx))
        assert contains_fraction(total, 1)
        assert total.rad <= F(m, 2**prec)

    def test_inhomogeneous_identity_m12(self):
        ctx = PrecisionContext(256)
        acc = h_value(12, 1, ctx)
        for d in (6, 7, 8):
            acc = balls.ball_sub(acc, h_value(12, d, ctx))
        assert contains_fraction(acc, F(1, 3))

    def test_strictly_positive(self):
        for m, d in ((5, 3), (12, 11), (12, 12), (7, 7)):
            assert h_value(m, d, CTX).is_positive()

    @pytest.mark.parametrize(
        "ms, prec",
        ((range(4, 31), 64), (range(4, 31), 256), ((12, 97), 1024)),
        ids=("m4..30-64", "m4..30-256", "m12,97-1024"),
    )
    def test_equals_the_three_lgamma_oracle(self, ms, prec):
        # the sum over the cached log-Gamma vector is the same ball, end for end
        ctx = PrecisionContext(prec)
        for m in ms:
            for d in range(1, m + 1):
                old, new = h_three_lgammas(m, d, ctx), h_value(m, d, ctx)
                assert (old.lo, old.hi, old.F) == (new.lo, new.hi, new.F), (m, d)

    def test_index_errors(self):
        with pytest.raises(ValueError):
            h_value(12, 0, CTX)
        with pytest.raises(ValueError):
            h_value(12, 13, CTX)


class TestHSeries:
    def test_m4_d1(self):
        b = h_series(4, 1, 10**6)
        assert contains_fraction(b, F(1, 2))
        assert b.rad <= 2e-6

    def test_total_frequency(self):
        assert contains_fraction(h_series(1, 1, 10**6), 1)

    def test_agrees_with_closed_form(self):
        hv = h_value(5, 2, CTX)
        hs = h_series(5, 2, 10**6)
        assert abs(hv.mid - hs.mid) < 1e-5
        assert overlaps(hv, hs)

    def test_term_bound_validation(self):
        with pytest.raises(ValueError):
            h_series(10, 1, 5)


class TestSValue:
    def test_boundary_m4(self):
        assert contains_fraction(s_value(4, 1, CTX), F(1, 2))

    def test_m6_log2_three_halves(self):
        assert overlaps(s_value(6, 1, CTX), log2_of_fraction(F(3, 2), CTX))

    def test_pair_of_h_values(self):
        # away from the boundary the symmetric frequency is H_d + H_{m-2-d}
        s = s_value(10, 3, CTX)
        pair = balls.ball_add(h_value(10, 3, CTX), h_value(10, 5, CTX))
        assert overlaps(s, pair)

    def test_even_boundary_is_single_h(self):
        s = s_value(10, 4, CTX)
        assert overlaps(s, h_value(10, 4, CTX))

    def test_odd_modulus_pairing_all_indices(self):
        m = 9
        for d in range(1, m // 2):
            s = s_value(m, d, CTX)
            pair = balls.ball_add(h_value(m, d, CTX), h_value(m, m - 2 - d, CTX))
            assert overlaps(s, pair), d

    def test_positive(self):
        for m in (7, 12, 20):
            for d in range(1, m // 2):
                assert s_value(m, d, CTX).is_positive()

    def test_index_errors(self):
        with pytest.raises(ValueError):
            s_value(10, 5, CTX)
        with pytest.raises(ValueError):
            s_value(10, 0, CTX)


class TestUValue:
    def test_u1_exact_zero(self):
        for m in (4, 27, 96):
            b = u_value(m, 1, CTX)
            assert b.mid == 0 and b.rad == 0

    def test_m4_u2(self):
        assert contains_fraction(u_value(4, 2, CTX), F(1, 2))

    def test_second_difference_matches_s(self):
        # S_d agrees with 2U_{d+1} - U_d - U_{d+2}
        m, d = 27, 3
        u = balls.ball_mul_int(u_value(m, d + 1, CTX), 2)
        u = balls.ball_sub(u, u_value(m, d, CTX))
        u = balls.ball_sub(u, u_value(m, d + 2, CTX))
        assert overlaps(u, s_value(m, d, CTX))

    def test_index_errors(self):
        with pytest.raises(ValueError):
            u_value(10, 6, CTX)


def test_frequency_value_dispatch():
    assert frequency_value("U", 27, 1, CTX).rad == 0
    assert frequency_value("H", 27, 5, CTX) == h_value(27, 5, CTX)
    with pytest.raises(ValueError):
        frequency_value("Q", 27, 1, CTX)
    assert index_range("H", 12) == (1, 12)
    assert index_range("S", 12) == (1, 5)
    assert index_range("U", 12) == (1, 6)


class TestEvaluateForm:
    def test_zero_form(self):
        b = evaluate_form(LinearForm.zero(U_SPACE, 27), CTX)
        assert b.mid == 0 and b.rad == 0

    def test_paper_relation_residual(self):
        ctx = PrecisionContext(256)
        form = LinearForm.from_map(
            U_SPACE, 27, {6: F(-1), 3: F(1), 2: F(1), 7: F(1), 8: F(-1), 10: F(-1), 11: F(1)}
        )
        res = evaluate_form(form, ctx)
        assert res.contains_zero()
        assert res.rad < F(1, 2**200)

    def test_perturbed_residual_excludes_zero(self):
        ctx = PrecisionContext(256)
        form = LinearForm.from_map(
            U_SPACE, 27, {6: F(-1), 3: F(1), 2: F(2), 7: F(1), 8: F(-1), 10: F(-1), 11: F(1)}
        )
        res = evaluate_form(form, ctx)
        assert not res.contains_zero()

    def test_s_space_form(self):
        form = LinearForm.from_map(S_SPACE, 10, {1: F(-1), 3: F(2), 4: F(2)})
        assert evaluate_form(form, CTX).contains_zero()

    def test_residual_report_verdicts(self):
        good = LinearForm.from_map(U_SPACE, 12, {2: F(-2), 5: F(1)})
        rep = residual_report(good, CTX)
        assert rep["supported"]
        bad = LinearForm.from_map(U_SPACE, 12, {2: F(-2), 5: F(1), 6: F(1)})
        assert not residual_report(bad, CTX)["supported"]


def test_telescoping_small():
    # U_{k+1} equals the weighted sum min(d, k) * S_d over all d
    for m in (7, 12):
        half = m // 2
        svals = {d: s_value(m, d, CTX) for d in range(1, half)}
        for k in range(1, half):
            rhs = balls.ball_from_fraction(0, CTX.wp)
            for d in range(1, half):
                rhs = balls.ball_add(rhs, balls.ball_mul_int(svals[d], min(d, k)))
            assert overlaps(u_value(m, k + 1, CTX), rhs), (m, k)


def test_h_values_share_the_log_gamma_cache(run_cli, monkeypatch):
    # a full H list at m needs G(1..m+2), one series each; a single value three
    calls = []
    real = balls.lgamma_ball

    def spy(a, b, ctx):
        calls.append((a, b))
        return real(a, b, ctx)

    monkeypatch.setattr(balls, "lgamma_ball", spy)
    frequencies.ln_gamma.cache_clear()
    assert run_cli("freq", "--m", "300", "--kind", "H")[0] == 0
    assert sorted(calls) == [(a, 300) for a in range(1, 303)]
    frequencies.ln_gamma.cache_clear()
    calls.clear()
    assert run_cli("freq", "--m", "300", "--kind", "H", "--index", "7")[0] == 0
    assert sorted(calls) == [(7, 300), (8, 300), (9, 300)]
