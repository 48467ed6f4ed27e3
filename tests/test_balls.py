import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ball_exp import exp_ball
from ball_ops import ball_mul, contains_fraction, log2_of_fraction, overlaps
from gamma_oracle import bernoulli_number
from mpf_fraction import mpf_to_fraction
from symfreq import balls
from symfreq.balls import (
    PrecisionContext,
    RealBall,
    ball_add,
    ball_div,
    ball_div_int,
    ball_from_fraction,
    ball_mul_fraction,
    ball_mul_int,
    ball_neg,
    ball_scale_2exp,
    ball_sub,
    lgamma_ball,
    ln_ball,
    pi_ball,
    sin_pi_rational,
)

# reference digits frozen from an independent high-precision evaluation
# (mpmath at 500 bits; this package computes through its own series instead)
PI_DIGITS = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679821480865132823066470938"
SIN_QUARTER_PI = "0.70710678118654752440084436210484903928483593768847403658833986899536623923105351942519376716382078636750692311545614851246242"
LOG2_3 = "1.5849625007211561814537389439478165087598144076924810604557526545410982277943585625222804749180882420909806624750591673437176"
LGAMMA_THIRD = "0.98542064692776706918717403697796139173555649638588585423475701008940411891376044768037659832358826059427339070399936529129254"
LN2 = "0.69314718055994530941723212145817656807550013436025525412068000949339362196969471560586332699641868754200148102057068573368552"

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
any_ball = st.builds(
    lambda lo, width, scale, prec: RealBall(lo, lo + width, scale, prec),
    st.integers(-(2**90), 2**90),
    st.integers(0, 2**40),
    st.integers(0, 80),
    st.integers(64, 128),
)


def ends(b):
    return F(b.lo, 2**b.F), F(b.hi, 2**b.F)


def contains_decimal(ball, digits):
    """Whether the ball contains the number given by a long decimal string."""
    return contains_fraction(ball, F(digits))


def contains_mpf(ball, val):
    """Whether the ball contains the exact value of an mpmath reference."""
    return contains_fraction(ball, mpf_to_fraction(val))


class TestContext:
    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(32)
        with pytest.raises(ValueError):
            PrecisionContext(128, -1)
        assert PrecisionContext(128).wp == 168


class TestBallBasics:
    def test_from_fraction_exact_dyadic(self):
        b = ball_from_fraction(F(3, 8), 128)
        assert b.rad == 0 and b.mid == F(3, 8)

    def test_from_fraction_contains(self):
        b = ball_from_fraction(F(1, 3), 128)
        assert b.rad > 0 and contains_fraction(b, F(1, 3))

    def test_mpf_to_fraction_round_trip(self):
        x = mpmath.mpf("-13.40625")
        assert mpf_to_fraction(x) == F(-858, 64)

    @given(rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_add_mul_containment(self, a, b):
        prec = 80
        ba, bb = ball_from_fraction(a, prec), ball_from_fraction(b, prec)
        assert contains_fraction(ball_add(ba, bb), a + b)
        assert contains_fraction(ball_sub(ba, bb), a - b)
        assert contains_fraction(ball_mul(ba, bb), a * b)
        assert contains_fraction(ball_mul_fraction(ba, b), a * b)

    @given(rationals, rationals.filter(lambda q: abs(q) > F(1, 100)))
    @settings(max_examples=100, deadline=None)
    def test_div_containment(self, a, b):
        prec = 80
        res = ball_div(ball_from_fraction(a, prec), ball_from_fraction(b, prec))
        assert contains_fraction(res, a / b)

    def test_div_by_zero_ball(self):
        z = RealBall(-1, 3, 0, 64)  # 1 +/- 2
        with pytest.raises(ZeroDivisionError):
            ball_div(ball_from_fraction(1, 64), z)

    @given(any_ball, any_ball, st.integers(-1000, 1000).filter(bool), st.integers(-80, 80), rationals)
    @settings(max_examples=200, deadline=None)
    def test_every_operation_contains_the_exact_result_at_the_endpoints(self, a, b, n, e, q):
        # sums, differences, negation, integer multiples and scaling are
        # exact; products and quotients are the exact extremes over the
        # endpoints, floored and ceiled at the finer scale
        assert ball_add(a, b).rad == a.rad + b.rad == ball_sub(a, b).rad
        assert ball_neg(a).rad == a.rad and ball_mul_int(a, n).rad == a.rad * abs(n)
        assert ball_scale_2exp(a, e).rad == a.rad * F(2) ** e
        for op, prod in ((ball_mul, lambda x, y: x * y), (ball_div, lambda x, y: x / y)):
            if op is ball_div and b.contains_zero():
                with pytest.raises(ZeroDivisionError):
                    ball_div(a, b)
                continue
            res = op(a, b)
            vals = [prod(x, y) for x in ends(a) for y in ends(b)]
            assert res.F == max(a.F, b.F) and res.prec == min(a.prec, b.prec)
            assert (res.lo, res.hi) == (math.floor(min(vals) * 2**res.F), math.ceil(max(vals) * 2**res.F))
        for x in ends(a):
            assert contains_fraction(ball_neg(a), -x)
            assert contains_fraction(ball_mul_int(a, n), x * n)
            assert contains_fraction(ball_div_int(a, n), x / n)
            assert contains_fraction(ball_mul_fraction(a, q), x * q)
            assert contains_fraction(ball_scale_2exp(a, e), x * F(2) ** e)
            for y in ends(b):
                assert contains_fraction(ball_add(a, b), x + y)
                assert contains_fraction(ball_sub(a, b), x - y)
                assert contains_fraction(ball_mul(a, b), x * y)
                if not b.contains_zero():
                    assert contains_fraction(ball_div(a, b), x / y)


KERNEL_F = (64, 300, 1100)


class TestKernels:
    """The integer kernels bound arctan/atanh, pi, ln 2, sin and ln in units of 2^-F.

    Each is checked against mpmath at 2F + 64 bits or more: lo <= 2^F v <= hi,
    and hi - lo is a few units.
    """

    @pytest.mark.parametrize("F", KERNEL_F)
    @pytest.mark.parametrize("sign", (-1, 1))
    def test_arc_sum(self, F, sign):
        # random rationals 0 < s/t <= 1/3; the width grows by about a unit
        # per term, and there are at most F / log2(9) + 2 of them
        rng = random.Random(F * sign)
        with mpmath.workprec(2 * F + 64):
            for _ in range(40):
                t = rng.randint(3, 10 ** rng.randint(1, 40))
                s = rng.randint(1, t // 3)
                lo, hi = balls._arc_sum(s, t, F, sign)
                z = mpmath.mpf(s) / t
                ref = mpmath.ldexp(mpmath.atan(z) if sign < 0 else mpmath.atanh(z), F)
                assert lo <= ref <= hi, (s, t)
                assert hi - lo <= F // 2 + 8

    @pytest.mark.parametrize("F", KERNEL_F)
    def test_pi(self, F):
        lo, hi = balls.pi_fixed(F)
        with mpmath.workprec(2 * F + 64):
            assert lo <= mpmath.ldexp(mpmath.pi, F) <= hi
        assert hi - lo <= 2

    @pytest.mark.parametrize("F", KERNEL_F)
    def test_ln2(self, F):
        lo, hi = balls.ln2_fixed(F)
        with mpmath.workprec(2 * F + 64):
            assert lo <= mpmath.ldexp(mpmath.ln2, F) <= hi
        assert hi - lo <= 2

    @pytest.mark.parametrize("F", KERNEL_F)
    def test_sin_pi_rational(self, F):
        # at the floor of pi_lo a/b and the ceiling of pi_hi a/b, as
        # sin_pi_rational calls it, and at the top of the domain x < 2; each
        # carried Taylor term costs up to two units, about F/8 terms
        rng = random.Random(F)
        pi_lo, pi_hi = balls.pi_fixed(F)
        with mpmath.workprec(2 * F + 64):
            for _ in range(30):
                b = rng.randint(3, 500)
                a = rng.randint(1, (b - 1) // 2)
                bottom, top = pi_lo * a // b, -(-pi_hi * a // b)
                for x in (bottom, top, (2 << F) - 1):
                    lo, hi = balls.sin_fixed(x, F)
                    assert lo <= mpmath.ldexp(mpmath.sin(mpmath.ldexp(x, -F)), F) <= hi, (a, b, x)
                    assert hi - lo <= F // 4 + 32
                ref = mpmath.ldexp(mpmath.sinpi(mpmath.mpf(a) / b), F)
                assert balls.sin_fixed(bottom, F)[0] <= ref <= balls.sin_fixed(top, F)[1], (a, b)

    @pytest.mark.parametrize("F", KERNEL_F)
    def test_ln(self, F):
        # y spans 2^-F..2^F, with the ends of the reduction interval
        # [2/3, 4/3) and the powers of 2 around them
        rng = random.Random(F)
        one = 1 << F
        ys = [rng.randint(1, 1 << rng.randint(1, 2 * F)) for _ in range(40)]
        ys += [1, one - 1, one, one + 1, 2 * one // 3, 4 * one // 3, (4 * one - 1) // 3, 1 << 2 * F]
        with mpmath.workprec(2 * F + 64):
            for y in ys:
                lo, hi = balls.ln_fixed(y, F)
                assert lo <= mpmath.ldexp(mpmath.log(mpmath.ldexp(y, -F)), F) <= hi, y
                assert hi - lo <= 2

    @pytest.mark.parametrize("F", KERNEL_F)
    def test_ln_ball_contains_both_ends(self, F):
        # random positive balls up to 2^(F/2) units wide, printed at F - 16
        # bits so that the kernel runs at their own scale F
        rng = random.Random(F)
        with mpmath.workprec(2 * F + 64):
            for _ in range(30):
                lo = rng.randint(1, 1 << rng.randint(1, 2 * F))
                x = RealBall(lo, lo + rng.randint(0, 1 << F // 2), F, F)
                ball = ln_ball(x, F - 16)
                assert ball.F == F
                for end in (x.lo, x.hi):
                    ref = mpmath.log(mpmath.ldexp(end, -F))
                    assert contains_mpf(ball, ref), (x, end)

    def test_ln_ball_calls_the_kernel_once(self, monkeypatch):
        calls = []
        kernel = balls.ln_fixed
        monkeypatch.setattr(balls, "ln_fixed", lambda y, F: calls.append(y) or kernel(y, F))
        x = ball_from_fraction(F(97, 30), 300)
        ball = ln_ball(x, 300)
        assert calls == [x.lo << ball.F - x.F]
        with mpmath.workprec(400):
            assert contains_mpf(ball, mpmath.log(mpmath.mpf(97) / 30))


class TestPi:
    def test_contains_reference_digits(self):
        for prec in (64, 256):
            b = pi_ball(PrecisionContext(prec))
            assert contains_decimal(b, PI_DIGITS)
            assert b.rad <= F(1, 2**prec)

    def test_excludes_355_over_113(self):
        # the classical approximation differs from pi by ~2.7e-7
        b = pi_ball(PrecisionContext(64))
        assert not contains_fraction(b, F(355, 113))

    def test_radius_shrinks_with_precision(self):
        prev = None
        for prec in (64, 128, 256, 512):
            rad = pi_ball(PrecisionContext(prec)).rad
            if prev is not None:
                assert rad <= prev / 2**32
            prev = rad


class TestSinPiRational:
    def test_exact_half(self):
        b = sin_pi_rational(1, 2, PrecisionContext(64))
        assert contains_fraction(b, 1)

    def test_one_sixth(self):
        b = sin_pi_rational(1, 6, PrecisionContext(128))
        assert contains_fraction(b, F(1, 2))
        assert b.rad <= F(1, 2 ** (128 - 40))

    def test_quarter(self):
        b = sin_pi_rational(1, 4, PrecisionContext(256))
        assert contains_decimal(b, SIN_QUARTER_PI)

    def test_integer_argument_exact_zero(self):
        for a, nn in ((0, 1), (3, 1), (-14, 7), (10, 5)):
            b = sin_pi_rational(a, nn, PrecisionContext(64))
            assert b.mid == 0 and b.rad == 0

    def test_folding_signs(self):
        b = sin_pi_rational(7, 6, PrecisionContext(128))
        assert contains_fraction(b, F(-1, 2))
        c = sin_pi_rational(-1, 6, PrecisionContext(128))
        assert contains_fraction(c, F(-1, 2))

    def test_against_mpmath_oracle(self):
        rng = random.Random(11)
        ctx = PrecisionContext(96)
        for _ in range(100):
            b = rng.randint(1, 60)
            a = rng.randint(-120, 120)
            ball = sin_pi_rational(a, b, ctx)
            with mpmath.workprec(200):
                assert contains_mpf(ball, mpmath.sinpi(mpmath.mpf(a) / b)), (a, b)


class TestLogs:
    def test_log2_of_one_and_two(self):
        ctx = PrecisionContext(128)
        assert contains_fraction(log2_of_fraction(F(1), ctx), 0)
        assert contains_fraction(log2_of_fraction(F(2), ctx), 1)
        assert contains_fraction(log2_of_fraction(F(4), ctx), 2)

    def test_log2_of_three(self):
        b = log2_of_fraction(F(3), PrecisionContext(256))
        assert contains_decimal(b, LOG2_3)

    def test_ln2_digits(self):
        b = balls.ln2_ball(PrecisionContext(200))
        assert contains_decimal(b, LN2)

    def test_rejects_nonpositive(self):
        ctx = PrecisionContext(64)
        with pytest.raises(ValueError):
            log2_of_fraction(F(0), ctx)
        with pytest.raises(ValueError):
            ln_ball(RealBall(-1, 3, 0, 64), 64)

    def test_against_mpmath_oracle(self):
        rng = random.Random(5)
        for _ in range(100):
            q = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            ball = ln_ball(ball_from_fraction(q, 120), 120)
            with mpmath.workprec(220):
                assert contains_mpf(ball, mpmath.log(mpmath.mpf(q.numerator) / q.denominator)), q


class TestExp:
    def test_exp_zero(self):
        assert contains_fraction(exp_ball(ball_from_fraction(0, 96), 96), 1)

    def test_exp_ln_round_trip(self):
        for q in (F(3, 2), F(10), F(1, 7)):
            b = exp_ball(ln_ball(ball_from_fraction(q, 128), 128), 128)
            assert contains_fraction(b, q)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)
        assert bernoulli_number(2) == F(1, 6)
        assert bernoulli_number(4) == F(-1, 30)
        assert bernoulli_number(12) == F(-691, 2730)
        assert bernoulli_number(3) == 0

    def test_against_mpmath_bernfrac(self):
        for n in range(0, 62, 2):
            p, q = mpmath.bernfrac(n)
            assert bernoulli_number(n) == F(p, q)

    def test_stirling_pairs_equal_bernoulli_ratios(self):
        # the tangent-number pairs of lgamma_ball against the Fraction recurrence
        pairs = balls._stirling_pairs(512)
        for k in range(1, 401):
            c, e = pairs[k - 1]
            assert F(c, e) == bernoulli_number(2 * k) / (2 * k * (2 * k - 1)), k
        assert balls._stirling_pairs(64) == pairs[:64]


class TestLgamma:
    def test_gamma_one_and_two(self):
        ctx = PrecisionContext(128)
        assert contains_fraction(lgamma_ball(1, 1, ctx), 0)
        assert contains_fraction(lgamma_ball(2, 1, ctx), 0)

    def test_half_is_half_log_pi(self):
        ctx = PrecisionContext(256)
        b = lgamma_ball(1, 2, ctx)
        ref = balls.ball_scale_2exp(ln_ball(pi_ball(ctx), ctx.wp), -1)
        assert overlaps(b, ref)

    def test_one_third_digits(self):
        b = lgamma_ball(1, 3, PrecisionContext(256))
        assert contains_decimal(b, LGAMMA_THIRD)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lgamma_ball(0, 1, PrecisionContext(64))
        with pytest.raises(ValueError):
            lgamma_ball(-3, 2, PrecisionContext(64))

    def test_against_mpmath_oracle(self):
        rng = random.Random(17)
        ctx = PrecisionContext(96)
        for _ in range(100):
            q = F(rng.randint(1, 200), rng.randint(1, 60))
            ball = lgamma_ball(q.numerator, q.denominator, ctx)
            with mpmath.workprec(250):
                assert contains_mpf(ball, mpmath.loggamma(mpmath.mpf(q.numerator) / q.denominator)), q

    def test_reflection_identity(self):
        # exp(lgamma(z) + lgamma(1-z)) agrees with pi / sin(pi z)
        rng = random.Random(3)
        ctx = PrecisionContext(128)
        for _ in range(15):
            b = rng.randint(3, 40)
            a = rng.randint(1, b - 1)
            lhs = exp_ball(ball_add(lgamma_ball(a, b, ctx), lgamma_ball(b - a, b, ctx)), ctx.wp)
            rhs = ball_div(pi_ball(ctx), sin_pi_rational(a, b, ctx))
            assert overlaps(lhs, rhs), (a, b)


class TestMonotonePrecision:
    def test_radii_shrink_geometrically(self):
        cases = [
            lambda ctx: pi_ball(ctx),
            lambda ctx: sin_pi_rational(1, 7, ctx),
            lambda ctx: log2_of_fraction(F(7, 5), ctx),
            lambda ctx: lgamma_ball(2, 7, ctx),
        ]
        for fn in cases:
            prev = None
            for prec in (64, 128, 256):
                rad = fn(PrecisionContext(prec)).rad
                assert rad > 0
                if prev is not None:
                    assert rad <= prev / 2**32
                prev = rad
