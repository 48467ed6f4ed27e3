"""Certified evaluation of digit-frequency values and relation residuals.

Three families of numbers are produced, all as midpoint-radius balls:

* h_value(m, d): the asymptotic frequency of continued-fraction digits
  congruent to d mod m, through the log-Gamma closed form
  log2(Gamma(d/m) Gamma((d+2)/m) / Gamma((d+1)/m)^2);
* s_value(m, d): the symmetric frequency, through sine ratios;
* u_value(m, k): log2(sin(pi k/m)/sin(pi/m)), the working coordinates for
  relation hunting (u_value(m, 1) is exactly zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import balls
from .balls import PrecisionContext, RealBall
from .linalg import LinearForm, S_SPACE, U_SPACE


@dataclass(frozen=True)
class FrequencyValue:
    kind: str  # "H" | "S" | "U"
    m: int
    index: int
    value: RealBall


def _check_index(kind: str, m: int, index: int):
    lo, hi = index_range(kind, m)
    if not lo <= index <= hi:
        raise ValueError(f"{kind}-index {index} out of range {lo}..{hi} for m={m}")


def index_range(kind: str, m: int) -> tuple[int, int]:
    """The valid indices lo..hi of a kind at modulus m; H and U need m >= 2, S m >= 4."""
    if kind not in ("H", "S", "U"):
        raise ValueError(f"unknown value kind {kind!r}")
    least = 4 if kind == "S" else 2
    if m < least:
        raise ValueError(f"{kind}-values need a modulus m >= {least}, got {m}")
    return 1, {"H": m, "S": m // 2 - 1, "U": m // 2}[kind]


def h_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Frequency of digits = d mod m via the Gamma closed form."""
    _check_index("H", m, d)
    wp = ctx.wp
    acc = balls.ball_add(
        balls.lgamma_ball(d, m, PrecisionContext(wp, 0)),
        balls.lgamma_ball(d + 2, m, PrecisionContext(wp, 0)),
        wp,
    )
    mid_term = balls.lgamma_ball(d + 1, m, PrecisionContext(wp, 0))
    acc = balls.ball_sub(acc, balls.ball_scale_2exp(mid_term, 1), wp)
    return balls._restamp(balls.ball_div(acc, balls._ln2_cached(wp), wp), ctx.prec)


def s_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Symmetric frequency via sine ratios.

    For d < m'-1 this is log2(sin(pi(d+1)/m)^2 / (sin(pi d/m) sin(pi(d+2)/m)));
    the boundary index d = m'-1 uses the single-ratio form
    log2(sin(pi m'/m)/sin(pi(m'-1)/m)) for either parity of m.
    """
    half = m // 2
    _check_index("S", m, d)
    wp = ctx.wp
    if d == half - 1:
        num = balls.sin_pi_rational(half, m, PrecisionContext(wp, 0))
        den = balls.sin_pi_rational(half - 1, m, PrecisionContext(wp, 0))
        ratio = balls.ball_div(num, den, wp)
    else:
        s1 = balls.sin_pi_rational(d + 1, m, PrecisionContext(wp, 0))
        num = balls.ball_mul(s1, s1, wp)
        den = balls.ball_mul(
            balls.sin_pi_rational(d, m, PrecisionContext(wp, 0)),
            balls.sin_pi_rational(d + 2, m, PrecisionContext(wp, 0)),
            wp,
        )
        ratio = balls.ball_div(num, den, wp)
    return balls._restamp(balls.ball_div(balls.ln_ball(ratio, wp), balls._ln2_cached(wp), wp), ctx.prec)


def u_value(m: int, k: int, ctx: PrecisionContext) -> RealBall:
    """log2(sin(pi k/m)/sin(pi/m)); exactly zero at k = 1."""
    _check_index("U", m, k)
    if k == 1:
        return balls.ball_exact_zero(ctx.prec)
    wp = ctx.wp
    ratio = balls.ball_div(
        balls.sin_pi_rational(k, m, PrecisionContext(wp, 0)),
        balls.sin_pi_rational(1, m, PrecisionContext(wp, 0)),
        wp,
    )
    return balls._restamp(balls.ball_div(balls.ln_ball(ratio, wp), balls._ln2_cached(wp), wp), ctx.prec)


def frequency_value(kind: str, m: int, index: int, ctx: PrecisionContext) -> FrequencyValue:
    if kind == "H":
        val = h_value(m, index, ctx)
    elif kind == "S":
        val = s_value(m, index, ctx)
    elif kind == "U":
        val = u_value(m, index, ctx)
    else:
        raise ValueError(f"unknown value kind {kind!r}")
    return FrequencyValue(kind, m, index, val)


def evaluate_form(form: LinearForm, ctx: PrecisionContext) -> RealBall:
    """Residual ball sum(c_i * value_i) of a linear form.

    A relation is numerically supported when the result contains zero with a
    radius small against the coefficient mass; see residual_report.
    """
    wp = ctx.wp
    acc = balls.ball_exact_zero(wp)
    for idx, c in form.items():
        if form.space == S_SPACE:
            v = s_value(form.m, idx, PrecisionContext(wp, 0))
        else:
            v = u_value(form.m, idx, PrecisionContext(wp, 0))
        acc = balls.ball_add(acc, balls.ball_mul_fraction(v, c, wp), wp)
    return balls._restamp(acc, ctx.prec)


def residual_report(form: LinearForm, ctx: PrecisionContext) -> dict:
    """Residual ball plus the numeric-support verdict for a form.

    Supported means: the ball contains zero and its radius is at most
    2^-(prec - guard) * l1(c) * max|value|, i.e. consistent with an exact
    zero computed at this precision.
    """
    wp = ctx.wp
    values = {}
    for idx, c in form.items():
        if form.space == S_SPACE:
            values[idx] = s_value(form.m, idx, PrecisionContext(wp, 0))
        else:
            values[idx] = u_value(form.m, idx, PrecisionContext(wp, 0))
    acc = balls.ball_exact_zero(wp)
    l1 = Fraction(0)
    vmax = mpmath.mpf(1)
    for idx, c in form.items():
        acc = balls.ball_add(acc, balls.ball_mul_fraction(values[idx], c, wp), wp)
        l1 += abs(c)
        vmax = max(vmax, values[idx].abs_upper())
    residual = balls._restamp(acc, ctx.prec)
    tol = mpmath.ldexp(mpmath.mpf(1), -(ctx.prec - ctx.guard))
    tol = mpmath.fmul(tol, mpmath.fmul(vmax, mpmath.fdiv(l1.numerator, l1.denominator) if l1 else mpmath.mpf(1)), prec=53, rounding="u")
    supported = residual.contains_zero() and (form.is_zero() or residual.rad <= tol)
    return {"residual": residual, "supported": supported, "tolerance": tol}
