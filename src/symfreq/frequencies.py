"""Certified evaluation of digit-frequency values and relation residuals.

Three families of numbers are produced, all as `balls.RealBall` enclosures:

* h_value(m, d): the asymptotic frequency of continued-fraction digits
  congruent to d mod m, through the log-Gamma closed form
  log2(Gamma(d/m) Gamma((d+2)/m) / Gamma((d+1)/m)^2);
* s_value(m, d): the symmetric frequency, through sine ratios;
* u_value(m, k): log2(sin(pi k/m)/sin(pi/m)), the working coordinates for
  relation hunting (u_value(m, 1) is exactly zero).

Every value, and the residual of every form, is an integer combination of
one of two vectors of natural logarithms, each cached per entry:
G(a) = ln Gamma(a/m) for H, with coefficients (1, -2, 1) at a = d, d+1,
d+2, and L(r) = ln sin(pi r/m) for S and U, with the coefficients that
`relations.log_sine_coeffs` reads.  The integer sum is exact; it is divided
once by a form's denominator and once by ln 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import balls
from .balls import PrecisionContext, RealBall
from .linalg import LinearForm, S_SPACE, U_SPACE
from .relations import log_sine_coeffs


def index_range(kind: str, m: int) -> tuple[int, int]:
    """The valid indices lo..hi of a kind at modulus m; H and U need m >= 2, S m >= 4."""
    if kind not in ("H", "S", "U"):
        raise ValueError(f"unknown value kind {kind!r}")
    least = 4 if kind == "S" else 2
    if m < least:
        raise ValueError(f"{kind}-values need a modulus m >= {least}, got {m}")
    return 1, {"H": m, "S": m // 2 - 1, "U": m // 2}[kind]


@lru_cache(maxsize=None)
def ln_sine(r: int, m: int, wp: int) -> RealBall:
    """L(r) = ln sin(pi r/m) at working precision wp, cached per entry."""
    return balls.ln_ball(balls.sin_pi_rational(r, m, PrecisionContext(wp, 0)), wp)


@lru_cache(maxsize=None)
def ln_gamma(a: int, m: int, wp: int) -> RealBall:
    """G(a) = ln Gamma(a/m) at working precision wp, cached per entry."""
    return balls.lgamma_ball(a, m, PrecisionContext(wp, 0))


def _log2_sum(entry, coeffs: dict, m: int, ctx: PrecisionContext, den: int = 1) -> RealBall:
    """The ball sum(a_r entry(r, m)) / den / ln 2, printed at ctx.prec bits."""
    acc = balls.ball_from_fraction(0, ctx.prec)
    for r, a in coeffs.items():
        acc = balls.ball_add(acc, balls.ball_mul_int(entry(r, m, ctx.wp), a))
    return balls.ball_div(balls.ball_div_int(acc, den), balls.ln2_ball(ctx))


def _value_coeffs(kind: str, m: int, index: int):
    """The vector and the integers a_r with value = sum(a_r entry(r, m)) / ln 2; U_1 is 0."""
    lo, hi = index_range(kind, m)
    if not lo <= index <= hi:
        raise ValueError(f"{kind}-index {index} out of range {lo}..{hi} for m={m}")
    if kind == "H":
        return ln_gamma, {index: 1, index + 1: -2, index + 2: 1}
    unit = np.zeros(m // 2 - 1, dtype=np.int64)
    first = 1 if kind == "S" else 2
    if index >= first:
        unit[index - first] = 1
    return ln_sine, log_sine_coeffs(S_SPACE if kind == "S" else U_SPACE, unit)


def frequency_value(kind: str, m: int, index: int, ctx: PrecisionContext) -> RealBall:
    """The H-, S- or U-value of the given index at modulus m."""
    entry, coeffs = _value_coeffs(kind, m, index)
    return _log2_sum(entry, coeffs, m, ctx)


def h_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Frequency of digits = d mod m: (G(d) - 2 G(d+1) + G(d+2)) / ln 2."""
    return frequency_value("H", m, d, ctx)


def s_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Symmetric frequency from the log-sine vector.

    For d < m'-1 this is log2(sin(pi(d+1)/m)^2 / (sin(pi d/m) sin(pi(d+2)/m)));
    the boundary index d = m'-1 uses the single-ratio form
    log2(sin(pi m'/m)/sin(pi(m'-1)/m)) for either parity of m.
    """
    return frequency_value("S", m, d, ctx)


def u_value(m: int, k: int, ctx: PrecisionContext) -> RealBall:
    """log2(sin(pi k/m)/sin(pi/m)); exactly zero at k = 1."""
    return frequency_value("U", m, k, ctx)


def evaluate_form(form: LinearForm, ctx: PrecisionContext) -> RealBall:
    """Residual ball sum(c_i * value_i) of a linear form, summed over the log-sine vector.

    A relation is numerically supported when the result contains zero with a
    radius small against the coefficient mass; see residual_report.
    """
    coeffs = log_sine_coeffs(form.space, np.array(form.nums, dtype=object))
    return _log2_sum(ln_sine, coeffs, form.m, ctx, form.den)


def residual_report(form: LinearForm, ctx: PrecisionContext) -> dict:
    """Residual ball plus the numeric-support verdict for a form.

    Supported means: the ball contains zero and its radius is at most the
    tolerance 2^-(prec - guard) * l1(a) * max(1, max|L_r / ln 2|), over the
    coefficients a_r of the form on the log-sine values L_r it is summed
    from, i.e. consistent with an exact zero computed at this precision.
    The tolerance is an exact Fraction, |L_r / ln 2| is bounded by the upper
    end of its ball, and the comparison with the exact radius is exact.
    """
    coeffs = log_sine_coeffs(form.space, np.array(form.nums, dtype=object))
    residual = _log2_sum(ln_sine, coeffs, form.m, ctx, form.den)
    l1 = Fraction(sum(map(abs, coeffs.values())), form.den)
    ln2 = balls.ln2_ball(ctx)
    vmax = max(
        [Fraction(1)]
        + [balls.ball_div(ln_sine(r, form.m, ctx.wp), ln2).abs_upper() for r in coeffs]
    )
    tol = l1 * vmax / 2 ** (ctx.prec - ctx.guard)
    supported = residual.contains_zero() and (form.is_zero() or residual.rad <= tol)
    return {"residual": residual, "supported": supported, "tolerance": tol}
