"""Certified evaluation of digit-frequency values and relation residuals.

Three families of numbers are produced, all as `balls.RealBall` enclosures:

* h_value(m, d): the asymptotic frequency of continued-fraction digits
  congruent to d mod m, through the log-Gamma closed form
  log2(Gamma(d/m) Gamma((d+2)/m) / Gamma((d+1)/m)^2);
* s_value(m, d): the symmetric frequency, through sine ratios;
* u_value(m, k): log2(sin(pi k/m)/sin(pi/m)), the working coordinates for
  relation hunting (u_value(m, 1) is exactly zero).

S- and U-values, and the residuals of forms over them, are integer
combinations of one log-sine vector L(r, m) = log2 sin(pi r/m), read by
`relations.log_sine_coeffs`, whose entries are cached; a form is summed
over its integer numerators and divided once by its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import balls
from .balls import PrecisionContext, RealBall
from .linalg import LinearForm, S_SPACE, U_SPACE
from .relations import log_sine_coeffs


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
    acc = balls.ball_add(balls.lgamma_ball(d, m, ctx), balls.lgamma_ball(d + 2, m, ctx))
    acc = balls.ball_sub(acc, balls.ball_scale_2exp(balls.lgamma_ball(d + 1, m, ctx), 1))
    return balls.ball_div(acc, balls.ln2_ball(ctx))


@lru_cache(maxsize=None)
def log2_sine(r: int, m: int, wp: int) -> RealBall:
    """L(r, m) = log2 sin(pi r/m) = ln sin(pi r/m) / ln 2 at working precision wp, cached per entry."""
    ctx = PrecisionContext(wp, 0)
    return balls.ball_div(balls.ln_ball(balls.sin_pi_rational(r, m, ctx), wp), balls.ln2_ball(ctx))


def _value_coeffs(space: str, m: int, index: int) -> dict[int, int]:
    """The integers a_r with value_index = sum(a_r L(r, m)); U_1 is 0."""
    unit = np.zeros(m // 2 - 1, dtype=np.int64)
    first = 1 if space == S_SPACE else 2
    if index >= first:
        unit[index - first] = 1
    return log_sine_coeffs(space, unit)


def _log_sine_sum(coeffs: dict, m: int, ctx: PrecisionContext, den: int = 1) -> RealBall:
    """The ball sum(a_r L(r, m)) / den, printed at ctx.prec bits."""
    acc = balls.ball_from_fraction(0, ctx.prec)
    for r, a in coeffs.items():
        acc = balls.ball_add(acc, balls.ball_mul_int(log2_sine(r, m, ctx.wp), a))
    return balls.ball_div_int(acc, den)


def s_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Symmetric frequency from the log-sine vector.

    For d < m'-1 this is log2(sin(pi(d+1)/m)^2 / (sin(pi d/m) sin(pi(d+2)/m)));
    the boundary index d = m'-1 uses the single-ratio form
    log2(sin(pi m'/m)/sin(pi(m'-1)/m)) for either parity of m.
    """
    _check_index("S", m, d)
    return _log_sine_sum(_value_coeffs(S_SPACE, m, d), m, ctx)


def u_value(m: int, k: int, ctx: PrecisionContext) -> RealBall:
    """log2(sin(pi k/m)/sin(pi/m)); exactly zero at k = 1."""
    _check_index("U", m, k)
    return _log_sine_sum(_value_coeffs(U_SPACE, m, k), m, ctx)


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
    """Residual ball sum(c_i * value_i) of a linear form, summed over the log-sine vector.

    A relation is numerically supported when the result contains zero with a
    radius small against the coefficient mass; see residual_report.
    """
    coeffs = log_sine_coeffs(form.space, np.array(form.nums, dtype=object))
    return _log_sine_sum(coeffs, form.m, ctx, form.den)


def residual_report(form: LinearForm, ctx: PrecisionContext) -> dict:
    """Residual ball plus the numeric-support verdict for a form.

    Supported means: the ball contains zero and its radius is at most the
    tolerance 2^-(prec - guard) * l1(a) * max(1, max|L_r|), over the
    coefficients a_r of the form on the log-sine values L_r it is summed
    from, i.e. consistent with an exact zero computed at this precision.
    The tolerance is an exact Fraction, |L_r| is bounded by the upper end
    of its ball, and the comparison with the exact radius is exact.
    """
    coeffs = log_sine_coeffs(form.space, np.array(form.nums, dtype=object))
    residual = _log_sine_sum(coeffs, form.m, ctx, form.den)
    l1 = Fraction(sum(map(abs, coeffs.values())), form.den)
    vmax = max([Fraction(1)] + [log2_sine(r, form.m, ctx.wp).abs_upper() for r in coeffs])
    tol = l1 * vmax / 2 ** (ctx.prec - ctx.guard)
    supported = residual.contains_zero() and (form.is_zero() or residual.rad <= tol)
    return {"residual": residual, "supported": supported, "tolerance": tol}
