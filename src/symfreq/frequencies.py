"""Certified evaluation of digit-frequency values and relation residuals.

Three families of numbers are produced, all as midpoint-radius balls:

* h_value(m, d): the asymptotic frequency of continued-fraction digits
  congruent to d mod m, through the log-Gamma closed form
  log2(Gamma(d/m) Gamma((d+2)/m) / Gamma((d+1)/m)^2);
* s_value(m, d): the symmetric frequency, through sine ratios;
* u_value(m, k): log2(sin(pi k/m)/sin(pi/m)), the working coordinates for
  relation hunting (u_value(m, 1) is exactly zero).

S- and U-values, and the residuals of forms over them, are integer
combinations of one log-sine vector L(r, m) = log2 sin(pi r/m), whose
entries are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def log2_sine(r: int, m: int, wp: int) -> RealBall:
    """L(r, m) = log2 sin(pi r/m) at working precision wp, cached per entry."""
    ctx = PrecisionContext(wp, 0)
    return balls.log2_ball(balls.sin_pi_rational(r, m, ctx), ctx)


def _log_sine_coeffs(space: str, m: int, items) -> dict[int, Fraction]:
    """The coefficients a_r with sum(c_i value_i) = sum(a_r L(r, m)).

    U_k = L_k - L_1, so U_1 cancels exactly; S_d = 2 L_(d+1) - L_d - L_(d+2)
    for d < m'-1, and S_(m'-1) = L_m' - L_(m'-1).
    """
    half = m // 2
    out: dict[int, Fraction] = {}
    for i, c in items:
        if space == U_SPACE:
            terms = ((i, c), (1, -c))
        elif i == half - 1:
            terms = ((half, c), (half - 1, -c))
        else:
            terms = ((i + 1, 2 * c), (i, -c), (i + 2, -c))
        for r, a in terms:
            out[r] = out.get(r, 0) + a
    return {r: a for r, a in out.items() if a}


def _log_sine_sum(coeffs: dict, m: int, ctx: PrecisionContext) -> RealBall:
    """The ball sum(a_r L(r, m)) at precision ctx.prec."""
    wp = ctx.wp
    acc = balls.ball_exact_zero(wp)
    for r, a in coeffs.items():
        acc = balls.ball_add(acc, balls.ball_mul_fraction(log2_sine(r, m, wp), a, wp), wp)
    return balls._restamp(acc, ctx.prec)


def s_value(m: int, d: int, ctx: PrecisionContext) -> RealBall:
    """Symmetric frequency from the log-sine vector.

    For d < m'-1 this is log2(sin(pi(d+1)/m)^2 / (sin(pi d/m) sin(pi(d+2)/m)));
    the boundary index d = m'-1 uses the single-ratio form
    log2(sin(pi m'/m)/sin(pi(m'-1)/m)) for either parity of m.
    """
    _check_index("S", m, d)
    return _log_sine_sum(_log_sine_coeffs(S_SPACE, m, [(d, 1)]), m, ctx)


def u_value(m: int, k: int, ctx: PrecisionContext) -> RealBall:
    """log2(sin(pi k/m)/sin(pi/m)); exactly zero at k = 1."""
    _check_index("U", m, k)
    return _log_sine_sum(_log_sine_coeffs(U_SPACE, m, [(k, 1)]), m, ctx)


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
    return _log_sine_sum(_log_sine_coeffs(form.space, form.m, form.items()), form.m, ctx)


def residual_report(form: LinearForm, ctx: PrecisionContext) -> dict:
    """Residual ball plus the numeric-support verdict for a form.

    Supported means: the ball contains zero and its radius is at most
    2^-(prec - guard) * l1(a) * max|L_r|, over the coefficients a_r of the
    form on the log-sine values L_r it is summed from, i.e. consistent with
    an exact zero computed at this precision.
    """
    coeffs = _log_sine_coeffs(form.space, form.m, form.items())
    residual = _log_sine_sum(coeffs, form.m, ctx)
    l1 = sum(abs(a) for a in coeffs.values())
    vmax = max([mpmath.mpf(1)] + [log2_sine(r, form.m, ctx.wp).abs_upper() for r in coeffs])
    tol = mpmath.ldexp(mpmath.mpf(1), -(ctx.prec - ctx.guard))
    tol = mpmath.fmul(tol, mpmath.fmul(vmax, mpmath.fdiv(l1.numerator, l1.denominator) if l1 else mpmath.mpf(1)), prec=53, rounding="u")
    supported = residual.contains_zero() and (form.is_zero() or residual.rad <= tol)
    return {"residual": residual, "supported": supported, "tolerance": tol}
