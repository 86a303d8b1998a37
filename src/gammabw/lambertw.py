"""Real branches of the Lambert W function.

Scalar, dependency-free evaluation of the two real branches of the inverse
of u -> u*exp(u): the principal branch (w >= -1, defined for z >= -1/e) and
the secondary branch (w <= -1, defined for -1/e <= z < 0). Also provides
both branches at once for arguments of the form z = -exp(r - 1), which is
where a unimodal peak is cut at a fixed fraction of its maximum. Near the
branch point z = -1/e the two branches agree to O(sqrt), so there each is
taken from the branch-point expansion of W + 1 in the exact q = -expm1(r):
the two offsets have opposite signs, so neither their difference nor the
crossings built from them cancel.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = ["Branch", "w0", "wm1", "wm1_from_log", "branch_difference_from_log_ratio"]

_E = math.e
_INV_E = 1.0 / math.e
_EPS = math.ulp(1.0)

# Inputs this far below -1/e are treated as the branch point itself:
# callers compute z with a couple of rounding errors of their own.
_BRANCH_POINT_SLACK = 4.0 * _EPS * _INV_E

_RESIDUAL_REL = 1e-13
_MAX_ITER = 50

# Below this q = 1 + e*z both branches come from the branch-point series,
# exact to double precision there (truncation 2.3e-18 relative to W + 1),
# without Halley steps: the slope of w*exp(w) vanishes like sqrt(q), so
# f/f' would amplify the rounding of f, and w0 - wm1 would cancel.
_SERIES_Q = 1e-3

# exp(m) is degraded or underflows once m drops below roughly -690;
# wm1_from_log then solves the secondary branch from the log form instead.
_LOG_FORM_CUT = -690.0


class Branch(Enum):
    """Selector for the two real branches: PRINCIPAL is k=0, SECONDARY k=-1."""

    PRINCIPAL = 0
    SECONDARY = -1


def _branch_point_series(p: float) -> float:
    # W = -1 + p - p^2/3 + (11/72)p^3 - (43/540)p^4 + (769/17280)p^5
    #     - (221/8505)p^6 + (680863/43545600)p^7 + O(p^8)
    # with p = +-sqrt(2(1 + e z)); the sign of p selects the branch.
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
        -43.0 / 540.0 + p * (769.0 / 17280.0 + p * (
            -221.0 / 8505.0 + p * (680863.0 / 43545600.0)))))))


def _offset_series(p: float) -> float:
    # W + 1 through p^11, the coefficients of Corless et al. (1996), eq. 4.22;
    # the sign of p = +-sqrt(2q) selects the branch.
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (
        769.0 / 17280.0 + p * (-221.0 / 8505.0 + p * (680863.0 / 43545600.0 + p * (
            -1963.0 / 204120.0 + p * (226287557.0 / 37623398400.0 + p * (
                -5776369.0 / 1515591000.0 + p * (169709463197.0 / 69528040243200.0)))))))))))


def _halley(w: float, z: float) -> float:
    """Polish a branch-appropriate starting guess to the residual contract.

    Always takes at least one step: a raw starting guess can have a small
    residual without being accurate where the slope of w*exp(w) is small.
    """
    tol = _RESIDUAL_REL * max(abs(z), 1e-300)
    for step in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        if step > 0 and abs(f) <= tol:
            return w
        w1 = 1.0 + w
        if w1 == 0.0:
            # Unreachable from the starting guesses; a residual this large
            # exactly at the branch point means the caller found a bug.
            raise ArithmeticError(f"halley step degenerate at w=-1 for z={z!r}")
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 4.0 * _EPS * abs(w):
            return w
    raise ArithmeticError(f"lambert w iteration did not converge for z={z!r}")


def w0(z: float) -> float:
    """Principal branch: the solution w >= -1 of w*exp(w) = z, for z >= -1/e.

    w0(0) is exactly 0; w0 at the branch point -1/e (with a few ulp of
    tolerance below it) is exactly -1. Raises ValueError outside the domain.
    """
    if not math.isfinite(z):
        raise ValueError(f"w0 needs a finite argument, got {z!r}")
    if z == 0.0:
        return 0.0
    if z < 0.0:
        q = 1.0 + _E * z
        if q <= 0.0:
            if z >= -_INV_E - _BRANCH_POINT_SLACK:
                return -1.0
            raise ValueError(f"w0 is undefined below -1/e, got z={z!r}")
        p = math.sqrt(2.0 * q)
        if q < _SERIES_Q:
            return _offset_series(p) - 1.0
        w = _branch_point_series(p)
    elif z <= _E:
        w = z / (1.0 + z)
    else:
        lz = math.log(z)
        w = lz - math.log(lz)
    w = _halley(w, z)
    return w if w >= -1.0 else -1.0


def wm1(z: float) -> float:
    """Secondary branch: the solution w <= -1 of w*exp(w) = z, for -1/e <= z < 0.

    wm1 at the branch point (same tolerance as w0) is exactly -1.
    Raises ValueError for z >= 0 or z below -1/e beyond the tolerance.
    """
    if not math.isfinite(z) or z >= 0.0:
        raise ValueError(f"wm1 needs -1/e <= z < 0, got {z!r}")
    q = 1.0 + _E * z
    if q <= 0.0:
        if z >= -_INV_E - _BRANCH_POINT_SLACK:
            return -1.0
        raise ValueError(f"wm1 is undefined below -1/e, got z={z!r}")
    if q < _SERIES_Q:
        return _offset_series(-math.sqrt(2.0 * q)) - 1.0
    if q < 0.5:
        w = _branch_point_series(-math.sqrt(2.0 * q))
    else:
        ll = math.log(-z)
        w = ll - math.log(-ll)
    w = _halley(w, z)
    return w if w <= -1.0 else -1.0


def wm1_from_log(m: float) -> float:
    """Secondary branch at z = -exp(m), m <= -1: wm1(-exp(m)) while exp(m)
    is accurate, else (proportions y**(1/(a-1)) far below double-precision
    range, where exp(m) underflows) the log form w + log(-w) = m."""
    if m > _LOG_FORM_CUT:
        return wm1(-math.exp(m))
    if not math.isfinite(m):
        raise ValueError(f"wm1_from_log needs a finite m <= -1, got {m!r}")
    w = m - math.log(-m)
    for _ in range(_MAX_ITER):
        h = w + math.log(-w) - m
        dw = h / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 4.0 * _EPS * abs(w):
            return w
    raise ArithmeticError(f"log-form secondary branch did not converge for m={m!r}")


def _cut(r: float, scale: float) -> tuple[float, float, float]:
    """(-scale*W0, -scale*Wm1, W0 - Wm1) at z = -exp(r - 1) for an unchecked
    r <= 0 and scale >= 0: the two crossings of a cut at a peak whose mode
    is scale, and the branch difference, each branch solved once."""
    q = -math.expm1(r)
    if q < _SERIES_Q:
        p = math.sqrt(2.0 * q)
        lo, hi = _offset_series(p), _offset_series(-p)
        return scale - scale * lo, scale - scale * hi, lo - hi
    m = r - 1.0
    if m <= _LOG_FORM_CUT:
        w_hi = wm1_from_log(m)
        # W0(z) = z to double precision; exp(m) alone may underflow
        x_low = math.exp(m + math.log(scale)) if scale > 0.0 else 0.0
        return x_low, -scale * w_hi, -w_hi
    z = -math.exp(m)
    w_lo, w_hi = w0(z), wm1(z)
    # + 0.0 normalizes the -0.0 low crossing of a mode that underflows to 0
    return -scale * w_lo + 0.0, -scale * w_hi, w_lo - w_hi


def branch_difference_from_log_ratio(r: float) -> float:
    """W0(z) - Wm1(z) at z = -exp(r - 1), accurate all the way to r -> 0-.

    r is the log of the peak proportion divided by the shape excess
    (r = ln(y)/(a-1) for gamma-shaped peaks); r = 0 is the branch point,
    where the difference is exactly 0. The quantity q = 1 + e*z is formed
    as -expm1(r) without ever computing z, so no precision is lost when r
    is tiny; below the series cutoff the branch-point expansions of both
    branches are subtracted, whose offsets from -1 have opposite signs.
    """
    if not math.isfinite(r) or r > 0.0:
        raise ValueError(f"log ratio must be finite and <= 0, got {r!r}")
    return _cut(r, 1.0)[2]
