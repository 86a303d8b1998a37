"""Real branches of the Lambert W function.

Scalar, dependency-free evaluation of the two real branches of the inverse
of u -> u*exp(u): the principal branch (w >= -1, defined for z >= -1/e) and
the secondary branch (w <= -1, defined for -1/e <= z < 0), and both at a
cut z = -exp(r - 1) of a unimodal peak at a fixed fraction of its maximum.
Their offsets d = W + 1 solve d + log1p(-d) = r; at cuts and near the
branch point they are solved in the exact r without forming z (the Newton
form of the iteration of Iacono & Boyd, 2017), or taken from the
branch-point series within q = -expm1(r) < 1e-3. They have opposite signs,
so neither their difference nor the crossings built from them cancel.
Away from the branch point w0 and wm1 take Halley's method in z.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = ["Branch", "w0", "wm1", "wm1_from_log", "branch_difference_from_log_ratio"]

_E = math.e
_EPS = math.ulp(1.0)
_MAX_ITER = 50

# Inputs down to this, 4 eps relative below -1/e, are the branch point
# itself: callers compute z with a couple of rounding errors of their own.
_BRANCH_POINT_MIN = -(1.0 + 4.0 * _EPS) / _E

# Below this q both branches come from the branch-point series, exact to
# double precision there (truncation 2.3e-18 relative to W + 1).
_SERIES_Q = 1e-3

# W0 = -1/2 at this q; above it v = -W0 is solved, whose digits 1 - d loses.
_V_FORM_Q = 1.0 - math.sqrt(_E) / 2.0

# exp(r - 1) degrades or underflows below this r - 1: x_low is exp(r - 1 + ln scale)
_LOG_FORM_CUT = -690.0


class Branch(Enum):
    """Selector for the two real branches: PRINCIPAL is k=0, SECONDARY k=-1."""

    PRINCIPAL = 0
    SECONDARY = -1


def _offset_series(p: float) -> float:
    # W + 1 through p^11, the coefficients of Corless et al. (1996), eq. 4.22;
    # the sign of p = +-sqrt(2q) selects the branch.
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (
        769.0 / 17280.0 + p * (-221.0 / 8505.0 + p * (680863.0 / 43545600.0 + p * (
            -1963.0 / 204120.0 + p * (226287557.0 / 37623398400.0 + p * (
                -5776369.0 / 1515591000.0 + p * (169709463197.0 / 69528040243200.0)))))))))))


def _solve(x: float, r: float, in_v: bool = False) -> float:
    """Newton's method on d + log1p(-d) = r from a guess x of d, or with
    in_v on ln(v) + 1 - v = r in v = 1 - d. For |d| < 1/2 the left side is
    -t*(d + 2*t**2*(1/3 + t**2/5 + ...)) in t = d/(2 - d), which does not
    cancel. It stops once the error predicted after a step s,
    s**2/(2|x|(1 - x)), is below an ulp of x: no evaluation confirms it."""
    for _ in range(_MAX_ITER):
        c = 1.0 - x
        if in_v:
            s = -(math.log(x) + c - r) * x / c
        elif -0.5 < x < 0.5:
            t = x / (2.0 - x)
            t2 = t * t
            # (atanh(t)/t - 1)/t2 through t2**15: truncated below an ulp for |t| < 1/3
            a = 1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (
                1.0 / 11.0 + t2 * (1.0 / 13.0 + t2 * (1.0 / 15.0 + t2 * (1.0 / 17.0 + t2 * (
                    1.0 / 19.0 + t2 * (1.0 / 21.0 + t2 * (1.0 / 23.0 + t2 * (1.0 / 25.0 + t2 * (
                        1.0 / 27.0 + t2 * (1.0 / 29.0 + t2 * (1.0 / 31.0 + t2 * (
                            1.0 / 33.0)))))))))))))))
            s = (-t * (x + 2.0 * t2 * a) - r) * c / x
        else:
            s = (x + math.log1p(-x) - r) * c / x
        x += s
        if s * s <= 2.0 * _EPS * x * x * (1.0 - x):
            return x
    raise ArithmeticError(f"lambert w iteration did not converge for r={r!r}")


def _secondary(r: float, q: float) -> float:
    """Wm1 + 1 at z = -exp(r - 1) for r <= 0 and q = -expm1(r)."""
    if q < 0.5:
        d = _offset_series(-math.sqrt(2.0 * q))
        return d if q < _SERIES_Q else _solve(d, r)
    return _solve(r - math.log(1.0 - r), r)  # W ~ ln(-z) - ln(-ln(-z))


def _low(r: float, q: float, scale: float) -> tuple[float, float]:
    """(W0 + 1, -scale*W0) at z = -exp(r - 1) for r <= 0, q = -expm1(r) and
    scale >= 0. Below W0 = -1/2 it solves d = W0 + 1 and gives the crossing
    scale - scale*d; above, it solves v = -W0 and gives scale*v."""
    if q < _V_FORM_Q:
        d = _offset_series(math.sqrt(2.0 * q))
        if q >= _SERIES_Q:
            d = _solve(d, r)
        return d, scale - scale * d
    if r - 1.0 <= _LOG_FORM_CUT:
        # W0(z) = z to double precision; exp(r - 1) alone may underflow
        return 1.0, math.exp(r - 1.0 + math.log(scale)) if scale > 0.0 else 0.0
    # from q = 1/2 on, W0(z) ~ z/(1 + z), below the root: Newton stays there
    guess = 1.0 - _offset_series(math.sqrt(2.0 * q)) if q < 0.5 else 1.0 / math.expm1(1.0 - r)
    v = _solve(guess, r, True)
    return 1.0 - v, scale * v


def _halley(w: float, z: float) -> float:
    """Halley's method on w*exp(w) = z from a guess w on the wanted branch,
    away from the branch point, until a step is below 4 ulps of w."""
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        dw = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
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
    q = 1.0 + _E * z
    if q <= 0.0:
        if z < _BRANCH_POINT_MIN:
            raise ValueError(f"w0 is undefined below -1/e, got z={z!r}")
        q = 0.0
    if q < 0.5:
        return -_low(math.log1p(-q), q, 1.0)[1]
    return _halley(z / (1.0 + z) if z <= _E else math.log(z) - math.log(math.log(z)), z)


def wm1(z: float) -> float:
    """Secondary branch: the solution w <= -1 of w*exp(w) = z, for -1/e <= z < 0.

    wm1 at the branch point (same tolerance as w0) is exactly -1.
    Raises ValueError for z >= 0 or z below -1/e beyond the tolerance.
    """
    if not math.isfinite(z) or z >= 0.0:
        raise ValueError(f"wm1 needs -1/e <= z < 0, got {z!r}")
    q = 1.0 + _E * z
    if q <= 0.0:
        if z < _BRANCH_POINT_MIN:
            raise ValueError(f"wm1 is undefined below -1/e, got z={z!r}")
        q = 0.0
    if q < 0.5:
        return _secondary(math.log1p(-q), q) - 1.0
    lz = math.log(-z)
    return _halley(lz - math.log(-lz), z)


def wm1_from_log(m: float) -> float:
    """Secondary branch at z = -exp(m), m <= -1, solved in m itself: accurate
    also for proportions y**(1/(a-1)) far below double-precision range,
    where exp(m) underflows. m up to 4 eps above -1 gives -1."""
    if not (math.isfinite(m) and m <= -1.0 + 4.0 * _EPS):
        raise ValueError(f"wm1_from_log needs a finite m <= -1, got {m!r}")
    r = min(m + 1.0, 0.0)
    return _secondary(r, -math.expm1(r)) - 1.0


def _cut(r: float, scale: float) -> tuple[float, float, float]:
    """(-scale*W0, -scale*Wm1, W0 - Wm1) at z = -exp(r - 1) for an unchecked
    r <= 0 and scale >= 0: the two crossings of a cut at a peak whose mode
    is scale, and the branch difference, each branch solved once."""
    q = -math.expm1(r)
    if q < _SERIES_Q:  # _low's and _secondary's series, sharing one sqrt: 20% faster
        p = math.sqrt(2.0 * q)
        lo, hi = _offset_series(p), _offset_series(-p)
        return scale - scale * lo, scale - scale * hi, lo - hi
    hi = _secondary(r, q)
    lo, x_low = _low(r, q, scale)
    return x_low, scale - scale * hi, lo - hi


def branch_difference_from_log_ratio(r: float) -> float:
    """W0(z) - Wm1(z) at z = -exp(r - 1), accurate all the way to r -> 0-.

    r is the log of the peak proportion divided by the shape excess
    (r = ln(y)/(a-1) for gamma-shaped peaks); r = 0 is the branch point,
    where the difference is exactly 0; both branches are solved in r
    itself, so no precision is lost when r is tiny."""
    if not math.isfinite(r) or r > 0.0:
        raise ValueError(f"log ratio must be finite and <= 0, got {r!r}")
    return _cut(r, 1.0)[2]
