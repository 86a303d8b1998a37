"""Real branches of the Lambert W function.

Scalar, dependency-free evaluation of the two real branches of the inverse
of u -> u*exp(u): the principal branch (w >= -1, defined for z >= -1/e) and
the secondary branch (w <= -1, defined for -1/e <= z < 0), and both at a
cut z = -exp(r - 1) of a unimodal peak at a fixed fraction of its maximum.
Their offsets d = W + 1 solve d + log1p(-d) = r, and at cuts and near the
branch point they are found in the exact r without forming z. Below
q = -expm1(r) = 1/2 both come from one fixed polynomial in s = sqrt(-2r),
the secondary branch at -s, which calls no transcendental function
(Fukushima, 2013, uses such polynomials); only the principal branch above
W0 = -1/2 then takes one Newton step in v = -W0, to keep the digits of a
small v. Farther out each is solved by Newton's method in r (the Newton
form of the iteration of Iacono & Boyd, 2017). The offsets have opposite
signs, so neither their difference nor the crossings built from them
cancel. Away from the branch point w0 and wm1 take Halley's method in z,
except wm1 at subnormal z, which is solved in ln(-z).
"""

import math
import sys
from enum import Enum

__all__ = ["Branch", "w0", "wm1", "wm1_from_log", "branch_difference_from_log_ratio"]

_E = math.e
_EPS = math.ulp(1.0)
_MAX_ITER = 50

# Inputs down to this, 4 eps relative below -1/e, are the branch point
# itself: callers compute z with a couple of rounding errors of their own.
_BRANCH_POINT_MIN = -(1.0 + 4.0 * _EPS) / _E

# Above this r, q = -expm1(r) < 1/2, both offsets come from _offsets
_LN_HALF = math.log(0.5)

# W0 = -1/2 at this r; below it v = -W0 is solved, whose digits 1 - d loses
_V_FORM_R = 0.5 + _LN_HALF

# exp(r - 1) degrades or underflows below this r - 1: x_low is exp(r - 1 + ln scale)
_LOG_FORM_CUT = -690.0


class Branch(Enum):
    """Selector for the two real branches: PRINCIPAL is k=0, SECONDARY k=-1."""

    PRINCIPAL = 0
    SECONDARY = -1


def _offsets(r: float) -> tuple[float, float]:
    """(W0 + 1, Wm1 + 1) at z = -exp(r - 1) for -ln 2 <= r <= 0 (q < 1/2),
    from one polynomial in s = sqrt(-2r), the secondary branch at -s, with
    no transcendental call: W + 1 = s - u/3 + s*u*odd(u) + u**2*even(u) in
    the exact u = s**2, fitted by scripts/fit_offsets.py. The odd tail c
    takes the root's rounding error too, so W0 + 1 = s + ((c + even) - u/3)
    and Wm1 + 1 = ((even - c) - u/3) - s each round once at the end."""
    u = -2.0 * r
    s = math.sqrt(u)
    if u < 1e-290:
        # Dekker's products would go subnormal; u/3 is far below an ulp of s
        return s, -s
    # Dekker's exact square s*s = p + e from the 26-bit halves of s
    # (math.fma is 3.13+); the root's remainder is (u - s*s)/(2s)
    hi = 134217729.0 * s
    hi -= hi - s
    lo = s - hi
    p = s * s
    odd = s * u * (
        0.02777777777777778 + u * (
        0.00023148148148142728 + u * (
        -2.553644914631635e-05 + u * (
        -2.428276233807361e-07 + u * (
        7.542469876385158e-08 + u * (
        5.158578678136214e-10 + u * (
        -2.919276080688095e-10 + u * (
        -1.7064109943971151e-12 + u * (
        1.4056293720290954e-12 + u * (
        -3.6226646778444627e-14))))))))))
    even = u * u * (
        0.003703703703703704 + u * (
        -5.878894767784174e-05 + u * (
        -4.89907897303363e-06 + u * (
        1.8540621999515075e-07 + u * (
        1.4721632245329416e-08 + u * (
        -7.329996965510545e-10 + u * (
        -5.715118228123676e-11 + u * (
        3.2164039166457543e-12 + u * (
        2.6638620328462927e-13 + u * (
        -2.118175684297582e-14))))))))))
    c = odd + ((u - p) - (((hi * hi - p) + 2.0 * hi * lo) + lo * lo)) / (s + s)
    third = u / 3.0
    return s + ((c + even) - third), ((even - c) - third) - s


def _solve(x: float, r: float, in_v: bool = False) -> float:
    """Newton's method on d + log1p(-d) = r from a guess x of d, or with
    in_v on ln(v) + 1 - v = r in v = 1 - d. The d-form serves only the
    secondary branch for q >= 1/2, whose iterates stay at or below -1.22,
    where the left side does not cancel. It stops once the error predicted
    after a step s, s**2/(2|x|(1 - x)), is below an ulp of x: no evaluation
    confirms it."""
    for _ in range(_MAX_ITER):
        c = 1.0 - x
        if in_v:
            s = -(math.log(x) + c - r) * x / c
        else:
            s = (x + math.log1p(-x) - r) * c / x
        x += s
        if s * s <= 2.0 * _EPS * x * x * (1.0 - x):
            return x
    raise ArithmeticError(f"lambert w iteration did not converge for r={r!r}")


def _secondary(r: float) -> float:
    """Wm1 + 1 at z = -exp(r - 1) for r <= 0: from _offsets below q = 1/2,
    else by Newton's method in d. It serves _cut, wm1 and wm1_from_log, and
    gamma2.quantile_a2, which needs only this branch."""
    if r > _LN_HALF:
        return _offsets(r)[1]
    return _solve(r - math.log(1.0 - r), r)  # W ~ ln(-z) - ln(-ln(-z))


def _halley(w: float, z: float) -> float:
    """Halley's method on w*exp(w) = z from a guess w on the wanted branch,
    away from the branch point, until a step is below 4 ulps of w. Above
    z = 1e300, exp(w) and z are taken at 2**-64 of their size: unscaled,
    the step's terms overflow from about z = 2.76e307, and scaled by a power
    of two every operation rounds alike, so each step is the same where
    they do not."""
    scale = 2.0**-64 if z > 1e300 else 1.0
    z *= scale
    for _ in range(_MAX_ITER):
        ew = math.exp(w) * scale
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
        return -_cut(math.log1p(-q), 1.0)[0]
    return _halley(z / (1.0 + z) if z <= _E else math.log(z) - math.log(math.log(z)), z)


def wm1(z: float) -> float:
    """Secondary branch: the solution w <= -1 of w*exp(w) = z, for -1/e <= z < 0.

    wm1 at the branch point (same tolerance as w0) is exactly -1; subnormal
    z is solved in ln(-z), as wm1_from_log does. Raises ValueError for
    z >= 0 or z below -1/e beyond the tolerance.
    """
    if not math.isfinite(z) or z >= 0.0:
        raise ValueError(f"wm1 needs -1/e <= z < 0, got {z!r}")
    if -z < sys.float_info.min:
        # w*exp(w) is subnormal at the root: Halley's residual loses its digits
        return wm1_from_log(math.log(-z))
    q = 1.0 + _E * z
    if q <= 0.0:
        if z < _BRANCH_POINT_MIN:
            raise ValueError(f"wm1 is undefined below -1/e, got z={z!r}")
        q = 0.0
    if q < 0.5:
        return _secondary(math.log1p(-q)) - 1.0
    lz = math.log(-z)
    return _halley(lz - math.log(-lz), z)


def wm1_from_log(m: float) -> float:
    """Secondary branch at z = -exp(m), m <= -1, solved in m itself: accurate
    also for proportions y**(1/(a-1)) far below double-precision range,
    where exp(m) underflows. m up to 4 eps above -1 gives -1."""
    if not (math.isfinite(m) and m <= -1.0 + 4.0 * _EPS):
        raise ValueError(f"wm1_from_log needs a finite m <= -1, got {m!r}")
    return _secondary(min(m + 1.0, 0.0)) - 1.0


def _cut(r: float, scale: float) -> tuple[float, float, float]:
    """(-scale*W0, -scale*Wm1, W0 - Wm1) at z = -exp(r - 1) for an unchecked
    r <= 0 and scale >= 0: the two crossings of a cut at a peak whose mode
    is scale, and the branch difference, each branch solved once. The
    principal branch at a cut is found only here. Below q = 1/2 one
    evaluation of _offsets gives both offsets d = W + 1, and a crossing is
    scale - scale*d. Above W0 = -1/2 Newton's method solves v = -W0 instead,
    whose digits 1 - d loses, and the low crossing is scale*v; below q = 1/2
    that takes one step from the polynomial's 1 - d. Where r - 1 <= -690,
    W0 = z and the low crossing is exp(r - 1 + ln scale)."""
    if r > _LN_HALF:
        lo, hi = _offsets(r)
        if r > _V_FORM_R:
            return scale - scale * lo, scale - scale * hi, lo - hi
        v = _solve(1.0 - lo, r, True)
    else:
        hi = _secondary(r)
        if r - 1.0 <= _LOG_FORM_CUT:
            # W0(z) = z to double precision; exp(r - 1) alone may underflow
            x_low = math.exp(r - 1.0 + math.log(scale)) if scale > 0.0 else 0.0
            return x_low, scale - scale * hi, 1.0 - hi
        # from q = 1/2 on, W0(z) ~ z/(1 + z), below the root: Newton stays there
        v = _solve(1.0 / math.expm1(1.0 - r), r, True)
    return scale * v, scale - scale * hi, (1.0 - v) - hi


def branch_difference_from_log_ratio(r: float) -> float:
    """W0(z) - Wm1(z) at z = -exp(r - 1), accurate all the way to r -> 0-.

    r is the log of the peak proportion divided by the shape excess
    (r = ln(y)/(a-1) for gamma-shaped peaks); r = 0 is the branch point,
    where the difference is exactly 0; both branches are solved in r
    itself, so no precision is lost when r is tiny."""
    if not math.isfinite(r) or r > 0.0:
        raise ValueError(f"log ratio must be finite and <= 0, got {r!r}")
    return _cut(r, 1.0)[2]
