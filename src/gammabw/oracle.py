"""Independent validators for the closed-form results.

Each routine solves its defining equation directly inside a bracket, so
its answer rests on monotonicity alone, and none calls the Lambert
evaluators of the production path, so they share no failure modes. The
Lambert W and median oracles bisect. The crossing oracle takes Newton
steps on the level equation in the offset from the peak, kept inside the
bracket and backed by bisection, and returns an offset only once the
level is seen to change sign within a few ulps of it: fast and accurate
to float resolution, also where the crossings merge at the peak.
oracle_offsets returns those offsets, which depend on the shape and the
level alone, in units of the mode; oracle_crossings places them at the
mode of a given shape. Used by the test suite and by the CLI --verify
mode, which needs only the offsets.
"""

import math
import sys
from collections.abc import Callable

from .bandwidth import GammaShapeSpec
from .gamma2 import cdf_a2
from .lambertw import Branch

__all__ = [
    "BracketError",
    "oracle_lambert_w",
    "oracle_offsets",
    "oracle_crossings",
    "oracle_median_a2",
]

_INV_E = 1.0 / math.e

# The certificate's half-width, in ulps of the returned offset u. For
# |u| >= 1/4 the level is formed from log1p(u) - u, whose rounding leaves
# its sign unsettled over up to about 2.5 ulps of u on either side of the
# root, and the last Newton iterate can lie as far again on the other side.
# On 36 771 seeded cuts 6 ulps always certified the root and 4 did not.
# Nearer the peak the series form settles the sign to below an ulp.
_CERT_ULPS = 8


class BracketError(RuntimeError):
    """A crossing does not fit in a double, so no finite bracket holds it."""


def _bisect(f: Callable[[float], float], lo: float, hi: float, atol: float) -> float:
    """Root of f on [lo, hi] by bisection, to atol or float resolution.

    f(lo) and f(hi) must have opposite signs (zero counts as negative).
    """
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or (hi - lo) <= atol:
            return mid
        fm = f(mid)
        if (fm <= 0.0) == (flo <= 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def oracle_lambert_w(z: float, branch: Branch) -> float:
    """Lambert W by bisection on u*exp(u) = z; independent of the fast path."""
    if not isinstance(branch, Branch):
        raise TypeError(f"branch must be a Branch member, got {branch!r}")
    if branch is Branch.PRINCIPAL:
        if not (math.isfinite(z) and z >= -_INV_E):
            raise ValueError(f"principal branch needs z >= -1/e, got {z!r}")
        lo = -1.0
        hi = 1.0 if z <= math.e else 2.0 * math.log(z)
    else:
        if not (math.isfinite(z) and -_INV_E <= z < 0.0):
            raise ValueError(f"secondary branch needs -1/e <= z < 0, got {z!r}")
        lo = min(-700.0, 2.0 * math.log(-z))
        hi = -1.0
    if z + _INV_E <= 0.0:
        # At the branch point the two roots merge at the bracket edge and
        # u*exp(u) - z only touches zero, so there is no sign change left.
        return -1.0
    # Run to float resolution; that is always within 1e-14*max(1, |u|).
    return _bisect(lambda u: u * math.exp(u) - z, lo, hi, 0.0)


def _log1pmx(u: float) -> float:
    """log1p(u) - u for u >= -1, without cancellation near u = 0.

    For |u| < 1/4 it is summed in s = u/(2 + u): log1p(u) = 2*atanh(s) and
    2*s - u = -u*s, so log1p(u) - u = -u*s + 2*s**3*(1/3 + s**2/5 + ...).
    For u < 0 every term has the sign of the first; for u > 0 the others
    take off at most 4% of it. There |s| <= 1/7, so ten terms leave a
    truncation below 4e-18 relative. Elsewhere log1p(u) - u keeps all
    but a few bits.
    """
    if -0.25 < u < 0.25:
        s = u / (2.0 + u)
        s2 = s * s
        return -u * s + 2.0 * s * s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (
            1.0 / 7.0 + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0 + s2 * (1.0 / 13.0 + s2 * (
                1.0 / 15.0 + s2 * (1.0 / 17.0 + s2 * (1.0 / 19.0 + s2 * (1.0 / 21.0))))))))))
    if u <= -1.0:
        return -math.inf
    return math.log1p(u) - u


def _offset(a1: float, log_y: float, u: float, pos: float, neg: float) -> float:
    """Certified root of L(v) = a1*(log1p(v) - v) - log_y, searched from u.

    L is monotone from pos, where L > 0, to neg, where L <= 0; neg may be
    +inf. Newton steps, with L'(v) = -a1*v/(1 + v), stay inside this
    bracket, and each one shrinks it. A step that would leave the bracket,
    or that is more than half the step before it, is replaced by
    bisection, which doubles pos while the bracket is unbounded. Once the
    next Newton step would be below half an ulp, the Newton iterate v is
    returned if L changes sign between v - _CERT_ULPS*ulp(v) and
    v + _CERT_ULPS*ulp(v), and otherwise the search goes on by bisection.
    A bracket with no double inside returns the end that bisection gives.
    """
    old = math.inf
    while True:
        lev = a1 * _log1pmx(u) - log_y
        if lev > 0.0:
            pos = u
        else:
            neg = u
        lo, hi = (pos, neg) if pos < neg else (neg, pos)
        step = lev * (1.0 + u) / (a1 * u)
        v = u + step
        # v == u: the step is below half an ulp, and u is now an end
        if (lo < v < hi or v == u) and abs(step) <= 0.5 * old:
            # L''/L' = 1/(v*(1 + v)): the next step would be about
            # step**2/(2*v*(1 + v)), below half an ulp once this fails
            if step * step > math.ulp(v) * abs(v * (1.0 + v)):
                old, u = abs(step), v
                continue
            e = _CERT_ULPS * math.ulp(v)
            below = a1 * _log1pmx(v - e) - log_y
            above = a1 * _log1pmx(v + e) - log_y
            if (below > 0.0) != (above > 0.0):
                return v
        v = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        if v == lo or v == hi:
            return v
        old, u = abs(v - u), v


def oracle_offsets(a: float, y: float) -> tuple[float, float]:
    """(u_low, u_high): the offsets from the peak of the two solutions of
    g(x) = y * max(g) for a gamma shape of shape a, in units of the mode.

    The crossings are x = m*(1 + u) for the unshifted shape with mode
    m = (a-1)*b; the offsets depend on a and y alone. They solve the level
    equation L(u) = (a-1)*(log1p(u) - u) - ln(y) = 0: K and b cancel, L is
    monotone on each side of u = 0, and log1p(u) - u is summed without
    cancellation near the peak. The left offset is searched in [-1, 0] and
    the right in [0, h], h the first point found below the level, by
    Newton steps safeguarded by bisection, each from its quadratic
    estimate -+sqrt(-2 ln(y)/(a-1)). An offset is returned only once L is
    seen to change sign within _CERT_ULPS ulps of it, so like a bisection
    it rests on monotonicity alone; no Lambert W is evaluated. The
    offsets have opposite signs, so a width (a-1)*u_high - (a-1)*u_low
    does not cancel.
    """
    if a <= 1.0:
        raise ValueError(f"crossings need a > 1, got a={a!r}")
    if not (0.0 < y < 1.0):
        raise ValueError(f"crossing proportion must lie strictly in (0, 1), got {y!r}")
    a1 = a - 1.0
    log_y = math.log(y)
    # log1p(u) - u is below -u**2/2 for u < 0 and above it for u > 0, so
    # the estimates lie on the L <= 0 side of the left root and the L > 0
    # side of the right one. Far below the peak the left root is -1 + v
    # with v = exp(ln(y)/(a-1) - 1 + v), and -1 + exp(ln(y)/(a-1) - 1),
    # also on the L <= 0 side, is the closer start. The start stays above
    # -1, where L = -inf gives no Newton step.
    p = math.sqrt(-2.0 * log_y) / math.sqrt(a1)
    left = max(-p, -1.0 + math.exp(log_y / a1 - 1.0), math.nextafter(-1.0, 0.0))
    return _offset(a1, log_y, left, 0.0, -1.0), _offset(a1, log_y, p, 0.0, math.inf)


def oracle_crossings(spec: GammaShapeSpec, y: float) -> tuple[float, float]:
    """Both solutions of g(x) = y * max(g) for a gamma shape.

    Each crossing is x = (m - s) + m*u, with m = (a-1)*b the peak of the
    unshifted shape and u = (x + s)/m - 1 the offset from it, which
    oracle_offsets certifies: like a bisection it rests on monotonicity
    alone, and no Lambert W is evaluated. With s = m the crossings are m*u
    exactly rounded, and their difference adds two numbers of opposite
    sign. Raises ValueError as oracle_offsets does, and BracketError when
    a crossing overflows.
    """
    u_low, u_high = oracle_offsets(spec.params.a, y)
    m = (spec.params.a - 1.0) * spec.params.b
    base = m - spec.s
    low, high = base + m * u_low, base + m * u_high
    if not (math.isfinite(low) and math.isfinite(high)):
        raise BracketError(f"a crossing overflows for y={y!r}, spec={spec!r}")
    return low, high


def oracle_median_a2(b: float) -> float:
    """Median of Gamma(2, b) by bisecting the CDF against 1/2 on [0, 10*b],
    capped at the largest double. Raises ValueError for a b that cdf_a2
    rejects, and when the median lies beyond the cap (overflows double precision)."""
    # Bisect u = x/2, so that the bracket ends never sum past the largest
    # double; halving is exact, so the steps are those of bisecting x.
    hi = min(5.0 * b, 0.5 * sys.float_info.max)
    if cdf_a2(2.0 * hi, b) < 0.5:
        raise ValueError(f"median of Gamma(2, {b!r}) overflows double precision")
    return 2.0 * _bisect(lambda u: cdf_a2(2.0 * u, b) - 0.5, 0.0, hi, 0.5e-13 * b)
