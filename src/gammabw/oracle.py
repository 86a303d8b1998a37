"""Independent validators for the closed-form results.

Each routine solves its defining equation directly inside a bracket, so
its answer rests on monotonicity alone, and none calls the Lambert
evaluators of the production path, so they share no failure modes. The
Lambert W and median oracles are one bisection over doubles on 40-digit
decimal residuals, which returns the double nearest the root. The
crossing oracle takes Newton steps, backed by bisection, on the level
equation in the offset from the peak, and returns an offset once the
level changes sign within a few ulps of it. oracle_offsets returns the
offsets in units of the mode, all that the CLI --verify mode needs, and
oracle_crossings places them at the mode of a shape.
"""

import math
import sys

from .bandwidth import GammaShapeSpec, ShapeScale
from .lambertw import Branch

__all__ = [
    "BracketError",
    "oracle_lambert_w",
    "oracle_offsets",
    "oracle_crossings",
    "oracle_median_a2",
]

_INV_E = 1.0 / math.e

# u*exp(u) - z in floats has the exact residual's sign where it exceeds
# _ROUGH*|u*exp(u)| + _ROUGH_TINY in size: exp(u) is within an ulp, the
# product rounds once more, the subtraction keeps the sign of what it
# rounds, and _ROUGH_TINY covers a subnormal exp(u) times |u| < 2**11.
_ROUGH, _ROUGH_TINY = 2.0**-50, 2.0**-1060

# The certificate's half-width, in ulps of the returned offset u. For
# |u| >= 1/4 the level is formed from log1p(u) - u, whose rounding leaves
# its sign unsettled over up to about 2.5 ulps of u on either side of the
# root, and the last Newton iterate can lie as far again on the other side.
# On 30 000 seeded cuts (57 756 offsets above -1) the level changed sign
# within 1 ulp of 91% of the offsets, within 3 of all but 147, and within
# 6 of every one; 5 would have missed one. Nearer the peak the series form
# settles the sign to below an ulp.
_CERT_ULPS = 8

# The coefficients of p**2 to p**8 in the root of u - log1p(u) = p**2/2
# that has the sign of p: u = p + p**2/3 + p**3/36 - p**4/270 + ..., the
# inversion behind Temme's uniform expansions of the incomplete gamma
# function, which converges for |p| < 2*sqrt(pi).
_SERIES = (
    1.0 / 3.0, 1.0 / 36.0, -1.0 / 270.0, 1.0 / 4320.0, 1.0 / 17010.0, -139.0 / 5443200.0, 1.0 / 204120.0
)

# Below this p both offsets start from the series truncated after p**8,
# within 2.8e-4 relative of the roots at p = 2 and 1e-9 at p = 1/2, so one
# Newton step, or two, reaches each root. The start stays above -1 (it is
# -0.9473 at p = 2). Over cuts drawn like the benchmark's `fwhm --verify`,
# bounds from 1.5 to 3 took 6.74 to 6.58 level evaluations per cut, 2
# took 6.62; above it the quadratic estimates start the search.
_SERIES_P_MAX = 2.0


class BracketError(RuntimeError):
    """A crossing does not fit in a double, so no finite bracket holds it."""


def _nearest_double(exact, below: float, above: float, rough=lambda x: 0.0) -> float:
    """The double nearest the root of a monotone residual, <= 0 at below
    and > 0 at above (either may be the larger): bisection, mid = below +
    (above - below)/2, down to two adjacent doubles, then the one with the
    smaller residual. exact(x) is the residual in decimal arithmetic, and
    decides each sign that rough(x) leaves open: the residual in floats
    where its rounding cannot change its sign, and 0.0 elsewhere."""
    while True:
        mid = below + (above - below) / 2.0
        if mid == below or mid == above:
            return below if abs(exact(below)) <= abs(exact(above)) else above
        if (rough(mid) or exact(mid)) <= 0:
            below = mid
        else:
            above = mid


def oracle_lambert_w(z: float, branch: Branch) -> float:
    """Lambert W, the double nearest the root of u*exp(u) = z on the
    branch's side of u = -1, by _nearest_double on 40-digit decimal and
    float residuals; independent of the fast path."""
    if not isinstance(branch, Branch):
        raise TypeError(f"branch must be a Branch member, got {branch!r}")
    if branch is Branch.PRINCIPAL:
        if not (math.isfinite(z) and z >= -_INV_E):
            raise ValueError(f"principal branch needs z >= -1/e, got {z!r}")
        above = 1.0 if z <= math.e else 2.0 * math.log(z)
    else:
        if not (math.isfinite(z) and -_INV_E <= z < 0.0):
            raise ValueError(f"secondary branch needs -1/e <= z < 0, got {z!r}")
        above = min(-700.0, 2.0 * math.log(-z))
    # at z = -1/math.e, below -1/e, every residual is > 0: the search ends at -1
    import decimal

    context, exact_z = decimal.Context(prec=40), decimal.Decimal(z)

    def exact(u: float) -> decimal.Decimal:
        d = decimal.Decimal(u)
        return context.subtract(context.multiply(d, context.exp(d)), exact_z)

    def rough(u: float) -> float:
        p = u * math.exp(u)
        return p - z if abs(p - z) > _ROUGH * abs(p) + _ROUGH_TINY else 0.0

    return _nearest_double(exact, -1.0, above, rough)


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
    Newton steps safeguarded by bisection. With p = sqrt(-2 ln(y)/(a-1))
    below _SERIES_P_MAX they start from the roots' series in p truncated
    after p**8, and otherwise the right from the quadratic estimate p and
    the left from -1 + exp(ln(y)/(a-1) - 1). An offset is returned only
    once L is seen to change sign within _CERT_ULPS ulps of it, so like a
    bisection it rests on monotonicity alone, whatever the start; no
    Lambert W is evaluated. The offsets have opposite signs, so a width
    (a-1)*u_high - (a-1)*u_low does not cancel.
    """
    if a <= 1.0:
        raise ValueError(f"crossings need a > 1, got a={a!r}")
    if not (0.0 < y < 1.0):
        raise ValueError(f"crossing proportion must lie strictly in (0, 1), got {y!r}")
    a1 = a - 1.0
    log_y = math.log(y)
    # The roots solve u - log1p(u) = p**2/2, u = E(p) -+ O(p) from the
    # even and odd parts of the series in p.
    p = math.sqrt(-2.0 * log_y) / math.sqrt(a1)
    if p < _SERIES_P_MAX:
        c2, c3, c4, c5, c6, c7, c8 = _SERIES
        p2 = p * p
        odd = p + p * p2 * (c3 + p2 * (c5 + p2 * c7))
        even = p2 * (c2 + p2 * (c4 + p2 * (c6 + p2 * c8)))
        return _offset(a1, log_y, even - odd, 0.0, -1.0), _offset(a1, log_y, even + odd, 0.0, math.inf)
    # log1p(u) - u is above -u**2/2 for u > 0, so the estimate p lies on
    # the L > 0 side of the right root. Far below the peak the left root is
    # -1 + v with v = exp(ln(y)/(a-1) - 1 + v), and -1 + exp(ln(y)/(a-1) - 1)
    # lies on its L <= 0 side. The start stays above -1, where L = -inf
    # gives no Newton step.
    left = max(-1.0 + math.exp(log_y / a1 - 1.0), math.nextafter(-1.0, 0.0))
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
    """Median of Gamma(2, b): the double nearest the root x of
    1/2 - (1 + t)*exp(-t), t = x/b, by _nearest_double on 40-digit decimal
    residuals in [0, 10*b], capped at the largest double. Raises ValueError
    for a b that ShapeScale rejects, and where the median overflows."""
    ShapeScale(2.0, b)
    import decimal

    context, exact_b = decimal.Context(prec=40), decimal.Decimal(b)

    def exact(x: float) -> decimal.Decimal:
        t = context.divide(decimal.Decimal(x), exact_b)
        tail = context.multiply(context.add(1, t), context.exp(-t))
        return context.subtract(decimal.Decimal(0.5), tail)

    above = min(10.0 * b, sys.float_info.max)
    if exact(above) <= 0:
        raise ValueError(f"median of Gamma(2, {b!r}) overflows double precision")
    return _nearest_double(exact, 0.0, above)
