"""Brute-force validators for the closed-form results.

Everything here is bracketed bisection: slow, but correct by monotonicity
alone, with no failure modes shared with the Halley-based production path
(these routines never call the Lambert evaluators). Used by the test suite
and by the CLI --verify mode.
"""

from __future__ import annotations

import math
from typing import Callable

from .bandwidth import GammaShapeSpec
from .gamma2 import cdf_a2
from .lambertw import Branch

__all__ = ["BracketError", "oracle_lambert_w", "oracle_crossings", "oracle_median_a2"]

_INV_E = 1.0 / math.e


class BracketError(RuntimeError):
    """No sign change found while expanding a search bracket."""


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


def oracle_crossings(spec: GammaShapeSpec, y: float) -> tuple[float, float]:
    """Both solutions of g(x) = y * max(g) for a gamma shape, by bisection.

    The level equation is bisected in log form, which is monotone-equivalent
    and does not overflow for large shape parameters. Left crossing is
    bracketed by [-s, peak]; the right bracket doubles outward from the
    peak until the shape falls below the level; BracketError if it
    overflows first.
    """
    a, b, s = spec.params.a, spec.params.b, spec.s
    if a <= 1.0:
        raise ValueError(f"crossings need a > 1, got a={a!r}")
    if not (0.0 < y < 1.0):
        raise ValueError(f"crossing proportion must lie strictly in (0, 1), got {y!r}")
    m = (a - 1.0) * b
    log_y = math.log(y)

    def level_diff(x: float) -> float:
        # log(g(x)) - log(y * g at the peak); K cancels.
        xp = x + s
        if xp <= 0.0:
            return -math.inf
        d = xp - m
        # log1p keeps precision where the crossings hug the peak (large a);
        # away from it the plain ratio is safe.
        lg = math.log1p(d / m) if abs(d) < 0.5 * m else math.log(xp / m)
        return (a - 1.0) * lg - d / b - log_y

    atol = 1e-12 * (m + b)
    left = _bisect(level_diff, -s, m - s, atol)
    step = b
    hi = m - s + step
    while not level_diff(hi) < 0.0:
        if not math.isfinite(hi):
            raise BracketError(f"no upper crossing found for y={y!r}, spec={spec!r}")
        step *= 2.0
        hi = m - s + step
    right = _bisect(level_diff, m - s, hi, atol)
    return left, right


def oracle_median_a2(b: float) -> float:
    """Median of Gamma(2, b) by bisecting the CDF against 1/2."""
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"scale parameter b must be positive, got {b!r}")
    return _bisect(lambda x: cdf_a2(x, b) - 0.5, 0.0, 10.0 * b, 1e-13 * b)
