"""Closed forms for the Gamma(2, b) special case.

The gamma CDF and quantile have no elementary closed form for general
shape, but at shape 2 the CDF is 1 - (1 + x/b)*exp(-x/b) and its inverse
comes out of the secondary Lambert branch. That makes the median exact,
and it ties the quantile function to the two-valued density inverse
through a simple algebraic identity that is checked here numerically.
"""

import math

from . import lambertw
from .bandwidth import ShapeScale, inverse_pdf
from .lambertw import Branch

__all__ = ["cdf_a2", "quantile_a2", "median_a2", "check_transform_identity"]

_E = math.e


def _check_scale(b: float) -> None:
    if not math.isfinite(b):
        raise ValueError(f"scale parameter b must be finite, got {b!r}")
    if not b > 0.0:
        raise ValueError(f"scale parameter b must be positive, got {b!r}")


def _check_level(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability level must lie strictly in (0, 1), got {p!r}")


def cdf_a2(x: float, b: float) -> float:
    """CDF of Gamma(2, b): 1 - (1 + x/b)*exp(-x/b), for x >= 0; 1 where
    x/b overflows."""
    _check_scale(b)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"cdf_a2 needs finite x >= 0, got {x!r}")
    t = x / b
    if t == math.inf:
        return 1.0  # the limit; t * exp(-t) would be inf * 0 = nan
    # Grouped so the small-x value t**2/2 - ... survives the cancellation
    # between the two O(t) terms.
    return -math.expm1(-t) - t * math.exp(-t)


def quantile_a2(p: float, b: float) -> float:
    """Quantile of Gamma(2, b): -b*(1 + Wm1((p-1)/e)), for 0 < p < 1.

    Wm1 + 1 is solved at r = log1p(-p), where q = 1 + e*z is p itself, so
    no digit of p is lost. Raises ValueError when it overflows double
    precision.
    """
    _check_level(p)
    _check_scale(b)
    x = -b * lambertw._secondary(math.log1p(-p))
    if not math.isfinite(x):
        raise ValueError(f"quantile of Gamma(2, {b!r}) at p={p!r} overflows double precision")
    return x


def median_a2(b: float) -> float:
    """Median of Gamma(2, b); scales linearly in b and sits in (5/3, 2)*b.
    Raises ValueError when it overflows double precision (b above about
    1.07e308)."""
    return quantile_a2(0.5, b)


def check_transform_identity(p: float, b: float) -> float:
    """Residual of the identity tying the density inverse to the quantile.

    At shape 2, the larger of the two density-inverse values at level
    p/(e*b), divided by b, equals the quantile at 1 - p divided by b plus
    one (both reduce to -Wm1(-p/e)). The right side is taken at r = ln p,
    the quantile's r = log1p(-(1 - p)) without the rounding of 1 - p.
    Returns the absolute difference of the two sides: below 1e-12 for p
    in (0, 0.999] at scales from 1e-100 to 1e100, wherever the level
    p/(e*b) is a normal double. A subnormal level keeps fewer digits of
    p, and toward p = 1, or at more extreme scales, the rounding of the
    level's logarithm in inverse_pdf's cut is amplified near the maximum.
    Raises ValueError where the level underflows to 0.
    """
    _check_level(p)
    params = ShapeScale(2.0, b)
    level = p / (_E * b)
    upper = inverse_pdf(level, params, Branch.SECONDARY)
    # The secondary branch is the larger of the two inverse values on the
    # whole valid domain at shape 2.
    lower = inverse_pdf(level, params, Branch.PRINCIPAL)
    if upper < lower:
        raise ArithmeticError(f"inverse_pdf branches out of order at p={p!r}, b={b!r}")
    lhs = upper / b
    rhs = 1.0 - lambertw._secondary(math.log(p))
    return abs(lhs - rhs)
