"""Width measures of gamma-shaped functions.

A gamma-shaped function is K * (x+s)**(a-1) * exp(-(x+s)/b): the gamma
probability density up to an amplitude K and a domain shift s. For shape
a >= 1 such a peak has its maximum at (a-1)*b - s, and the two abscissae
where it falls to a fraction y of that maximum have a closed form in the
two real branches of the Lambert W function. This module evaluates the
density, its two-valued inverse, the full width at any proportion of the
maximum (FWHM at y = 1/2), the octave bandwidth, and the normal-curve
approximation to the FWHM together with its overshoot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import lambertw

# wm1 and branch_difference_from_log_ratio are not called here; they stay
# importable from this module, where benchmarks/tracing.py wraps them.
from .lambertw import Branch, branch_difference_from_log_ratio, w0, wm1, wm1_from_log  # noqa: F401

__all__ = [
    "ShapeScale",
    "GammaShapeSpec",
    "WidthResult",
    "OctaveResult",
    "gamma_pdf",
    "gamma_pdf_values",
    "gamma_shaped",
    "mode",
    "inverse_pdf",
    "fwym",
    "fwhm",
    "fwym_shifted",
    "gaussian_fwhm_approx",
    "approx_proportional_error",
    "octave_bandwidth",
]

_LN2 = math.log(2.0)

# FWHM of a unit-variance normal curve.
_GAUSS_FWHM_UNIT_SIGMA = 2.0 * math.sqrt(2.0 * _LN2)

# How far a requested density level may exceed the computed maximum before
# it is rejected; callers often pass y*p_max recomputed with rounding.
_PMAX_SLACK = 1e-12


@dataclass(frozen=True)
class ShapeScale:
    """Shape a and scale b of a gamma density; widths need a >= 1, b > 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a >= 1.0):
            raise ValueError(
                f"shape parameter a must be >= 1 (widths are undefined below"
                f" that: no interior maximum), got {self.a!r}"
            )
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"scale parameter b must be positive, got {self.b!r}")


@dataclass(frozen=True)
class GammaShapeSpec:
    """A gamma-shaped function: parameters plus amplitude K and shift s."""

    params: ShapeScale
    K: float = 1.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValueError(f"amplitude K must be positive, got {self.K!r}")
        if not math.isfinite(self.s):
            raise ValueError(f"domain shift s must be finite, got {self.s!r}")


@dataclass(frozen=True)
class WidthResult:
    """Crossing abscissae and width of a peak cut at proportion y of its max.

    The width field is computed through the cancellation-free branch
    difference and is the authoritative value. Each crossing is within
    ulp(mode) + 1e-12 half-widths of the exact one, also very close to
    y = 1, so x_high - x_low agrees with the width up to the rounding of
    the mode.
    """

    x_low: float
    x_high: float
    width: float
    mode: float
    y: float

    def __post_init__(self) -> None:
        if not (self.x_low <= self.mode <= self.x_high):
            raise ValueError("crossings must straddle the mode")
        if not self.width >= 0.0:
            raise ValueError("width must be nonnegative")


@dataclass(frozen=True)
class OctaveResult:
    """High/low crossing abscissae and their ratio in log-base-2 octaves."""

    high: float
    low: float
    octaves: float

    def __post_init__(self) -> None:
        if not (self.high >= self.low >= 0.0):
            raise ValueError("crossings must satisfy high >= low >= 0")
        if not self.octaves >= 0.0:
            raise ValueError("octave count must be nonnegative")


def mode(params: ShapeScale) -> float:
    """Location of the density maximum, (a-1)*b; 0 for the exponential case."""
    return (params.a - 1.0) * params.b


def _log_normaliser(params: ShapeScale) -> Optional[tuple[float, float]]:
    """lgamma(a) and a*ln(b), the two terms of the log of the gamma
    density's normaliser; None when either overflows double precision
    (lgamma does from a ~ 2.6e305)."""
    a = params.a
    try:
        lgamma_a = math.lgamma(a)
    except OverflowError:
        return None
    a_log_b = a * math.log(params.b)
    return (lgamma_a, a_log_b) if math.isfinite(a_log_b) else None


def _density(x: float, a1: float, b: float, lgamma_a: float, a_log_b: float) -> float:
    """Gamma density at x > 0 from its hoisted constants, a1 = a - 1."""
    try:
        return math.exp(a1 * math.log(x) - x / b - lgamma_a - a_log_b)
    except OverflowError:
        raise ValueError(f"gamma density at x={x!r} overflows double precision") from None


def gamma_pdf(x: float, params: ShapeScale) -> float:
    """Gamma probability density at x >= 0, evaluated in log space.

    Raises ValueError for a negative or nonfinite x, and for a positive x
    when the normaliser Gamma(a) * b**a or the density itself overflows
    double precision.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"gamma_pdf needs finite x >= 0, got {x!r}")
    a, b = params.a, params.b
    if x == 0.0:
        return 1.0 / b if a == 1.0 else 0.0
    norm = _log_normaliser(params)
    if norm is None:
        raise ValueError(
            f"normaliser of the gamma density of {params!r} overflows double precision"
        )
    lgamma_a, a_log_b = norm
    return _density(x, a - 1.0, b, lgamma_a, a_log_b)


def gamma_pdf_values(xs: Sequence[float], params: ShapeScale) -> list[float]:
    """[gamma_pdf(x, params) for x in xs], bit for bit and with the same
    ValueError, but with lgamma(a) and a*ln(b) computed once for the grid."""
    norm = _log_normaliser(params)
    # min() and sum() screen the grid in C; a negative, NaN or infinite x,
    # or an overflowing normaliser, sends it through gamma_pdf point by point.
    if norm is None or not (min(xs, default=0.0) >= 0.0 and math.isfinite(sum(xs))):
        return [gamma_pdf(x, params) for x in xs]
    a1, b = params.a - 1.0, params.b
    lgamma_a, a_log_b = norm
    origin = 1.0 / b if params.a == 1.0 else 0.0
    return [_density(x, a1, b, lgamma_a, a_log_b) if x else origin for x in xs]


def gamma_shaped(x: float, spec: GammaShapeSpec) -> float:
    """Gamma-shaped function K * (x+s)**(a-1) * exp(-(x+s)/b) for x+s >= 0."""
    xp = x + spec.s
    if not (math.isfinite(xp) and xp >= 0.0):
        raise ValueError(f"gamma_shaped needs x + s >= 0, got x+s={xp!r}")
    a, b = spec.params.a, spec.params.b
    if xp == 0.0:
        return spec.K if a == 1.0 else 0.0
    return spec.K * math.exp((a - 1.0) * math.log(xp) - xp / b)


def inverse_pdf(p: float, params: ShapeScale, branch: Branch) -> float:
    """Abscissa where the gamma density equals p, on the requested side.

    The density is two-to-one away from its maximum, so the inverse is a
    two-valued relation: the principal branch returns the abscissa at or
    below the mode, the secondary branch the one at or above it. Needs
    a > 1 (at a = 1 the density is one-to-one) and 0 < p <= p_max, where
    p_max is the density value at the mode; p may exceed p_max by at most
    1e-12 relative, which is clamped to the mode.
    """
    if not isinstance(branch, Branch):
        raise TypeError(f"branch must be a Branch member, got {branch!r}")
    a, b = params.a, params.b
    if a <= 1.0:
        raise ValueError("inverse_pdf needs a > 1; the density is one-sided at a = 1")
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"density level must be positive, got {p!r}")
    m = mode(params)
    p_max = gamma_pdf(m, params)
    if p > p_max * (1.0 + _PMAX_SLACK):
        raise ValueError(
            f"density level {p!r} exceeds the maximum {p_max!r} of the density"
        )
    # Argument of W, assembled in log space so that huge a and tiny p
    # neither overflow nor lose the lead digits.
    t = (math.log(p) + math.lgamma(a) + a * math.log(b)) / (a - 1.0) - math.log(m)
    if t > -1.0:
        t = -1.0  # a level at the maximum, up to rounding: the branch point
    w = w0(-math.exp(t)) if branch is Branch.PRINCIPAL else wm1_from_log(t)
    return -m * w + 0.0  # + 0.0 normalizes the -0.0 arising at tiny levels


def _crossings(params: ShapeScale, y: float) -> tuple[float, float, float]:
    """(x_low, x_high, W0 - Wm1) of the density cut at proportion y of its
    maximum, at z = -exp(ln(y)/(a-1) - 1); y = 1 is the branch point, where
    both crossings sit at the mode, and at a = 1 (z = 0) the low crossing
    is 0 and the branch difference infinite. Raises ValueError for y
    outside (0, 1]."""
    if not (0.0 < y <= 1.0):
        raise ValueError(f"proportion of maximum must lie in (0, 1], got {y!r}")
    peak = mode(params)
    if y == 1.0:
        return peak, peak, 0.0
    if params.a == 1.0:
        return 0.0, -params.b * math.log(y), math.inf
    return lambertw._cut(math.log(y) / (params.a - 1.0), peak)


def fwym(params: ShapeScale, y: float) -> WidthResult:
    """Full width of the gamma density at proportion y of its maximum.

    For a > 1 the two crossings are -(a-1)*b*W(z) on the two real branches
    with z = -exp(ln(y)/(a-1) - 1); the width itself goes through the
    cancellation-free branch difference. a = 1 is the exponential special
    case with x_low = 0 and width -b*ln(y); y = 1 returns the degenerate
    zero-width result at the mode. Raises ValueError when a crossing or
    the width overflows double precision.
    """
    a, b = params.a, params.b
    x_low, x_high, diff = _crossings(params, y)
    width = x_high if a == 1.0 else ((a - 1.0) * diff) * b
    if not (math.isfinite(x_high) and math.isfinite(width)):
        raise ValueError(f"fwym of {params!r} at y={y!r} overflows double precision")
    return WidthResult(x_low=x_low, x_high=x_high, width=width, mode=mode(params), y=y)


def fwhm(params: ShapeScale) -> WidthResult:
    """Full width at half maximum: fwym at y = 1/2."""
    return fwym(params, 0.5)


def fwym_shifted(spec: GammaShapeSpec, y: float) -> WidthResult:
    """fwym of a scaled and shifted gamma shape.

    The amplitude K cancels out of any proportion-of-maximum cut and the
    shift s translates the crossings without changing their distance, so
    the width is bit-identical to the unshifted result.
    """
    base = fwym(spec.params, y)
    s = spec.s
    return replace(base, x_low=base.x_low - s, x_high=base.x_high - s, mode=base.mode - s)


def gaussian_fwhm_approx(params: ShapeScale) -> float:
    """Normal-curve estimate of the FWHM: 2*sqrt(2 ln 2) * b * sqrt(a).

    A gamma variate with integer shape is a sum of a independent
    exponentials of mean b, so for large a it is approximately normal
    with variance a*b**2; this is the FWHM of that normal curve.
    """
    return _GAUSS_FWHM_UNIT_SIGMA * params.b * math.sqrt(params.a)


def approx_proportional_error(params: ShapeScale) -> float:
    """By what fraction the normal-curve FWHM estimate overshoots the truth.

    Always positive, shrinking as the shape parameter grows, and exactly
    independent of the scale (it cancels in the ratio, so the value is
    computed at unit scale).
    """
    unit = ShapeScale(params.a, 1.0)
    return gaussian_fwhm_approx(unit) / fwhm(unit).width - 1.0


def octave_bandwidth(params: ShapeScale, y: float) -> OctaveResult:
    """Crossing ratio in octaves: log2(high/low) at proportion y of the max.

    Needs a > 1 (the low crossing sits at 0 when a = 1, so the ratio is
    undefined there). Both branches solve w + ln(-w) = ln(-z), so the count
    is (W0 - Wm1)/ln 2, which stays finite where the low crossing
    underflows. It depends only on the shape and the proportion, not on
    the scale. y = 1 gives both crossings at the mode and 0 octaves.
    Raises ValueError when the high crossing overflows.
    """
    low, high, diff = _crossings(params, y)
    if params.a <= 1.0:
        raise ValueError("octave bandwidth needs a > 1; the low crossing is 0 at a = 1")
    if not math.isfinite(high):
        raise ValueError(f"high crossing of {params!r} at y={y!r} overflows double precision")
    return OctaveResult(high=high, low=low, octaves=diff / _LN2)
