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

import math
import sys
from collections.abc import Iterable

from . import lambertw

# w0, wm1 and branch_difference_from_log_ratio are not called here; they
# stay importable from this module, where benchmarks/tracing.py wraps them.
from .lambertw import Branch, branch_difference_from_log_ratio, w0, wm1  # noqa: F401

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
    "gaussian_comparison",
    "octave_bandwidth",
]

_LN2 = math.log(2.0)
_LN_HALF = math.log(0.5)
_DBL_MIN = sys.float_info.min

# FWHM of a unit-variance normal curve.
_GAUSS_FWHM_UNIT_SIGMA = 2.0 * math.sqrt(2.0 * _LN2)

# Above this shape approx_proportional_error comes from _asymptotic_error:
# gaussian/fwhm - 1 loses digits like 1/a (0.56% off at a = 1e13, 0 from
# a = 1e16), while the series' truncation falls like 1/a**2. Against
# 50-digit mpmath the series' worst error is the smaller from a = 5.6e3,
# and its median from a = 9.5e3 (both about 1.5e-12 relative at 1e4).
_ASYMPTOTIC_SHAPE = 1e4

# ln(1 + slack): a requested density level may exceed the computed maximum
# by this slack, 1e-12 relative, before it is rejected; callers often pass
# y*p_max recomputed with rounding.
_LOG1P_PMAX_SLACK = math.log1p(1e-12)

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# inverse_pdf tests its branch by identity with these: read through the
# class, an Enum member costs about 0.1 us to read on CPython 3.11
_SECONDARY = Branch.SECONDARY
_PRINCIPAL = Branch.PRINCIPAL
_setattr = object.__setattr__
_new = object.__new__


def _overflow_error(what: str) -> ValueError:
    """The error for a result that does not fit in a double."""
    return ValueError(f"{what} overflows double precision")


def _range_error(what: str, value: float, rule: str) -> ValueError:
    """The error for a parameter outside its range: "must be finite" for
    an infinite or NaN value, else "must <rule>"."""
    if not math.isfinite(value):
        rule = "be finite"
    return ValueError(f"{what} must {rule}, got {value!r}")


class _Value:
    """Base of the immutable parameter and result objects.

    A subclass names its fields in order in __match_args__, and its
    __init__ puts them in the instance __dict__ and then runs the class's
    checks; that __init__ is the class's one construction path. The class
    call runs it, and fwym, fwhm, fwym_shifted and octave_bandwidth run
    the result classes' __init__ on object.__new__(cls), which skips only
    the type call. A parameter class assigns the whole __dict__ through
    object.__setattr__: the library reads parameters on every call, and
    CPython 3.11 reads a field of such a dict about twice as fast as one
    of a dict filled key by key. A result class, built on every call,
    fills the __dict__ the instance makes key by key, which is cheaper to
    build. There are no __slots__, so pickle and copy restore the same
    __dict__ without __init__. The base gives what a frozen dataclass
    would: setting or deleting an attribute raises AttributeError,
    instances of one class compare equal when their field tuples do, the
    hash is that of the field tuple, and the repr is Class(field=value, ...).
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"


class ShapeScale(_Value):
    """Shape a and scale b of a gamma density; widths need a >= 1, b > 0."""

    __match_args__ = ("a", "b")
    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        _setattr(self, "__dict__", {"a": a, "b": b})
        if not (math.isfinite(a) and a >= 1.0):
            raise _range_error(
                "shape parameter a",
                a,
                "be >= 1 (widths are undefined below that: no interior maximum)",
            )
        if not (math.isfinite(b) and b > 0.0):
            raise _range_error("scale parameter b", b, "be positive")


class GammaShapeSpec(_Value):
    """A gamma-shaped function: parameters plus amplitude K and shift s."""

    __match_args__ = ("params", "K", "s")
    params: ShapeScale
    K: float
    s: float

    def __init__(self, params: ShapeScale, K: float = 1.0, s: float = 0.0) -> None:
        _setattr(self, "__dict__", {"params": params, "K": K, "s": s})
        if not (math.isfinite(K) and K > 0.0):
            raise _range_error("amplitude K", K, "be positive")
        if not math.isfinite(s):
            raise ValueError(f"domain shift s must be finite, got {s!r}")


class WidthResult(_Value):
    """Crossing abscissae and width of a peak cut at proportion y of its max.

    The width field is computed through the cancellation-free branch
    difference and is the authoritative value. Each crossing is within
    ulp(mode) + 1e-14 half-widths of the exact one, also very close to
    y = 1, so x_high - x_low agrees with the width up to the rounding of
    the mode.
    """

    __match_args__ = ("x_low", "x_high", "width", "mode", "y")
    x_low: float
    x_high: float
    width: float
    mode: float
    y: float

    def __init__(self, x_low: float, x_high: float, width: float, mode: float, y: float) -> None:
        d = self.__dict__
        d["x_low"] = x_low
        d["x_high"] = x_high
        d["width"] = width
        d["mode"] = mode
        d["y"] = y
        if not (math.isfinite(x_high) and math.isfinite(width)):
            raise _overflow_error(repr(self))
        if not (x_low <= mode <= x_high):
            raise ValueError("crossings must straddle the mode")
        if not width >= 0.0:
            raise ValueError("width must be nonnegative")


class OctaveResult(_Value):
    """High/low crossing abscissae and their ratio in log-base-2 octaves."""

    __match_args__ = ("high", "low", "octaves")
    high: float
    low: float
    octaves: float

    def __init__(self, high: float, low: float, octaves: float) -> None:
        d = self.__dict__
        d["high"] = high
        d["low"] = low
        d["octaves"] = octaves
        if not math.isfinite(high):
            raise _overflow_error(repr(self))
        if not (high >= low >= 0.0):
            raise ValueError("crossings must satisfy high >= low >= 0")
        if not octaves >= 0.0:
            raise ValueError("octave count must be nonnegative")


# The result classes' one construction path, which the library runs on
# object.__new__(cls) to skip the type call.
_init_width = WidthResult.__init__
_init_octave = OctaveResult.__init__


def mode(params: ShapeScale) -> float:
    """Location of the density maximum, (a-1)*b; 0 for the exponential case.
    Raises ValueError when it overflows double precision."""
    m = (params.a - 1.0) * params.b
    if not math.isfinite(m):
        raise _overflow_error(f"mode of {params!r}")
    return m


def gamma_pdf(x: float, params: ShapeScale) -> float:
    """Gamma probability density at x >= 0, evaluated in log space.

    Raises ValueError for a negative or nonfinite x, for a positive x when
    the normaliser Gamma(a) * b**a or the density itself overflows double
    precision, and at x = 0 when 1/b does (a = 1, b below 1/DBL_MAX).
    """
    return gamma_pdf_values((x,), params)[0]


def gamma_pdf_values(xs: Iterable[float], params: ShapeScale) -> list[float]:
    """Gamma density at each x of xs, as gamma_pdf gives it, with lgamma(a)
    and a*ln(b), the two terms of the log of the normaliser, formed once
    for the grid; the first x whose density raises stops the grid. xs is
    read once, so it may be an iterator."""
    a, b = params.a, params.b
    try:
        lgamma_a = math.lgamma(a)  # overflows from a ~ 2.6e305
    except OverflowError:
        lgamma_a = math.inf
    a_log_b = a * math.log(b)
    overflow = None
    if not (math.isfinite(lgamma_a) and math.isfinite(a_log_b)):
        overflow = _overflow_error(f"normaliser of the gamma density of {params!r}")
    a1 = a - 1.0
    return [_density(x, a1, b, lgamma_a, a_log_b, overflow) for x in xs]


def _density(
    x: float, a1: float, b: float, lgamma_a: float, a_log_b: float, overflow: ValueError | None
) -> float:
    """gamma_pdf at x from a1 = a - 1, b and the normaliser's two terms;
    overflow is the error of a normaliser that overflows, else None. The
    density's rules, in order: a bad x, the value at the origin, the
    normaliser's overflow, the density's overflow."""
    if not 0.0 < x < math.inf:
        if x != 0.0:  # negative, infinite or NaN
            raise ValueError(f"gamma_pdf needs finite x >= 0, got {x!r}")
        origin = 1.0 / b if a1 == 0.0 else 0.0
        if not math.isfinite(origin):
            raise _overflow_error(f"gamma density at x={x!r}")
        return origin
    if overflow is not None:
        raise overflow
    try:
        e = a1 * math.log(x) - x / b - lgamma_a - a_log_b
        if not e < math.inf:
            # a1*ln(x) alone overflows (a near 2.55e305, x near DBL_MAX),
            # where the density does not: the exponent again, in halves
            h = 0.5 * a1 * math.log(x)
            e = (h - lgamma_a) + (h - x / b - a_log_b)
        return math.exp(e)
    except OverflowError:
        raise _overflow_error(f"gamma density at x={x!r}") from None


def gamma_shaped(x: float, spec: GammaShapeSpec) -> float:
    """Gamma-shaped function K * (x+s)**(a-1) * exp(-(x+s)/b) for x+s >= 0.
    Raises ValueError when the value overflows double precision."""
    xp = x + spec.s
    if not (math.isfinite(xp) and xp >= 0.0):
        raise ValueError(f"gamma_shaped needs x + s >= 0, got x+s={xp!r}")
    a, b = spec.params.a, spec.params.b
    if xp == 0.0:
        return spec.K if a == 1.0 else 0.0
    e = (a - 1.0) * math.log(xp) - xp / b
    try:
        g = math.exp(e)
    except OverflowError:
        g = math.inf
    try:
        # exp(e) alone overflows or is subnormal where K * exp(e) can still
        # be a normal double: there ln K joins the exponent
        value = spec.K * g if _DBL_MIN <= g < math.inf else math.exp(e + math.log(spec.K))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _overflow_error(f"gamma-shaped function of {spec!r} at x={x!r}")
    return value


def inverse_pdf(p: float, params: ShapeScale, branch: Branch) -> float:
    """Abscissa where the gamma density equals p, on the requested side.

    The density is two-to-one away from its maximum, so the inverse is a
    two-valued relation: the principal branch returns the abscissa at or
    below the mode, the secondary branch the one at or above it. Needs
    a > 1 (at a = 1 the density is one-to-one) and 0 < p <= p_max, where
    p_max is the density value at the mode; p may exceed p_max by at most
    1e-12 relative, which is clamped to the mode. Raises ValueError when
    the abscissa or the mode overflows double precision, and when the
    mode underflows to 0.

    p is compared with p_max in log space, and the cut is at r =
    ln(p/p_max)/n with n = a - 1. ln p_max is n*(ln n - 1) - lgamma(a) -
    ln b below n = 15 and, from n = 15 on, Loader's saddle-point form
    -ln b - ln(2*pi*n)/2 - stirlerr(n), whose terms do not cancel at any
    a. An error d in ln p - ln p_max is about d/(2*(1 - p/p_max)) relative
    in the offset of the result from the mode, so within about 1e-12 of
    p_max the rounding of ln p itself limits that offset; fwym takes the
    proportion p/p_max itself and is the accurate route there.
    """
    if branch is not _SECONDARY and branch is not _PRINCIPAL:
        raise TypeError(f"branch must be a Branch member, got {branch!r}")
    a, b = params.a, params.b
    if a <= 1.0:
        raise ValueError("inverse_pdf needs a > 1; the density is one-sided at a = 1")
    if not (math.isfinite(p) and p > 0.0):
        raise _range_error("density level", p, "be positive")
    n = a - 1.0
    m = n * b
    if not 0.0 < m < math.inf:
        if m:
            mode(params)  # raises the mode's overflow error
        raise ValueError(f"mode of {params!r} underflows double precision")
    # ln p_max = n*(ln n - 1) - lgamma(a) - ln b, the density at the mode.
    # From n = 15 on, lgamma(a) = n*(ln n - 1) + ln(2 pi n)/2 + stirlerr(n)
    # leaves -ln b - ln(2 pi n)/2 - stirlerr(n), whose terms do not cancel;
    # stirlerr's odd series, to 1/n**11, is within 3e-18 of it from n = 15.
    if n < 15.0:
        log_p_max = n * (math.log(n) - 1.0) - math.lgamma(a) - math.log(b)
    else:
        t = 1.0 / (n * n)
        log_p_max = -math.log(b) - (0.5 * math.log(n) + _HALF_LN_2PI + (
            1.0 / 12.0 - t * (
            1.0 / 360.0 - t * (
            1.0 / 1260.0 - t * (
            1.0 / 1680.0 - t * (
            1.0 / 1188.0 - t * (691.0 / 360360.0)))))) / n)
    # The cut's r = ln(p/p_max)/(a-1); a level at the maximum, up to the
    # slack, is the branch point r = 0
    log_p = math.log(p)
    if log_p < log_p_max:
        r = (log_p - log_p_max) / n
    elif log_p <= log_p_max + _LOG1P_PMAX_SLACK:
        r = 0.0
    else:
        raise ValueError(
            f"density level {p!r} exceeds the maximum {math.exp(log_p_max)!r} of the density"
        )
    # _cut's crossing on that side, one branch solved
    if branch is _SECONDARY:
        x = m - m * lambertw._secondary(r)
    else:
        x = lambertw._principal(r, m)[0]
    if not math.isfinite(x):
        raise _overflow_error(f"abscissa of the density level {p!r} of {params!r}")
    return x


def _cut_result(params: ShapeScale, y: float, octave: bool) -> WidthResult | OctaveResult:
    """fwym's WidthResult of the density cut at proportion y of its
    maximum, or with octave octave_bandwidth's OctaveResult.

    The cut is at z = -exp(ln(y)/(a-1) - 1); y = 1 is the kernel's branch
    point r = +0, with both crossings at the mode and width +0, and at a = 1
    (z = 0) the low crossing is 0, the width the high crossing (+0 at y = 1)
    and the branch difference infinite. Raises ValueError for y outside
    (0, 1] and where the mode overflows. The result is the class's __init__
    run on a bare instance: its checks without the type call.
    """
    if not (0.0 < y <= 1.0):
        raise ValueError(f"proportion of maximum must lie in (0, 1], got {y!r}")
    a1 = params.a - 1.0
    b = params.b
    peak = a1 * b  # the mode
    if not math.isfinite(peak):
        mode(params)  # raises the mode's overflow error
    if a1 == 0.0:
        x_low, diff = 0.0, math.inf
        x_high = width = 0.0 - b * math.log(y)  # +0, not -0, at y = 1
    else:
        x_low, x_high, diff = lambertw._cut(math.log(y) / a1, peak)
        width = (a1 * diff) * b
    if octave:
        if a1 == 0.0:
            raise ValueError("octave bandwidth needs a > 1; the low crossing is 0 at a = 1")
        res = _new(OctaveResult)
        _init_octave(res, x_high, x_low, diff / _LN2)
        return res
    res = _new(WidthResult)
    _init_width(res, x_low, x_high, width, peak, y)
    return res


def fwym(params: ShapeScale, y: float) -> WidthResult:
    """Full width of the gamma density at proportion y of its maximum.

    For a > 1 the two crossings are -(a-1)*b*W(z) on the two real branches
    with z = -exp(ln(y)/(a-1) - 1); the width itself goes through the
    cancellation-free branch difference. a = 1 is the exponential special
    case with x_low = 0 and width -b*ln(y); y = 1 returns the degenerate
    zero-width result at the mode. Raises ValueError when a crossing or
    the width overflows double precision.
    """
    return _cut_result(params, y, False)


def fwhm(params: ShapeScale) -> WidthResult:
    """Full width at half maximum: fwym at y = 1/2."""
    return _cut_result(params, 0.5, False)


def fwym_shifted(spec: GammaShapeSpec, y: float) -> WidthResult:
    """fwym of a scaled and shifted gamma shape.

    The amplitude K cancels out of any proportion-of-maximum cut and the
    shift s translates the crossings without changing their distance, so
    the width is bit-identical to the unshifted result.
    """
    base = _cut_result(spec.params, y, False)
    s = spec.s
    res = _new(WidthResult)
    _init_width(res, base.x_low - s, base.x_high - s, base.width, base.mode - s, y)
    return res


def gaussian_fwhm_approx(params: ShapeScale) -> float:
    """Normal-curve estimate of the FWHM: 2*sqrt(2 ln 2) * b * sqrt(a).

    A gamma variate with integer shape is a sum of a independent
    exponentials of mean b, so for large a it is approximately normal
    with variance a*b**2; this is the FWHM of that normal curve. Raises
    ValueError when it overflows double precision.
    """
    width = _GAUSS_FWHM_UNIT_SIGMA * params.b * math.sqrt(params.a)
    if not math.isfinite(width):
        raise _overflow_error(f"normal-curve FWHM of {params!r}")
    return width


def approx_proportional_error(params: ShapeScale) -> float:
    """By what fraction the normal-curve FWHM estimate overshoots the truth.

    Always positive, shrinking as the shape parameter grows, and exactly
    independent of the scale (it cancels in the ratio, so the value is
    computed at unit scale). Above a = 1e4 it comes from the asymptotic
    series of the ratio in 1/(a-1), which does not cancel.
    """
    return gaussian_comparison([params.a])[2][0]


def _asymptotic_error(a: float) -> float:
    """gaussian/fwhm - 1 at unit scale for large a, with no cancellation.

    The unit-scale FWHM is (a-1)*(u_high - u_low), where both offsets from
    the mode solve u - log1p(u) = p**2/2 with p**2 = 2 ln 2/(a-1); the odd
    part of their series in p gives (u_high - u_low)/2 =
    p*(1 + p**2/36 + p**4/4320 + O(p**6)). The estimate is
    2*(a-1)*p*sqrt(a/(a-1)), so the log of their ratio is
    -log1p(-1/a)/2 - log1p(p**2/36 + p**4/4320).
    """
    p2 = 2.0 * _LN2 / (a - 1.0)
    return math.expm1(-0.5 * math.log1p(-1.0 / a) - math.log1p(p2 * (1.0 / 36.0 + p2 / 4320.0)))


def gaussian_comparison(
    shapes: Iterable[float],
) -> tuple[list[float], list[float], list[float]]:
    """Unit-scale FWHM, normal-curve estimate and proportional error of
    each shape in a sweep, as three lists.

    For each a they equal fwhm(ShapeScale(a, 1)).width,
    gaussian_fwhm_approx(ShapeScale(a, 1)) and
    approx_proportional_error(ShapeScale(a, 1)) bit for bit, and a bad
    shape raises the same ValueError; but a row with a > 1 is one cut of
    the Lambert kernel, with no ShapeScale or WidthResult built. The error
    is gaussian/fwhm - 1 up to a = _ASYMPTOTIC_SHAPE and _asymptotic_error(a)
    above it. shapes is read once, so it may be an iterator.
    """
    cut = lambertw._cut
    widths, gaussians, errors = [], [], []
    for a in shapes:
        a1 = a - 1.0  # the mode; b = 1 makes every product with b exact
        if a1 > 0.0:
            x_low, x_high, diff = cut(_LN_HALF / a1, a1)
            width = a1 * diff
        # a = 1, a rejected shape or a row failing WidthResult's checks
        # (finite x_high and width, crossings that straddle the mode, a
        # nonnegative width; NaN fails every test): fwhm gives the width
        # or raises its error
        if not (a1 > 0.0 and x_low <= a1 <= x_high < math.inf and 0.0 <= width < math.inf):
            width = fwhm(ShapeScale(a, 1.0)).width
        # finite for every finite a, whose square root is below 1.4e154
        gaussian = _GAUSS_FWHM_UNIT_SIGMA * math.sqrt(a)
        widths.append(width)
        gaussians.append(gaussian)
        errors.append(_asymptotic_error(a) if a > _ASYMPTOTIC_SHAPE else gaussian / width - 1.0)
    return widths, gaussians, errors


def octave_bandwidth(params: ShapeScale, y: float) -> OctaveResult:
    """Crossing ratio in octaves: log2(high/low) at proportion y of the max.

    Needs a > 1 (the low crossing sits at 0 when a = 1, so the ratio is
    undefined there). Both branches solve w + ln(-w) = ln(-z), so the count
    is (W0 - Wm1)/ln 2, which stays finite where the low crossing
    underflows. It depends only on the shape and the proportion, not on
    the scale. y = 1 gives both crossings at the mode and 0 octaves.
    Raises ValueError when the high crossing overflows.
    """
    return _cut_result(params, y, True)
