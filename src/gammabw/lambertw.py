"""Real branches of the Lambert W function.

Scalar, dependency-free evaluation of the two real branches of the inverse
of u -> u*exp(u): the principal branch (w >= -1, defined for z >= -1/e) and
the secondary branch (w <= -1, defined for -1/e <= z < 0), and both at a
cut z = -exp(r - 1) of a unimodal peak at a fixed fraction of its maximum.
Their offsets d = W + 1 solve d + log1p(-d) = r, and at cuts and near the
branch point they are found in the exact r without forming z, with no loop,
by pieces; _PIECES lists where each piece of each branch begins. _principal
and _secondary each take one branch at any cut, _cut both. Nearest the
branch point both come from _offsets, one fixed polynomial in s = sqrt(-2r),
the secondary branch at -s, with no transcendental call (Fukushima, 2013),
or its v form, v = -W0, which keeps a small v's digits. Further out each
takes a start fitted to within 2e-6 (in s for Wm1, de Bruijn's series in
its tail; in x = exp(r - 1) for exp(-W0) - 1) and one third-order step,
whose error is below 0.42 times the cube of the start's: the fixed step
count rests on that bound, not on a stop test (scripts/fit_offsets.py fits
and checks every table); farthest out W0 = z. The offsets have opposite
signs, so neither their difference nor the crossings built from them
cancel; at r = +-0 they are the zeros of their sides, W0 + 1 = +0 and
Wm1 + 1 = -0 (Kahan, 1987). w0 and wm1 take _principal and _secondary
below q = 1/2, at r = ln(-e*z) from a compensated product. Beyond, w0 on
z < 0 takes the principal start and step at the exact x = -z
(_principal_v), wm1 _secondary at r = 1 + ln(-z) and one Newton step in
z, and w0 on z >= 0 Winitzki's start (2003) and three Halley steps on
w - z*exp(-w), a count fixed by the start's bound too.
"""

import math
import sys
from enum import Enum

__all__ = ["Branch", "w0", "wm1", "wm1_from_log", "branch_difference_from_log_ratio"]

_E = math.e

# _E = _E_HI + _E_LO in 26-bit halves (Dekker's split), and e - _E
_E_HI, _E_LO, _E_TAIL = 2.7182818055152893, 2.2943755784154973e-08, 1.4456468917292502e-16

# Inputs down to _BRANCH_POINT_MIN, _BRANCH_TOL relative below -1/e, are
# the branch point itself: callers compute z with a couple of rounding
# errors of their own. wm1_from_log takes m up to _BRANCH_TOL above -1 alike.
_BRANCH_TOL = 4.0 * math.ulp(1.0)
_BRANCH_POINT_MIN = -(1.0 + _BRANCH_TOL) / _E

# Above this r, q = -expm1(r) < 1/2, both offsets come from _offsets; at it
# the secondary branch does too, from the polynomial's fit to |s| <= 1.2
_LN_HALF = math.log(0.5)

# W0 = -1/2 here; at and below it _offsets gives v = -W0, whose digits 1 - d loses
_V_FORM_R = 0.5 + _LN_HALF

# Below this r the secondary branch starts from de Bruijn's series
_TAIL_R = -7.0

# exp(r - 1) degrades or underflows below this r - 1: there W0 = z to
# double precision, and x_low is exp(r - 1 + ln scale)
_LOG_FORM_CUT = -690.0


class Branch(Enum):
    """Selector for the two real branches: PRINCIPAL is k=0, SECONDARY k=-1."""

    PRINCIPAL = 0
    SECONDARY = -1


# The pieces of a cut z = -exp(r - 1), r <= 0, of each branch from the
# branch point down: (name, r at the piece's low end, whether that end
# belongs to it); the last piece runs to r = -inf. _offsets picks its form,
# _secondary and _principal their pieces, _cut whether _offsets gives both;
# q = 1/2 (r = ln 1/2) is the secondary v form and the principal step.
_PIECES = {
    Branch.PRINCIPAL: (
        ("offsets", _V_FORM_R, False),
        ("v-form", _LN_HALF, False),
        ("step", 1.0 + _LOG_FORM_CUT, False),
        ("log-form", -math.inf, True),
    ),
    Branch.SECONDARY: (
        ("offsets", _V_FORM_R, False),
        ("v-form", _LN_HALF, True),
        ("step", _TAIL_R, False),
        ("de-bruijn", -math.inf, True),
    ),
}


def _piece(branch: Branch, r: float) -> str:
    """The name of the piece of _PIECES that branch takes at the cut with
    this r <= 0; not called on the evaluation path."""
    if r <= 0.0:
        for name, low, closed in _PIECES[branch]:
            if r > low or (closed and r == low):
                return name
    raise ValueError(f"a cut needs r <= 0, got {r!r}")


def _offsets(r: float, scale: float) -> tuple[float, float, float]:
    """(low crossing, W0 + 1, Wm1 + 1) at z = -exp(r - 1) for -ln 2 <= r <= 0
    (q <= 1/2) of a cut at a peak whose mode is scale >= 0, from one
    polynomial in s = sqrt(-2r), the secondary branch at -s, with no
    transcendental call: W + 1 = s - u/3 + s*u*odd(u) + u**2*even(u) in the
    exact u = s**2, fitted by scripts/fit_offsets.py. The odd tail c takes
    the root's rounding error too, so W0 + 1 = s + ((c + even) - u/3) and
    Wm1 + 1 = ((even - c) - u/3) - s each round once at the end, and the
    low crossing is scale - scale*(W0 + 1). At W0 <= -1/2 the v form gives
    scale*v and 1 - v, v = -W0 = (1 - s) - ((c + even) - u/3), to keep a
    small v's digits; 1 - s is exact for s in [1/2, 2], and the rounding
    error of u/3 is taken back exactly. r = +-0 gives W0 + 1 = +0 and
    Wm1 + 1 = -0, the branch point's zeros with the signs of their sides."""
    u = -2.0 * r
    s = math.sqrt(u)
    if u < 1e-290:
        # Dekker's products would go subnormal; u/3 is far below an ulp of s
        s += 0.0  # r = +0 gives s = sqrt(-0) = -0, r = -0 gives +0
        return scale - scale * s, s, -s
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
    if r > _V_FORM_R:
        lo = s + ((c + even) - third)
        return scale - scale * lo, lo, ((even - c) - third) - s
    # third = u/3 rounds by up to an ulp of v; u - 3*third is (u - 2*third)
    # - third exactly (Sterbenz's lemma, twice), and even takes a third of
    # it back
    even -= ((u - 2.0 * third) - third) / 3.0
    v = (1.0 - s) - ((c + even) - third)
    return scale * v, 1.0 - v, ((even - c) - third) - s


def _secondary(r: float) -> float:
    """Wm1 + 1 at z = -exp(r - 1) for an unchecked r <= 0, with no loop: up
    to q = 1/2 from _offsets, which _cut calls there too, so that scale -
    scale*_secondary(r) is _cut's high crossing bit for bit; else a start
    within 1.2e-6 relative, one polynomial in s = sqrt(-2r) for r > -7 and
    de Bruijn's series in ln(1 - r) below, then one third-order step on
    d + log1p(-d) = r, whose error is below 0.42*e**3 for a start within e
    (scripts/fit_offsets.py)."""
    if r >= _LN_HALF:
        return _offsets(r, 1.0)[2]
    if r > _TAIL_R:
        h = math.sqrt(-2.0 * r) - 2.5
        d = (
            -4.899940896851016 + h * (
            -3.0102117619163966 + h * (
            -0.44534069932918446 + h * (
            -0.006930606134680002 + h * (
            0.0009227693150703643 + h * (
            -0.00011563223207380022))))))
    else:
        # w = -Wm1 solves w - ln w = big: de Bruijn's series in lam = ln(big)
        # and t = 1/big gives w = big + lam + eta, so Wm1 + 1 = r - (lam + eta)
        big = 1.0 - r
        lam = math.log(big)
        t = 1.0 / big
        eta = lam * t * (1.0 + t * (1.0 - 0.5 * lam + t * (
            1.0 + lam * (-1.5 + lam / 3.0) + t * (
            1.0 + lam * (-3.0 + lam * (11.0 / 6.0 - 0.25 * lam)) + t * (
            1.0 + lam * (-5.0 + lam * (35.0 / 6.0 + lam * (-25.0 / 12.0 + 0.2 * lam))))))))
        d = r - (lam + eta)
    # Chebyshev's step: g = d + log1p(-d) - r, g' = -d/(1 - d), g'' = -1/(1 - d)**2
    c = 1.0 - d
    k = ((d + math.log1p(-d)) - r) * c / d
    return d + k * (1.0 - 0.5 * k / (d * c))


def _near_branch_point(z: float, name: str) -> float | None:
    """r = ln(-e*z) <= 0 where q = 1 + e*z, rounded, is below 1/2, else
    None; z below -1/e within the tolerance gives r = 0, and beyond it
    raises ValueError. e*(-z) = p + err is Dekker's product of -z and _E,
    err taking _E_TAIL*(-z) too, so p - 1 is exact (Sterbenz's lemma) and
    r = log1p((p - 1) + err) keeps every digit of a small q."""
    if 1.0 + _E * z >= 0.5:
        return None
    if z < _BRANCH_POINT_MIN:
        raise ValueError(f"{name} is undefined below -1/e, got z={z!r}")
    x = -z
    p, xh = _E * x, 134217729.0 * x
    xh -= xh - x
    xl = x - xh
    err = (((_E_HI * xh - p) + _E_HI * xl + _E_LO * xh) + _E_LO * xl) + _E_TAIL * x
    return min(math.log1p((p - 1.0) + err), 0.0)


def w0(z: float) -> float:
    """Principal branch: the solution w >= -1 of w*exp(w) = z, for z >= -1/e.

    w0(+-0) is +-0, sign kept; w0 at the branch point -1/e (with a few ulp
    of tolerance below it) is exactly -1. On z < 0 it takes the kernel, with
    no loop: below q = 1 + e*z = 1/2 in r = ln(-e*z), from q = 1/2 on at
    x = -z itself. On z >= 0 it takes Winitzki's start, within 2e-2
    relative, and three Halley steps on w - z*exp(-w), no stop test.
    Raises ValueError outside the domain.
    """
    if not math.isfinite(z):
        raise ValueError(f"w0 needs a finite argument, got {z!r}")
    r = _near_branch_point(z, "w0")
    if r is not None:
        return -_principal(r, 1.0)[0]
    if z < 0.0:
        return -_principal_v(-z)
    # f(w) = w - z*exp(-w), f' = 1 + t and f'' = -t at t = z*exp(-w): for
    # w >= 0 exp(-w) <= 1, so nothing overflows, and f rounds at an ulp of
    # w, not of z. The start is within 8e-2 of w0, relative below w0 = 1
    # and absolute above, and three exact steps from there leave below
    # 4e-18 relative (scripts/fit_offsets.py); +-0 goes through as +-0.
    ln1z = math.log1p(z)
    w = ln1z * (1.0 - math.log1p(ln1z) / (2.0 + ln1z))
    for _ in range(3):
        t = z * math.exp(-w)
        f = w - t
        d = 1.0 + t
        w -= 2.0 * f * d / (2.0 * d * d + f * t)
    return w


def wm1(z: float) -> float:
    """Secondary branch: the solution w <= -1 of w*exp(w) = z, for -1/e <= z < 0.

    wm1 at the branch point (same tolerance as w0) is exactly -1. No loop:
    below q = 1 + e*z = 1/2 it cuts at r = ln(-e*z); from q = 1/2 on it is
    _secondary at r = 1 + ln(-z) and one Newton step on w*exp(w) = z in the
    exact z, skipped where exp(w) is subnormal, as for subnormal z. Raises
    ValueError for z >= 0 or z below -1/e beyond the tolerance.
    """
    if not math.isfinite(z) or z >= 0.0:
        raise ValueError(f"wm1 needs -1/e <= z < 0, got {z!r}")
    r = _near_branch_point(z, "wm1")
    if r is not None:
        return _secondary(r) - 1.0
    w = _secondary(math.log(-z) + 1.0) - 1.0
    ew = math.exp(w)
    return w - (w * ew - z) / (ew * (w + 1.0)) if ew >= sys.float_info.min else w


def wm1_from_log(m: float) -> float:
    """Secondary branch at z = -exp(m), m <= -1, solved in m itself: accurate
    also for proportions y**(1/(a-1)) far below double-precision range,
    where exp(m) underflows. m up to 4 eps above -1 gives -1."""
    if not (math.isfinite(m) and m <= -1.0 + _BRANCH_TOL):
        raise ValueError(f"wm1_from_log needs a finite m <= -1, got {m!r}")
    return _secondary(min(m + 1.0, 0.0)) - 1.0


def _principal(r: float, scale: float) -> tuple[float, float]:
    """(-scale*W0, W0 + 1) at z = -exp(r - 1) for an unchecked r <= 0 and
    scale >= 0: the low crossing of a cut at a peak whose mode is scale, and
    the principal offset, from _offsets below q = 1/2. From q = 1/2 on,
    v = -W0, whose digits 1 - d would lose, is _principal_v at x = exp(r - 1)
    taken with the rounding error of r - 1, and the crossing is scale*v.
    Where r - 1 <= -690, W0 = z, W0 + 1 rounds to 1 and the crossing is
    exp(r - 1 + ln scale)."""
    if r > _LN_HALF:
        return _offsets(r, scale)[:2]
    t = r - 1.0
    if t <= _LOG_FORM_CUT:
        # W0(z) = z to double precision; exp(r - 1) alone may underflow
        x_low = math.exp(t + math.log(scale)) if scale > 0.0 else 0.0
        return x_low, 1.0
    x = math.exp(t)
    x += x * (r - (t + 1.0))  # the rounding error of t, exactly
    v = _principal_v(x)
    return scale * v, 1.0 - v


def _principal_v(x: float) -> float:
    """v = -W0(-x) for an unchecked 0 <= x <= 1/(2e), that is q >= 1/2,
    with no loop: v = x*(1 + G), G = exp(v) - 1, where G starts as x*P(x),
    within 1.2e-6 relative in 1 + G, and takes one third-order step on
    log1p(G) = x*(1 + G), whose error is below 0.42*e**3 for a start within
    e (scripts/fit_offsets.py). A subnormal x gives v = x."""
    g = x * (
        0.9999953269232893 + x * (
        1.5018182155987543 + x * (
        2.5549184730662406 + x * (
        7.637119111993034 + x * (
        -11.718561572830389 + x * (
        106.96131636995221))))))
    # x*(1 + g) = v + e exactly: g rounded to 26 bits (far finer than its
    # start error) times x's 26-bit head xh and its tail x - xh is exact
    # (Dekker's split); this keeps v at q = 1/2 correctly rounded
    hi = 134217729.0 * g
    g = hi - (hi - g)
    xh = 134217729.0 * x
    xh -= xh - x
    p = xh * g
    v = x + p
    e = ((x - v) + p) + (x - xh) * g
    # Chebyshev's step on f(E) = ln E - x*E in E = 1 + g: f' = (1 - v)/E,
    # f'' = -1/E**2
    c = (1.0 - v) - e
    k = ((math.log1p(g) - v) - e) / c
    return v + (e - x * k * (1.0 + g) * (1.0 - 0.5 * k / c))


def _cut(r: float, scale: float) -> tuple[float, float, float]:
    """(-scale*W0, -scale*Wm1, W0 - Wm1) at z = -exp(r - 1) for an unchecked
    r <= 0 and scale >= 0: the two crossings of a cut at a peak whose mode
    is scale, and the branch difference, each branch evaluated once and
    none by a loop: below q = 1/2 one evaluation of _offsets gives the low
    crossing and both offsets d = W + 1, and from q = 1/2 on _secondary and
    _principal each take a fitted start and one third-order step."""
    if r > _LN_HALF:
        x_low, lo, hi = _offsets(r, scale)
    else:
        hi = _secondary(r)
        x_low, lo = _principal(r, scale)
    return x_low, scale - scale * hi, lo - hi


def branch_difference_from_log_ratio(r: float) -> float:
    """W0(z) - Wm1(z) at z = -exp(r - 1), accurate all the way to r -> 0-.

    r is the log of the peak proportion divided by the shape excess
    (r = ln(y)/(a-1) for gamma-shaped peaks); r = 0 is the branch point,
    where the difference is +0; both branches are solved in r
    itself, so no precision is lost when r is tiny."""
    if not math.isfinite(r) or r > 0.0:
        raise ValueError(f"log ratio must be finite and <= 0, got {r!r}")
    return _cut(r, 1.0)[2]
