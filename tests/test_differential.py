"""Seeded differential suite: widths, crossings and Lambert values against
50-digit mpmath, in every band of q = -expm1(ln(y)/(a-1)) and on every seam
of the kernel: the series seam q = 1e-3, the switch of first guesses at
q = 1/2, the principal branch's switch to v = -W0 at W0 = -1/2, the log
form at r - 1 = -690, shapes a -> 1+ and up to 1e12, and proportions y
down to 5e-324.
"""

import math
import random

import pytest

from gammabw.bandwidth import ShapeScale, fwym
from gammabw.lambertw import w0

mp = pytest.importorskip("mpmath")

# Unit-scale widths are within 4e-16 relative in every band (worst seen
# 3.6e-16 over 8 400 cuts; a scale b != 1 adds the rounding of the product
# with b). Crossings are within ulp(mode) plus 1e-14 half-widths at any
# scale (worst seen 1.0e-15).
WIDTH_REL = 4e-16
CROSS_HW = 1e-14
W0_ULPS = 2.0

# q at W0 = -1/2, where the principal branch switches to v = -W0
Q_V_FORM = 1.0 - math.sqrt(math.e) / 2.0
BANDS = (
    (1e-14, 1e-3),
    (1e-3, 1.1e-3),
    (1.1e-3, 1e-2),
    (1e-2, Q_V_FORM),
    (Q_V_FORM, 0.5),
    (0.5, 0.99),
    (0.99, 1.0 - 1e-12),
)
SEAM_QS = (1e-3, Q_V_FORM, 0.5)
SEAM_SHAPES = (1.5, 3.0, 101.0)
EXTREME_CUTS = (
    # a -> 1+: r - 1 far below the log form, the low crossing underflows
    (1.0 + 2.0**-40, 2.0, 0.5),
    (1.0 + 1e-9, 1e3, 1.0 / math.e),
    (1.0001, 1e300, 0.1),
    (1.0032739518672797, 1.0, 0.1),
    # large a: the series regime, and q up to 1e-9 at y = 5e-324
    (1e9, 1.0, 0.5),
    (1e12, 3.0, 0.5),
    (1e12, 1.0, 1e-300),
    (1e12, 1.0, 5e-324),
    # y down to the smallest subnormal
    (1.5, 1e300, 5e-324),
    (2.0, 1.0, 5e-324),
    (10.0, 0.5, 5e-324),
    (1e3, 2.0, 5e-324),
    (1e6, 1.0, 5e-324),
)


def mp_cut(a, b, y):
    """(x_low, x_high, width) of the cut at proportion y, at 50 digits."""
    with mp.workdps(50):
        am1 = mp.mpf(a) - 1
        z = -mp.exp(mp.log(mp.mpf(y)) / am1 - 1)
        m = am1 * mp.mpf(b)
        w_lo, w_hi = mp.lambertw(z, 0).real, mp.lambertw(z, -1).real
        return -m * w_lo, -m * w_hi, m * (w_lo - w_hi)


def assert_cut(a, b, y):
    """The width at unit scale and both crossings at scale b."""
    res = fwym(ShapeScale(a, b), y)
    x_low, x_high, width = mp_cut(a, b, y)
    where = f"a={a!r}, b={b!r}, y={y!r}"
    with mp.workdps(50):
        unit_width = width / b
        got = fwym(ShapeScale(a, 1.0), y).width
        assert float(abs(got - unit_width) / unit_width) <= WIDTH_REL, where
    bound = math.ulp(res.mode) + CROSS_HW * float(width) / 2.0
    assert float(abs(res.x_low - x_low)) <= bound, where
    assert float(abs(res.x_high - x_high)) <= bound, where


def band_cuts(lo, hi, n, seed):
    """n seeded (a, b, y) whose q lies in [lo, hi), a log-uniform in
    [1.001, 1e6] and b in [1e-5, 1e5]."""
    rng = random.Random(seed)
    cuts = []
    while len(cuts) < n:
        a = math.exp(rng.uniform(math.log(1.001), math.log(1e6)))
        q = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        y = math.exp((a - 1.0) * math.log1p(-q))
        if 0.0 < y < 1.0 and lo <= -math.expm1(math.log(y) / (a - 1.0)) < hi:
            cuts.append((a, math.exp(rng.uniform(-11.5, 11.5)), y))
    return cuts


@pytest.mark.parametrize("band", BANDS, ids=[f"q{lo:.3g}" for lo, _ in BANDS])
def test_cuts_in_band(band):
    for a, b, y in band_cuts(*band, n=60, seed=11):
        assert_cut(a, b, y)


@pytest.mark.parametrize("q_seam", SEAM_QS)
@pytest.mark.parametrize("a", SEAM_SHAPES)
def test_cuts_across_q_seam(a, q_seam):
    for step in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6):
        y = math.exp((a - 1.0) * math.log1p(-q_seam * (1.0 + step)))
        assert_cut(a, 1.7, y)


@pytest.mark.parametrize("a", [1.01, 1.5, 2.0])
def test_cuts_across_log_form(a):
    # r - 1 = ln(y)/(a-1) - 1 on both sides of -690
    for r1 in (-689.0, -690.0 + 1e-9, -690.0, -690.0 - 1e-9, -691.0, -740.0):
        y = math.exp((r1 + 1.0) * (a - 1.0))
        assert_cut(a, 3.0, y)


@pytest.mark.parametrize("a,b,y", EXTREME_CUTS)
def test_extreme_cuts(a, b, y):
    assert_cut(a, b, y)


def test_w0_positive_axis_within_2_ulps():
    rng = random.Random(3)
    zs = [math.e * rng.random() for _ in range(300)] + [5e-324, 1e-300, 1e-8, 1.0, math.e]
    with mp.workdps(50):
        for z in zs:
            got = w0(z)
            want = mp.lambertw(mp.mpf(z)).real
            assert float(abs(got - want)) <= W0_ULPS * math.ulp(got), f"z={z!r}"
