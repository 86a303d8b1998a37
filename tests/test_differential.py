"""Seeded differential suite: widths, crossings and Lambert values against
50-digit mpmath, in every band of q = -expm1(r), r = ln(y)/(a-1), and on
every seam of the kernel, read from its map of the pieces of a cut: W0 =
-1/2, where the polynomial in s = sqrt(-2r) gives v = -W0 instead of
W0 + 1; q = 1/2, below which both branches come from that polynomial and
from which each takes a fitted start and one third-order step; the start
of the secondary branch's de Bruijn tail; and the principal branch's log
form. Also q near 1e-3, shapes a -> 1+ and up to 1e12, and proportions y
down to 5e-324. The octave count and the branch difference are held on
the same cuts, to the (W0 - Wm1)/ln 2 and W0 - Wm1 of mpmath. The density
inverse inverse_pdf is held on both branches per band of a from 1.01 to
1e15, at scales from 1e-100 to 1e100, to a bound set by the conditioning
of its cut r = ln(p/p_max)/(a-1), and its ln p_max on both sides of the
switch to Stirling's series at a - 1 = 15.
"""

import math
import random

import pytest
from conftest import (
    Q_HALF,
    Q_TAIL,
    Q_V_FORM,
    R_HALF,
    R_LOG_FORM,
    R_TAIL,
    R_V_FORM,
    mp_branches,
    mp_cut,
    mp_inverse_pdf,
    mp_log_p_max,
)

from gammabw import lambertw
from gammabw.bandwidth import ShapeScale, fwym, inverse_pdf, octave_bandwidth
from gammabw.lambertw import Branch, branch_difference_from_log_ratio, w0

mp = pytest.importorskip("mpmath")

# Unit-scale widths are within 4e-16 relative in every band (worst seen
# 3.6e-16 over 8 400 cuts; a scale b != 1 adds the rounding of the product
# with b). Crossings are held to ulp(mode) plus 1e-15 half-widths at any
# scale: worst seen 4.9e-16 on this module's 556 cuts. Each crossing is
# within an ulp of its own, so where a high crossing lies in the binade
# above the mode, with twice its ulp, the excess over ulp(mode) can be a
# larger share of a narrow half-width: 2.4e-15 at worst over seeds 1 to 99
# of band_cuts (41 716 cuts), 0.55 ulps of that crossing.
WIDTH_REL = 4e-16
CROSS_HW = 1e-15
# w0 on z >= 0 within 1.25 of its own ulps (worst seen 1.04 on this
# module's 305 z)
W0_ULPS = 1.25
# Octave counts at the exact r = ln(y)/(a-1) are within 4e-16 relative
# (worst seen 3.6e-16 over 27 300 cuts: the rounding of r, of the branch
# difference and of the division by ln 2), and the branch difference at a
# given r within 3e-16 (worst seen 2.5e-16)
OCTAVE_REL = 4e-16
DIFF_REL = 3e-16

# Bands of q
BANDS = (
    (1e-14, 1e-3),
    (1e-3, 1.1e-3),
    (1.1e-3, 1e-2),
    (1e-2, Q_V_FORM),
    (Q_V_FORM, Q_HALF),
    (Q_HALF, 0.99),
    (0.99, 1.0 - 1e-12),
)
# The kernel's seams in q above the log form, and q = 1e-3, where an
# earlier kernel switched
SEAM_QS = (1e-3, Q_V_FORM, Q_HALF, Q_TAIL)
# The same seams in r
SEAM_RS = (R_HALF, R_V_FORM, R_TAIL)
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


def assert_cut(a, b, y):
    """The width at unit scale and both crossings at scale b."""
    res = fwym(ShapeScale(a, b), y)
    where = f"a={a!r}, b={b!r}, y={y!r}"
    with mp.workdps(50):
        x_low, x_high, width = mp_cut(mp, a, b, y)
        unit_width = width / b
        got = fwym(ShapeScale(a, 1.0), y).width
        assert float(abs(got - unit_width) / unit_width) <= WIDTH_REL, where
    bound = math.ulp(res.mode) + CROSS_HW * float(width) / 2.0
    assert float(abs(res.x_low - x_low)) <= bound, where
    assert float(abs(res.x_high - x_high)) <= bound, where


def assert_octaves(a, b, y):
    """The octave count of the cut and the branch difference at its r."""
    r = math.log(y) / (a - 1.0)
    where = f"a={a!r}, b={b!r}, y={y!r}"
    with mp.workdps(50):
        _, w_lo, w_hi = mp_branches(mp, a, b, y)
        want = (w_lo - w_hi) / mp.log(2)
        got = octave_bandwidth(ShapeScale(a, b), y).octaves
        assert float(abs(got - want) / want) <= OCTAVE_REL, where
        z = -mp.exp(mp.mpf(r) - 1)
        want = mp.lambertw(z, 0).real - mp.lambertw(z, -1).real
        got = branch_difference_from_log_ratio(r)
        assert float(abs(got - want) / want) <= DIFF_REL, f"r={r!r}"


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


def q_seam_cuts(a, q_seam):
    """(a, b, y) at q_seam*(1 + step) for steps up to 1e-6 either side."""
    return [
        (a, 1.7, math.exp((a - 1.0) * math.log1p(-q_seam * (1.0 + step))))
        for step in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6)
    ]


def r_seam_cuts(shape, r_seam):
    """(a, b, y) at r_seam*(1 + step) for steps up to 1e-6 either side:
    built in r, so that no seam is out of reach of q*(1 + 1e-6) < 1; the
    shape is capped so that y = exp((a-1)*r) stays a normal double."""
    a = min(shape, 1.0 + 700.0 / abs(r_seam))
    return [
        (a, 1.7, math.exp((a - 1.0) * r_seam * (1.0 + step)))
        for step in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6)
    ]


def log_form_cuts(a):
    """(a, b, y) with r - 1 = ln(y)/(a-1) - 1 on both sides of the log
    form's seam, -690."""
    cut = R_LOG_FORM - 1.0
    return [
        (a, 3.0, math.exp((r1 + 1.0) * (a - 1.0)))
        for r1 in (cut + 1.0, cut + 1e-9, cut, cut - 1e-9, cut - 1.0, cut - 50.0)
    ]


@pytest.mark.parametrize("band", BANDS, ids=[f"q{lo:.3g}" for lo, _ in BANDS])
def test_cuts_in_band(band):
    for cut in band_cuts(*band, n=60, seed=11):
        assert_cut(*cut)


@pytest.mark.parametrize("q_seam", SEAM_QS)
@pytest.mark.parametrize("a", SEAM_SHAPES)
def test_cuts_across_q_seam(a, q_seam):
    for cut in q_seam_cuts(a, q_seam):
        assert_cut(*cut)


@pytest.mark.parametrize("r_seam", SEAM_RS)
@pytest.mark.parametrize("shape", SEAM_SHAPES)
def test_cuts_across_r_seam(shape, r_seam):
    for cut in r_seam_cuts(shape, r_seam):
        assert_cut(*cut)


@pytest.mark.parametrize("a", [1.01, 1.5, 2.0])
def test_cuts_across_log_form(a):
    for cut in log_form_cuts(a):
        assert_cut(*cut)


@pytest.mark.parametrize("a,b,y", EXTREME_CUTS)
def test_extreme_cuts(a, b, y):
    assert_cut(a, b, y)


@pytest.mark.parametrize("band", BANDS, ids=[f"q{lo:.3g}" for lo, _ in BANDS])
def test_octaves_in_band(band):
    for cut in band_cuts(*band, n=60, seed=11):
        assert_octaves(*cut)


def test_octaves_across_seams():
    cuts = [cut for a in SEAM_SHAPES for q_seam in SEAM_QS for cut in q_seam_cuts(a, q_seam)]
    cuts += [cut for shape in SEAM_SHAPES for r_seam in SEAM_RS for cut in r_seam_cuts(shape, r_seam)]
    cuts += [cut for a in (1.01, 1.5, 2.0) for cut in log_form_cuts(a)]
    for cut in cuts:
        assert_octaves(*cut)


@pytest.mark.parametrize("a,b,y", EXTREME_CUTS)
def test_octaves_extreme_cuts(a, b, y):
    assert_octaves(a, b, y)


def test_w0_positive_axis_within_2_ulps():
    rng = random.Random(3)
    zs = [math.e * rng.random() for _ in range(300)] + [5e-324, 1e-300, 1e-8, 1.0, math.e]
    with mp.workdps(50):
        for z in zs:
            got = w0(z)
            want = mp.lambertw(mp.mpf(z)).real
            assert float(abs(got - want)) <= W0_ULPS * math.ulp(got), f"z={z!r}"


# inverse_pdf: bands of the shape a, seeded scales b from 1e-100 to 1e100,
# and levels y*p_max away from the maximum and within 1e-6 to 1e-12 of it
A_BANDS = ((1.01, 2.0), (2.0, 16.0), (16.0, 1e3), (1e3, 1e6), (1e6, 1e10), (1e10, 1e15))
FAR_YS = (1e-3, 0.1, 0.5, 0.9)
NEAR_YS = (1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-12)
EPS = math.ulp(1.0)


def log_p_max_terms(a, b, p):
    """The size of the terms of ln p - ln p_max as inverse_pdf forms them,
    n = a - 1: n*(ln n - 1) and lgamma(a) below n = 15, ln(2*pi*n)/2 from
    it; an ulp of each moves r = ln(p/p_max)/n by up to EPS*terms/n."""
    n = a - 1.0
    if n < 15.0:
        form = n * abs(math.log(n) - 1.0) + abs(math.lgamma(a))
    else:
        form = 0.5 * math.log(2.0 * math.pi * n)
    return abs(math.log(p)) + abs(math.log(b)) + form


def level_cases(band, ys, n=10, seed=13):
    """(params, p, branch, x, x_ref, d) for seeded shapes in the band and
    p = y*p_max rounded from mpmath: x is inverse_pdf's crossing, x_ref
    mpmath's and d = |W + 1| = |x_ref/mode - 1| its relative offset from
    the mode."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        a = math.exp(rng.uniform(math.log(band[0]), math.log(band[1])))
        b = math.exp(rng.uniform(-230.0, 230.0))
        params = ShapeScale(a, b)
        with mp.workdps(60 + int(math.log10(a))):
            p_max = mp.exp(mp_log_p_max(mp, a, b))
            mode = (mp.mpf(a) - 1) * b
        for y in ys:
            p = float(y * p_max)
            for branch in Branch:
                with mp.workdps(50):
                    x_ref = mp_inverse_pdf(mp, p, params, branch)
                    d = float(abs(x_ref / mode - 1))
                cases.append((params, p, branch, inverse_pdf(p, params, branch), x_ref, d))
    return cases


@pytest.mark.parametrize("band", A_BANDS, ids=[f"a{lo:g}" for lo, _ in A_BANDS])
def test_inverse_pdf_in_band(band):
    # x = mode*(1 - d) moves by x*dr/d for an error dr in r: the rounding
    # of ln p - ln p_max, plus the rounding of the mode and the kernel's
    # ulps (worst seen 0.87 of the bound without its factor 2)
    for params, p, branch, x, x_ref, d in level_cases(band, FAR_YS):
        a, b = params.a, params.b
        bound = 2.0 * EPS * (log_p_max_terms(a, b, p) / ((a - 1.0) * d) + 1.0)
        assert float(abs(x - x_ref) / x_ref) <= bound, (params, p, branch)


def cancelling_r(p, a, b):
    """The cut's r from the density's log-normaliser, (ln p + lgamma(a) +
    a*ln b)/(a - 1) - ln(mode) + 1, whose terms of size a*ln(a) and
    a*|ln b| cancel: the form inverse_pdf used before its ln p_max took
    Stirling's series, and the reference it must match or beat near the
    maximum."""
    m = (a - 1.0) * b
    r = (math.log(p) + math.lgamma(a) + a * math.log(b)) / (a - 1.0) - math.log(m) + 1.0
    return min(r, 0.0)


@pytest.mark.parametrize("band", A_BANDS, ids=[f"a{lo:g}" for lo, _ in A_BANDS])
def test_inverse_pdf_near_the_maximum(band):
    # the offset from the mode, d = sqrt(-2r) or so, carries dr/d**2 of an
    # error dr in r, and the rounding of the mode adds EPS/d; at 1e-12 of
    # p_max the rounding of ln p alone is about 5e-5 of the offset (worst
    # seen 0.49 of the bound without its factor 2). No band is worse than
    # with the cancelling form of r, solved by the same kernel.
    worst = worst_cancelling = 0.0
    for params, p, branch, x, x_ref, d in level_cases(band, NEAR_YS):
        a, b = params.a, params.b
        err = float(abs(x - x_ref)) / (d * (a - 1.0) * b)
        bound = 2.0 * EPS * (log_p_max_terms(a, b, p) / ((a - 1.0) * d * d) + 1.0 / d)
        assert err <= bound, (params, p, branch)
        r, m = cancelling_r(p, a, b), (a - 1.0) * b
        if branch is Branch.PRINCIPAL:
            x_cancelling = lambertw._principal(r, m)[0]
        else:
            x_cancelling = m - m * lambertw._secondary(r)
        worst = max(worst, err)
        worst_cancelling = max(worst_cancelling, float(abs(x_cancelling - x_ref)) / (d * m))
    assert worst <= worst_cancelling, (worst, worst_cancelling)


@pytest.fixture
def cut_r(monkeypatch):
    """cut_r(p, params) is the r that inverse_pdf hands the kernel's
    secondary branch."""
    seen = []
    solve = lambertw._secondary

    def recorded(r):
        seen.append(r)
        return solve(r)

    monkeypatch.setattr(lambertw, "_secondary", recorded)

    def cut(p, params):
        inverse_pdf(p, params, Branch.SECONDARY)
        return seen[-1]

    return cut


def test_log_p_max_across_the_series_switch(cut_r):
    # at n = a - 1 from 15 on ln p_max is -ln b - ln(2*pi*n)/2 - stirlerr(n)
    # by Stirling's series, below it n*(ln n - 1) - lgamma(a) - ln b. Read
    # back from the cut at a level 1e-9 below p_max, where ln p - ln p_max
    # and r = (ln p - ln p_max)/n are exact to about 1e-25. The series side
    # is within 3 ulps of ln p_max (worst seen 1.8). The lgamma side is
    # within EPS times the size of its terms, n*(ln n - 1) and lgamma(a)
    # near 26 and 28 plus |ln b| (worst seen 0.37 of it, 19 ulps of
    # ln p_max): they cancel to about -2.3 - ln b.
    shapes = [16.0, 15.5, 16.5]
    for toward in (0.0, math.inf):
        a = 16.0
        for _ in range(4):
            a = math.nextafter(a, toward)
            shapes.append(a)
    for a in shapes:
        n = a - 1.0
        for b in (1.0, 0.3, 3.0, 1e-5, 1e5, 1e-300):
            params = ShapeScale(a, b)
            with mp.workdps(50):
                want = mp_log_p_max(mp, a, b)
                p = float(mp.exp(want) * (1 - mp.mpf(1e-9)))
                got = mp.mpf(math.log(p)) - n * mp.mpf(cut_r(p, params))
                err = float(abs(got - want))
            if n < 15.0:
                bound = EPS * log_p_max_terms(a, b, 1.0)
            else:
                bound = 3.0 * math.ulp(float(want))
            assert err <= bound, (a, b, err)
    # stirlerr's odd series, B(2k)/(2k*(2k - 1)*n**(2k - 1)), to k = 6:
    # truncated within 1e-17 from n = 15 (five terms leave 2.2e-16 there)
    with mp.workdps(50):
        n = mp.mpf(15)
        stirlerr = mp.loggamma(n + 1) - (n * (mp.log(n) - 1) + mp.log(2 * mp.pi * n) / 2)
        series = sum(mp.bernoulli(2 * k) / (2 * k * (2 * k - 1) * n ** (2 * k - 1)) for k in range(1, 7))
        assert abs(series - stirlerr) < 1e-17


def test_unit_shape_excess_cut_is_ln_p_plus_one(cut_r):
    # ShapeScale(2, 1): n = 1, mode 1, ln p_max = 1*(0 - 1) - lgamma(2) -
    # ln 1 = -1 exactly, so r = ln p + 1 with one rounding
    params = ShapeScale(2.0, 1.0)
    rng = random.Random(17)
    for p in [0.5 / math.e, 1e-300] + [rng.uniform(1e-6, 0.36) for _ in range(50)]:
        assert cut_r(p, params) == math.log(p) + 1.0, p
