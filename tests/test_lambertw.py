import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import Q_HALF, Q_V_FORM, R_HALF, R_LOG_FORM, R_V_FORM, SEAMS, rel_err, signed

from gammabw import lambertw
from gammabw.bandwidth import ShapeScale, gamma_pdf, inverse_pdf
from gammabw.lambertw import (
    Branch,
    branch_difference_from_log_ratio,
    w0,
    wm1,
    wm1_from_log,
)
from gammabw.oracle import oracle_lambert_w

INV_E = 1.0 / math.e

# Frozen oracle values: bisection on u*exp(u) cross-checked against a
# 60-digit evaluation; the two routes agree to a few 1e-16 relative.
W0_AT_HALF_BP = -0.23196095298653444  # W0(-1/(2e))
WM1_AT_HALF_BP = -2.6783469900166605  # Wm1(-1/(2e))
DIFF_AT_LN2 = 2.446386037030126  # W0 - Wm1 at z = -1/(2e)
DIFF_AT_LN2_99 = 0.23676038729121193  # same at r = -ln(2)/99


class TestW0:
    def test_zero_is_exact(self):
        # a zero keeps its sign; -exp(-800) underflows to -0
        got = signed(w0(0.0), w0(-0.0), w0(-math.exp(-800.0)))
        assert got == signed(0.0, -0.0, -0.0)

    def test_w0_at_e(self):
        assert rel_err(w0(math.e), 1.0) < 1e-14

    def test_branch_point_is_exact(self):
        assert w0(-INV_E) == -1.0

    def test_half_branch_point(self):
        assert rel_err(w0(-0.5 * INV_E), W0_AT_HALF_BP) < 1e-13

    def test_clamp_just_below_branch_point(self):
        assert w0(-INV_E * (1.0 + 2e-16)) == -1.0

    @pytest.mark.parametrize("z", [-0.5, -INV_E * (1.0 + 1e-12), math.inf, math.nan])
    def test_domain_errors(self, z):
        with pytest.raises(ValueError):
            w0(z)

    def test_floor_at_minus_one(self):
        for k in range(400):
            z = -INV_E * (1.0 - 10.0 ** (-16 + 14 * k / 399))
            assert w0(z) >= -1.0


class TestWm1:
    def test_branch_point_is_exact(self):
        assert wm1(-INV_E) == -1.0

    def test_half_branch_point(self):
        assert rel_err(wm1(-0.5 * INV_E), WM1_AT_HALF_BP) < 1e-13

    def test_constructed_point(self):
        # (-2)*exp(-2) round-trips to -2
        assert rel_err(wm1(-2.0 * math.exp(-2.0)), -2.0) < 1e-14

    @pytest.mark.parametrize(
        "z", [0.0, -0.0, 1e-3, -0.5, -INV_E * (1.0 + 1e-12), math.nan]
    )
    def test_domain_errors(self, z):
        with pytest.raises(ValueError):
            wm1(z)

    @pytest.mark.parametrize("z", [-5e-324, -1e-310, -2e-309, -2.2e-308])
    def test_subnormal_argument_matches_mpmath(self, z):
        # exp(w) is subnormal at the root, so the branch is solved in ln(-z)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = mp.lambertw(mp.mpf(z), -1).real
            assert float(abs(wm1(z) - want)) <= 2.0 * math.ulp(float(want))

    def test_ceiling_at_minus_one(self):
        for k in range(400):
            z = -INV_E * (1.0 - 10.0 ** (-16 + 14 * k / 399))
            assert wm1(z) <= -1.0


class TestBranchPointTolerance:
    """Inputs down to 4 eps relative below -1/e are the branch point itself;
    further below, both branches raise."""

    @pytest.mark.parametrize("fn", [w0, wm1])
    def test_edge_of_tolerance_is_the_branch_point(self, fn):
        assert fn(-(1.0 + 4.0 * sys.float_info.epsilon) / math.e) == -1.0

    @pytest.mark.parametrize("fn", [w0, wm1])
    @pytest.mark.parametrize("k", [5, 8, 63])
    def test_beyond_tolerance_raises(self, fn, k):
        with pytest.raises(ValueError, match="undefined below -1/e"):
            fn(-(1.0 + k * sys.float_info.epsilon) / math.e)


class TestBranchEnum:
    def test_two_branches_only(self):
        assert {b.value for b in Branch} == {0, -1}


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=600.0))
    def test_w0_recovers_argument(self, u):
        assert w0(u * math.exp(u)) == pytest.approx(u, rel=1e-12, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-600.0, max_value=-1.1))
    def test_wm1_recovers_argument(self, u):
        assert wm1(u * math.exp(u)) == pytest.approx(u, rel=1e-12)

    def test_near_branch_point_window(self):
        # within 1e-6 of u = -1 the recovery is conditioning-limited; the
        # contract there is 1e-7 relative
        for d in (1e-9, 1e-8, 1e-7, 1e-6):
            hi = -1.0 + d
            lo = -1.0 - d
            assert rel_err(w0(hi * math.exp(hi)), hi) < 1e-7
            assert rel_err(wm1(lo * math.exp(lo)), lo) < 1e-7


class TestAgainstOracle:
    """Both branches against the referee, which returns the double nearest
    the root, on 1 000 seeded z per band of q = 1 + e*z, drawn log-uniform
    in q. Below q = 1/2 both branches cut at r = ln(-e*z) from a
    compensated product, so the nearness of z to the branch point costs
    no digits: each value is within one ulp of the referee, but for w0 in
    the kernel's v form (W0 <= -1/2, q from 0.18 to 1/2), which rounds
    ((c + even) - u/3) at two ulps of v: there one z of the 1 000 is two
    ulps off (1.58 from 50-digit mpmath)."""

    @pytest.mark.parametrize(
        "q_lo,q_hi,ulps", [(0.5, 1.0, 1), (1e-3, 0.5, 2), (1e-6, 1e-3, 1), (1e-12, 1e-6, 1)]
    )
    def test_both_branches_per_band(self, q_lo, q_hi, ulps):
        rng = random.Random(1)
        for _ in range(1000):
            z = (q_lo * (q_hi / q_lo) ** rng.random() - 1.0) / math.e
            for w, branch in ((w0(z), Branch.PRINCIPAL), (wm1(z), Branch.SECONDARY)):
                want = oracle_lambert_w(z, branch)
                bound = ulps if branch is Branch.PRINCIPAL else 1
                assert abs(w - want) <= bound * math.ulp(want), (z, branch)

    def test_w0_positive_axis_within_2_ulps(self):
        # half of the z up to 10, half log-uniform up to the largest double,
        # and four z at the top of the range
        rng = random.Random(1)
        zs = [rng.uniform(0.0, 10.0) if k % 2 else 10.0 ** rng.uniform(-300.0, 308.25) for k in range(1000)]
        for z in zs + [2.76e307, 4.45e307, 1e308, sys.float_info.max]:
            want = oracle_lambert_w(z, Branch.PRINCIPAL)
            assert abs(w0(z) - want) <= 2.0 * math.ulp(want), z


class TestFromHalfAgainstMpmath:
    """w0 and wm1 from q = 1 + e*z = 1/2 on, where w0 takes the kernel's
    step at x = -z and wm1 the kernel at ln(-z) and one Newton step in z,
    against 40-digit mpmath in ulps: 3 000 seeded z with -z log-uniform in
    [1e-300, 1/(2e)] and 1 500 uniform in q in [1/2, 1). Each bound is the
    worst seen on these z (0.61 ulps for w0, 1.02 for wm1, as for Halley's
    method in z before it) rounded up to a quarter ulp."""

    def test_within_ulps_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(22)
        zs = [-math.exp(rng.uniform(math.log(1e-300), math.log(0.5 * INV_E))) for _ in range(3000)]
        zs += [(rng.uniform(0.5, 1.0) - 1.0) / math.e for _ in range(1500)]
        with mp.workdps(40):
            for z in zs:
                for fn, k, bound in ((w0, 0, 0.75), (wm1, -1, 1.25)):
                    want = mp.lambertw(mp.mpf(z), k).real
                    ulps = abs(fn(z) - want) / math.ulp(float(want))
                    assert ulps <= bound, f"{fn.__name__}({z!r}): {float(ulps):.2f} ulps"

    def test_wm1_near_dbl_min(self):
        # -z in [DBL_MIN, 1e-300], where w*exp(w) is near the subnormals:
        # within 0.75 ulps (0.50 worst seen; Halley's method in z read 1.03)
        mp = pytest.importorskip("mpmath")
        rng = random.Random(29)
        lo, hi = math.log(sys.float_info.min), math.log(1e-300)
        with mp.workdps(50):
            for _ in range(1000):
                z = -math.exp(rng.uniform(lo, hi))
                want = mp.lambertw(mp.mpf(z), -1).real
                ulps = abs(wm1(z) - want) / math.ulp(float(want))
                assert ulps <= 0.75, f"wm1({z!r}): {float(ulps):.2f} ulps"


def around(z, n=8):
    """z and the n doubles on each side of it."""
    out, lo, hi = [z], z, z
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestW0AgainstMpmath:
    """w0 against 50-digit mpmath over its whole domain, seeded."""

    def test_negative_axis_every_seam(self):
        # From q = 1 + e*z = 1/2 on, w0 is the kernel's step at the exact
        # x = -z: within 0.75 ulps (0.65 worst seen; Halley's method in z
        # read 1.92 on these z). Below, it cuts at r = ln(-e*z) from a
        # compensated product, which keeps every digit of a small q: within
        # 1.5 ulps (1.35 worst seen, in the v form). The seams: q = 1/2 and
        # W0 = -1/2 with 8 doubles on each side, the 8 doubles above -1/e,
        # -DBL_MIN and the largest subnormal, and subnormal z.
        mp = pytest.importorskip("mpmath")
        rng = random.Random(27)
        zs = [-math.exp(rng.uniform(math.log(5e-324), math.log(0.5 * INV_E))) for _ in range(2000)]
        zs += [(rng.uniform(0.5, 1.0) - 1.0) / math.e for _ in range(1000)]
        zs += [(rng.uniform(0.5, 0.501) - 1.0) / math.e for _ in range(1000)]
        zs += [(math.exp(rng.uniform(math.log(1e-14), math.log(0.5))) - 1.0) / math.e for _ in range(1500)]
        zs += around(-0.5 * INV_E) + around(-0.5 * math.exp(-0.5)) + around(-INV_E)[2::2]
        zs += [-sys.float_info.min, math.nextafter(-sys.float_info.min, 0.0), -1e-310, -5e-324]
        with mp.workdps(50):
            for z in zs:
                want = mp.lambertw(mp.mpf(z), 0).real
                ulps = abs(w0(z) - want) / math.ulp(float(want))
                bound = 0.75 if 1.0 + math.e * z >= 0.5 else 1.5
                assert ulps <= bound, f"w0({z!r}): {float(ulps):.2f} ulps"

    def test_positive_axis(self):
        # Winitzki's start and three Halley steps on w - z*exp(-w), whose
        # residual rounds at an ulp of w: within 1.25 ulps (1.07 worst
        # seen). The z: 3 000 log-uniform in [e**-700, e**700], 3 000
        # uniform in [0, 3], 1 000 in [1/16, 1.1/16], where w0 lies in the
        # binade below z's and a residual rounded at an ulp of z would cost
        # two ulps of w0, subnormals, and the top of the range, where
        # w*exp(w) overflows.
        mp = pytest.importorskip("mpmath")
        rng = random.Random(1)
        zs = [math.exp(rng.uniform(-700.0, 700.0)) if k % 2 else rng.uniform(0.0, 3.0) for k in range(6000)]
        zs += [rng.uniform(0.0625, 0.06875) for _ in range(1000)]
        zs += [5e-324, 1e-320, 1e-310, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min]
        zs += [2.76e307, sys.float_info.max]
        with mp.workdps(50):
            for z in zs:
                want = mp.lambertw(mp.mpf(z), 0).real
                ulps = abs(w0(z) - want) / math.ulp(float(want))
                assert ulps <= 1.25, f"w0({z!r}): {float(ulps):.2f} ulps"


def test_tables_match_their_fit():
    # scripts/fit_offsets.py --check refits every Lambert table at 60 digits
    # and measures each start's error and each step's
    pytest.importorskip("mpmath")
    script = Path(__file__).resolve().parents[1] / "scripts" / "fit_offsets.py"
    done = subprocess.run([sys.executable, str(script), "--check"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_e_in_halves_and_its_tail():
    # the compensated r's constants: math.e in two halves of at most 26
    # significant bits, whose products with 26-bit halves are exact, and
    # the rounding error of math.e
    mp = pytest.importorskip("mpmath")
    assert lambertw._E_HI + lambertw._E_LO == math.e
    for half in (lambertw._E_HI, lambertw._E_LO):
        assert math.frexp(half)[0] * 2.0**26 == int(math.frexp(half)[0] * 2.0**26)
    with mp.workdps(50):
        assert lambertw._E_TAIL == float(mp.e - mp.mpf(math.e))


class TestResidualContract:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-0.3678, max_value=-1e-300))
    def test_both_branches_in_overlap(self, z):
        for w in (w0(z), wm1(z)):
            assert abs(w * math.exp(w) - z) <= 1e-13 * max(abs(z), 1e-300)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_w0_positive_axis(self, z):
        w = w0(z)
        assert abs(w * math.exp(w) - z) <= 1e-13 * z


class TestOrderingAndMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-0.36787, max_value=-1e-300))
    def test_branch_ordering(self, z):
        assert wm1(z) < -1.0 < w0(z) <= 0.0

    def test_w0_strictly_increasing(self):
        grid = [-INV_E] + [
            -INV_E * (1 - 10 ** (-8 + 7.9 * k / 199)) for k in range(200)
        ] + [10 ** (-8 + 16 * k / 199) for k in range(200)]
        values = [w0(z) for z in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_wm1_strictly_decreasing(self):
        grid = [-INV_E] + [
            -INV_E * (1 - 10 ** (-8 + 7.9 * k / 199)) for k in range(200)
        ]
        values = [wm1(z) for z in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBranchDifference:
    def test_zero_at_branch_point(self):
        # W0 - Wm1 = +0 - -0 = +0 from either zero of r
        got = signed(branch_difference_from_log_ratio(0.0), branch_difference_from_log_ratio(-0.0))
        assert got == signed(0.0, 0.0)

    def test_value_at_ln2(self):
        assert rel_err(branch_difference_from_log_ratio(-math.log(2.0)), DIFF_AT_LN2) < 1e-13

    def test_value_at_ln2_over_99(self):
        got = branch_difference_from_log_ratio(-math.log(2.0) / 99.0)
        assert rel_err(got, DIFF_AT_LN2_99) < 1e-10

    @pytest.mark.parametrize("r", [1e-300, 0.5, math.inf, -math.inf, math.nan])
    def test_domain_errors(self, r):
        with pytest.raises(ValueError):
            branch_difference_from_log_ratio(r)

    def test_strictly_decreasing_toward_zero(self):
        rs = [-(10.0 ** (1.4 - 14.0 * k / 149)) for k in range(150)]  # -25.1 .. ~-4e-13
        values = [branch_difference_from_log_ratio(r) for r in rs]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0
        assert values[-1] < 2e-6

    @pytest.mark.parametrize("q", [9.0e-4, 9.9e-4, 1.0e-3, 1.01e-3, 1.1e-3])
    def test_cut_and_z_solves_agree_on_polynomial_in_s(self, q):
        # the cut in r agrees with the branches solved in z; q = 1e-3, where
        # an earlier kernel switched, is a plain input
        z = (q - 1.0) / math.e
        direct = w0(z) - wm1(z)
        assert rel_err(branch_difference_from_log_ratio(math.log1p(-q)), direct) < 1e-9

    def test_matches_direct_subtraction_midrange(self):
        # direct subtraction is fine for moderate r; both paths agree for
        # r from -30 to -1e-3
        for k in range(120):
            r = -(10.0 ** (math.log10(30.0) - (math.log10(30.0) + 3.0) * k / 119))
            z = -math.exp(r - 1.0)
            assert rel_err(
                branch_difference_from_log_ratio(r), w0(z) - wm1(z)
            ) < 1e-10, f"r={r!r}"

    def test_extreme_log_ratio_does_not_underflow(self):
        # y**(1/(a-1)) far below double range: z underflows, the log-form
        # solve takes over and the difference keeps growing
        d1 = branch_difference_from_log_ratio(-800.0)
        d2 = branch_difference_from_log_ratio(-1e8)
        assert 790.0 < d1 < 810.0
        assert d2 > 1e8


def offset_rs():
    """Seeded r in [ln 1/2, -1e-30], where _offsets serves: uniform (where
    the offsets are largest) and log-uniform toward the branch point; then
    ln 1/2 and the doubles just above it, and the smallest subnormal."""
    rng = random.Random(12)
    uniform = [R_HALF * rng.random() for _ in range(700)]
    log_uniform = [-math.exp(rng.uniform(math.log(1e-30), math.log(-R_HALF))) for _ in range(300)]
    return uniform + log_uniform + [R_HALF * (1.0 - k * 2.0**-52) for k in range(8)] + [-5e-324]


class TestOffsets:
    """lambertw._offsets, both branches below q = 1/2 from one polynomial in
    s = sqrt(-2r), against 100-digit mpmath: the offsets and their
    difference on the whole band, and the principal branch in the form
    _offsets picks, W0 + 1 on the offsets piece and v = -W0 on the v form."""

    def test_within_ulps_of_mpmath(self):
        # each offset rounds once at the end (worst seen 0.96 and 0.74 ulps
        # over 20 000 uniform r); lo - hi can be 1.25 ulps off even from
        # correctly rounded offsets (worst seen 1.32); v is held to
        # TestSteps' bound (worst seen here 1.21)
        mp = pytest.importorskip("mpmath")
        for r in offset_rs():
            # the branch point costs log10(1/|r|) digits of z
            with mp.workdps(100 + max(0, int(-math.log10(-r)))):
                z = -mp.exp(mp.mpf(r) - 1)
                w0_1, wm1_1 = mp.lambertw(z, 0).real + 1, mp.lambertw(z, -1).real + 1
                x_low, lo, hi = lambertw._offsets(r, 1.0)
                cases = [(hi, wm1_1, 1.0), (lo - hi, w0_1 - wm1_1, 1.5)]
                if r > R_V_FORM:
                    cases.append((lo, w0_1, 1.0))
                else:
                    cases.append((x_low, 1 - w0_1, 2.0))
                for got, want, bound in cases:
                    ulps = abs(got - want) / math.ulp(float(want))
                    assert ulps <= bound, f"r={r!r}: {float(ulps):.2f} ulps"

    @pytest.mark.parametrize("r", [-0.0, 0.0])
    def test_branch_point_is_exact(self, r):
        # either zero of r is the branch point, where each offset is the zero
        # of its side, W0 + 1 = +0 and Wm1 + 1 = -0, and W0 - Wm1 = +0
        assert signed(*lambertw._offsets(r, 1.0)) == signed(1.0, 0.0, -0.0)
        assert signed(*lambertw._cut(r, 1.0)) == signed(1.0, 1.0, 0.0)
        assert signed(*lambertw._principal(r, 1.0)) == signed(1.0, 0.0)
        assert signed(lambertw._secondary(r)) == signed(-0.0)


def step_rs():
    """Seeded r where a fitted start and one step give the branches: 300
    uniform in q in [1 - sqrt(e)/2, 1/2) (v = -W0 from the polynomial in
    s), 700 uniform in q in [1/2, 0.99), 300 log-uniform in -r from ln 100
    to the log form; then each seam of the kernel and r*(1 +- 1e-12),
    r*(1 +- 1e-6) around it."""
    rng = random.Random(19)
    q_band = (math.log(Q_V_FORM), math.log(Q_HALF))
    v_band = [math.log1p(-math.exp(rng.uniform(*q_band))) for _ in range(300)]
    fitted = [math.log1p(-rng.uniform(Q_HALF, 0.99)) for _ in range(700)]
    tail = [-math.exp(rng.uniform(math.log(math.log(100.0)), math.log(-R_LOG_FORM))) for _ in range(300)]
    edges = [r * (1.0 + k) for r in SEAMS for k in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6)]
    return v_band + fitted + tail + edges


class TestSteps:
    """The branches from W0 = -1/2 on, against 100-digit mpmath: v = -W0
    from the polynomial in s up to q = 1/2, and from there each branch a
    fitted start and one fixed third-order step."""

    def test_within_ulps_of_mpmath(self):
        # worst seen over 20 seeds (26 000 r): Wm1 + 1 1.47 ulps, W0 - Wm1
        # 1.68, v 1.48 in [1 - sqrt(e)/2, 1/2) and 1.82 from q = 1/2 on;
        # without _offsets' take-back of u/3's rounding v reads 1.66 below
        # q = 1/2 on these r (1.96 at its worst)
        mp = pytest.importorskip("mpmath")
        for r in step_rs():
            with mp.workdps(100):
                z = -mp.exp(mp.mpf(r) - 1)
                v, wm1_1 = -mp.lambertw(z, 0).real, mp.lambertw(z, -1).real + 1
                x_low, _, diff = lambertw._cut(r, 1.0)
                v_bound = 1.6 if -math.expm1(r) < Q_HALF else 2.0
                cases = [
                    (lambertw._secondary(r), wm1_1, 1.75),
                    (diff, 1 - v - wm1_1, 1.75),
                    (x_low, v, v_bound),
                    (lambertw._principal(r, 1.0)[0], v, v_bound),
                ]
                for got, want, bound in cases:
                    ulps = abs(got - want) / math.ulp(float(want))
                    assert ulps <= bound, f"r={r!r}: {float(ulps):.2f} ulps"


def cut_rs():
    """Seeded r over every piece of a cut: offset_rs(), step_rs() and 100
    log-uniform in -r on the log form."""
    rng = random.Random(20)
    log_form = [-math.exp(rng.uniform(math.log(-R_LOG_FORM), math.log(1e8))) for _ in range(100)]
    return offset_rs() + step_rs() + log_form


class TestOneSecondary:
    """_secondary alone is _cut's high crossing, and _principal its low one:
    each band takes the same form of the branch, so they agree bit for bit
    at every r and scale."""

    @pytest.mark.parametrize("m", [1.0, 0.37, 1.7e5, 1e-300])
    def test_matches_cut_high_crossing(self, m):
        for r in cut_rs():
            assert m - m * lambertw._secondary(r) == lambertw._cut(r, m)[1], f"r={r!r}"

    @pytest.mark.parametrize("m", [1.0, 0.37, 1.7e5, 1e-300])
    def test_principal_matches_cut_low_crossing(self, m):
        for r in cut_rs():
            assert lambertw._principal(r, m)[0] == lambertw._cut(r, m)[0], f"r={r!r}"


# The work of each piece of a branch evaluated alone: the kernel entries it
# calls, _offsets named by the form it takes, and lambertw's math calls.
# The principal branch's step and log form are _principal's.
PIECE_WORK = {
    Branch.PRINCIPAL: {
        "offsets": (["_offsets"], {"sqrt": 1}),
        "v-form": (["_offsets(v)"], {"sqrt": 1}),
        "step": ([], {"exp": 1, "log1p": 1}),
        "log-form": ([], {"exp": 1, "log": 1}),
    },
    Branch.SECONDARY: {
        "offsets": (["_offsets"], {"sqrt": 1}),
        "v-form": (["_offsets(v)"], {"sqrt": 1}),
        "step": ([], {"sqrt": 1, "log1p": 1}),
        "de-bruijn": ([], {"log": 1, "log1p": 1}),
    },
}

# The kernel entry that evaluates each branch alone
BRANCH_ENTRY = {Branch.PRINCIPAL: "_principal", Branch.SECONDARY: "_secondary"}


def mapped_work(entry, r):
    """The work that the kernel's map names for a kernel entry at r: the
    entries run, in order, and lambertw's math calls."""
    lo = lambertw._piece(Branch.PRINCIPAL, r)
    hi = lambertw._piece(Branch.SECONDARY, r)
    lo_calls, lo_math = PIECE_WORK[Branch.PRINCIPAL][lo]
    hi_calls, hi_math = PIECE_WORK[Branch.SECONDARY][hi]
    if entry == "_secondary":
        return ["_secondary", *hi_calls], hi_math
    if entry == "_principal":
        return ["_principal", *lo_calls], lo_math
    if lo_calls:
        # one evaluation of the polynomial in s gives both branches
        assert hi == lo, f"r={r!r}: {lo} and {hi} in one evaluation"
        return ["_cut", *lo_calls], lo_math
    counts = dict(hi_math)
    for name, n in lo_math.items():
        counts[name] = counts.get(name, 0) + n
    return ["_cut", "_secondary", *hi_calls, "_principal"], counts


class FormProbe(float):
    """A scale that records in ops the products and differences taken with
    it, where the form of _offsets shows: scale*v alone in the v form,
    scale - scale*d in the offsets form."""

    def __mul__(self, other):
        self.ops.append("*")
        return float(self) * other

    __rmul__ = __mul__

    def __sub__(self, other):
        self.ops.append("-")
        return float(self) - other


# The name of _offsets in the form that the arithmetic on its scale shows
OFFSETS_FORMS = {("*",): "_offsets(v)", ("*", "-"): "_offsets"}


@pytest.fixture
def kernel_work(monkeypatch, math_calls):
    """work(call) runs call and returns the r that its first kernel entry
    was given, the kernel entries run, in order, with _offsets named by the
    form it took, and lambertw's math calls."""
    calls = []
    for name in ("_cut", "_secondary", "_principal", "_offsets"):

        def recorded(*args, _name=name, _fn=getattr(lambertw, name)):
            call = [_name, args[0]]
            calls.append(call)
            if _name != "_offsets":
                return _fn(*args)
            scale = FormProbe(args[1])
            scale.ops = []
            out = _fn(args[0], scale)
            call[0] = OFFSETS_FORMS.get(tuple(scale.ops), f"_offsets{scale.ops}")
            return out

        monkeypatch.setattr(lambertw, name, recorded)

    def work(call):
        calls.clear()
        math_calls.clear()
        call()
        return calls[0][1], [name for name, _ in calls], dict(math_calls)

    return work


class TestPieceMap:
    """The kernel's map of the pieces of a cut, lambertw._PIECES, holds the
    code: at every seam, at r*(1 +- 1e-12) around it and at the branch
    point r = +-0, each of _cut, _secondary, _principal and inverse_pdf
    does the work of the pieces that lambertw._piece names there, counted
    in kernel entries, the form that _offsets takes and math calls."""

    def test_pieces_run_from_branch_point_down(self):
        ends = {lambertw._V_FORM_R, lambertw._LN_HALF, lambertw._TAIL_R, 1.0 + lambertw._LOG_FORM_CUT}
        for branch in Branch:
            pieces = lambertw._PIECES[branch]
            lows = [low for _, low, _ in pieces]
            assert lows == sorted(set(lows), reverse=True)
            assert set(lows[:-1]) <= ends
            assert pieces[-1][1:] == (-math.inf, True)
            assert lambertw._piece(branch, 0.0) == pieces[0][0]
            assert lambertw._piece(branch, -math.inf) == pieces[-1][0]
        assert set(SEAMS) == ends

    @pytest.mark.parametrize("r", [1e-300, math.inf, math.nan])
    def test_no_piece_off_the_cut(self, r):
        with pytest.raises(ValueError):
            lambertw._piece(Branch.PRINCIPAL, r)

    def test_work_tells_the_pieces_apart(self):
        for branch, pieces in lambertw._PIECES.items():
            names = [name for name, _, _ in pieces]
            assert sorted(PIECE_WORK[branch]) == sorted(names)
            works = [repr(PIECE_WORK[branch][name]) for name in names]
            assert len(set(works)) == len(works)

    @pytest.mark.parametrize("seam", SEAMS)
    def test_kernel_takes_the_mapped_pieces(self, kernel_work, seam):
        for r in (seam * (1.0 - 1e-12), seam, seam * (1.0 + 1e-12)):
            calls = [
                ("_cut", lambda: lambertw._cut(r, 1.0)),
                ("_secondary", lambda: lambertw._secondary(r)),
                ("_principal", lambda: lambertw._principal(r, 1.0)),
            ]
            for entry, call in calls:
                _, entries, counts = kernel_work(call)
                assert (entries, counts) == mapped_work(entry, r), f"{entry}({r!r})"

    @pytest.mark.parametrize("seam", SEAMS)
    def test_inverse_pdf_takes_the_mapped_pieces(self, kernel_work, seam):
        # inverse_pdf cuts at r = ln(p/p_max)/n, n = a - 1. An ulp of p moves
        # ln p by 1.1e-16 to 2.2e-16, coarser than an ulp of r at the two
        # seams above r = -1 when n = 1; at n = 32 (b = 0.07 puts p_max
        # near 1) every r there is some level's cut, so a walk of p across
        # each seam lands on it. Below, ShapeScale(2, 1) keeps p = exp(r - 1)
        # a normal double down to r = -689.
        params = ShapeScale(33.0, 0.07) if seam > -1.0 else ShapeScale(2.0, 1.0)
        n = params.a - 1.0

        def work(p, branch):
            r, entries, counts = kernel_work(lambda: inverse_pdf(p, params, branch))
            assert (entries, counts) == mapped_work(BRANCH_ENTRY[branch], r), f"{branch}, r={r!r}"
            return r

        def level(target):
            # the p whose cut is target, to within an ulp or so of r
            p = math.exp(n * target)
            for _ in range(3):
                p *= math.exp(n * (target - work(p, Branch.SECONDARY)))
            return p

        for target in (seam * (1.0 - 1e-12), seam * (1.0 + 1e-12)):
            work(level(target), Branch.PRINCIPAL)
        # an ulp of p at a time, from below the seam to above it
        p = level(seam)
        while work(p, Branch.SECONDARY) >= seam:
            p = math.nextafter(p, 0.0)
        hits = 0
        while True:
            r = work(p, Branch.SECONDARY)
            assert work(p, Branch.PRINCIPAL) == r
            hits += r == seam
            if r > seam:
                break
            p = math.nextafter(p, math.inf)
        assert hits, f"no level of {params!r} cuts at the seam r = {seam!r}"

    @pytest.mark.parametrize("r", [0.0, -0.0])
    def test_branch_point_takes_the_offsets_piece(self, kernel_work, r):
        # either zero of r lies in each branch's offsets piece
        assert [lambertw._piece(branch, r) for branch in Branch] == ["offsets", "offsets"]
        calls = [
            ("_cut", lambda: lambertw._cut(r, 1.0)),
            ("_secondary", lambda: lambertw._secondary(r)),
            ("_principal", lambda: lambertw._principal(r, 1.0)),
        ]
        for entry, call in calls:
            _, entries, counts = kernel_work(call)
            assert (entries, counts) == mapped_work(entry, r), f"{entry}({r!r})"

    def test_public_entries_reach_the_branch_point_through_offsets(self, kernel_work):
        # a level at the maximum (within inverse_pdf's slack), m = -1 and
        # r = +-0 reach the kernel at r = +-0, each through one evaluation
        # of _offsets (the entries' own domain checks aside)
        params = ShapeScale(3.0, 1.0)
        p_max = gamma_pdf(2.0, params) * (1.0 + 1e-13)
        calls = [
            ("_principal", 0.0, lambda: inverse_pdf(p_max, params, Branch.PRINCIPAL)),
            ("_secondary", 0.0, lambda: inverse_pdf(p_max, params, Branch.SECONDARY)),
            ("_secondary", 0.0, lambda: wm1_from_log(-1.0)),
            ("_cut", 0.0, lambda: branch_difference_from_log_ratio(0.0)),
            ("_cut", -0.0, lambda: branch_difference_from_log_ratio(-0.0)),
        ]
        for entry, zero, call in calls:
            r, entries, _ = kernel_work(call)
            assert signed(r) == signed(zero), entry
            assert entries == mapped_work(entry, r)[0] == [entry, "_offsets"], entry

    @pytest.mark.parametrize("z", [-INV_E, -0.35, -0.3, -0.2])
    def test_public_entries_take_one_branch_near_branch_point(self, kernel_work, z):
        # q = 1 + e*z < 1/2: w0 evaluates the principal branch alone and
        # wm1 the secondary, each from one evaluation of the polynomial in s
        for fn, branch in ((w0, Branch.PRINCIPAL), (wm1, Branch.SECONDARY)):
            r, entries, _ = kernel_work(lambda: fn(z))
            assert entries == mapped_work(BRANCH_ENTRY[branch], r)[0], f"{fn.__name__}({z!r})"
            assert entries[1:] in (["_offsets"], ["_offsets(v)"]), f"{fn.__name__}({z!r})"


class TestWm1FromHalf:
    """From q = 1 + e*z = 1/2 on, wm1 is the kernel's secondary branch at
    r = 1 + ln(-z) and one Newton step in z: one _secondary, with the work
    the kernel's map names for it, one log for ln(-z), one exp for the
    step and wm1's domain check, and no loop, down to subnormal z."""

    @pytest.mark.parametrize("z", [-0.18, -0.1, -1e-5, -1e-300, -sys.float_info.min, -5e-324])
    def test_one_secondary_and_no_halley(self, kernel_work, z):
        r, entries, counts = kernel_work(lambda: wm1(z))
        want_entries, want_counts = mapped_work("_secondary", r)
        want_counts = dict(want_counts)
        for name, n in (("log", 1), ("exp", 1), ("isfinite", 1)):
            want_counts[name] = want_counts.get(name, 0) + n
        assert (entries, counts) == (want_entries, want_counts), f"wm1({z!r})"


class TestWm1FromLog:
    @pytest.mark.parametrize("m", [-1.0, -1.0 - 1e-9, -1.5, -5.0, -40.0, -689.0])
    def test_matches_mpmath_on_every_piece(self, m):
        # solved in m itself: wm1(-exp(m)) would lose q = -expm1(m + 1) to
        # the rounding of z, 11 000 ulps at m = -1 - 1e-9; r = m + 1 falls
        # on each piece of the branch, from the polynomial in s to de
        # Bruijn's tail
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = mp.lambertw(-mp.exp(mp.mpf(m)), -1).real
            assert float(abs(wm1_from_log(m) - want)) <= 2.0 * math.ulp(want)

    def test_de_bruijn_tail_matches_solve_in_z(self):
        # deep in the tail, where z = -exp(m) is still a normal double; the
        # secondary branch has no seam here
        for m in (-690.0, -690.0 - 1e-9, -700.0):
            assert rel_err(wm1_from_log(m), wm1(-math.exp(m))) < 1e-13

    @pytest.mark.parametrize("m", [-800.0, -1e5, -1e300])
    def test_log_form_solves_level_equation(self, m):
        w = wm1_from_log(m)
        assert w <= m
        assert abs(w + math.log(-w) - m) <= 4.0 * math.ulp(m)

    @pytest.mark.parametrize("m", [-math.inf, math.nan, -0.5])
    def test_domain_errors(self, m):
        with pytest.raises(ValueError):
            wm1_from_log(m)
