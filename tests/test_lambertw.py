import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammabw.lambertw import (
    Branch,
    branch_difference_from_log_ratio,
    w0,
    wm1,
    wm1_from_log,
)

INV_E = 1.0 / math.e

# Frozen oracle values: bisection on u*exp(u) cross-checked against a
# 60-digit evaluation; the two routes agree to a few 1e-16 relative.
W0_AT_HALF_BP = -0.23196095298653444  # W0(-1/(2e))
WM1_AT_HALF_BP = -2.6783469900166605  # Wm1(-1/(2e))
DIFF_AT_LN2 = 2.446386037030126  # W0 - Wm1 at z = -1/(2e)
DIFF_AT_LN2_99 = 0.23676038729121193  # same at r = -ln(2)/99


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestW0:
    def test_zero_is_exact(self):
        assert w0(0.0) == 0.0

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

    def test_ceiling_at_minus_one(self):
        for k in range(400):
            z = -INV_E * (1.0 - 10.0 ** (-16 + 14 * k / 399))
            assert wm1(z) <= -1.0


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
        assert branch_difference_from_log_ratio(0.0) == 0.0

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
    def test_series_and_direct_agree_at_seam(self, q):
        z = (q - 1.0) / math.e
        direct = w0(z) - wm1(z)
        assert rel_err(branch_difference_from_log_ratio(math.log1p(-q)), direct) < 1e-9

    def test_matches_direct_subtraction_midrange(self):
        # direct subtraction is still fine for moderate r; both paths agree
        # over the whole working range down to the series cutoff
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


class TestWm1FromLog:
    @pytest.mark.parametrize("m", [-1.0, -1.0 - 1e-9, -1.5, -5.0, -40.0, -689.0])
    def test_matches_mpmath_above_log_form_cut(self, m):
        # solved in m itself: wm1(-exp(m)) would lose q = -expm1(m + 1) to
        # the rounding of z, 11 000 ulps at m = -1 - 1e-9
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = mp.lambertw(-mp.exp(mp.mpf(m)), -1).real
            assert float(abs(wm1_from_log(m) - want)) <= 2.0 * math.ulp(want)

    def test_continuous_across_log_form_cut(self):
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
