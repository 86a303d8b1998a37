import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammabw import gamma2
from gammabw.gamma2 import cdf_a2, check_transform_identity, median_a2, quantile_a2
from gammabw.lambertw import Branch

# Frozen: bisection of the CDF against 1/2 cross-checked at 60 digits.
MEDIAN_B1 = 1.6783469900166605

P_GRID = (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999)
B_GRID = (0.5, 1.0, 2.0, 3.0)


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestCdf:
    def test_zero_at_origin(self):
        assert cdf_a2(0.0, 1.0) == 0.0
        assert cdf_a2(0.0, 0.25) == 0.0

    def test_saturates_at_one(self):
        assert cdf_a2(1e3, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert cdf_a2(1e3, 1.0) <= 1.0

    def test_value_at_scale(self):
        assert rel_err(cdf_a2(1.0, 1.0), 1.0 - 2.0 / math.e) < 1e-15

    def test_strictly_increasing(self):
        # up to ~30 scale units; further out the value saturates at 1.0
        xs = [10.0 ** (-6 + 7.6 * k / 99) for k in range(100)]
        vals = [cdf_a2(x, 1.3) for x in xs]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x,b", [(-0.1, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0)])
    def test_domain_errors(self, x, b):
        with pytest.raises(ValueError):
            cdf_a2(x, b)

    @pytest.mark.parametrize(
        "b,message",
        [
            (math.inf, "scale parameter b must be finite, got inf"),
            (math.nan, "scale parameter b must be finite, got nan"),
            (-2.0, "scale parameter b must be positive, got -2.0"),
        ],
    )
    def test_scale_messages(self, b, message):
        for call in (lambda: cdf_a2(1.0, b), lambda: quantile_a2(0.5, b)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("t,tol", [(1e-8, 1e-7), (1e-5, 1e-10), (1e-3, 1e-12)])
    def test_small_x_keeps_relative_accuracy(self, t, tol):
        # leading behaviour is (x/b)^2/2; the two O(t) pieces cancel at
        # eps*t absolute, so the relative floor is ~2*eps/t
        want = t * t / 2.0 - t**3 / 3.0 + t**4 / 8.0 - t**5 / 30.0
        assert rel_err(cdf_a2(t, 1.0), want) < tol


class TestQuantile:
    def test_inverts_cdf_example(self):
        # cdf_a2(b, b) = 1 - 2/e, so the quantile there is b
        for b in B_GRID:
            assert rel_err(quantile_a2(1.0 - 2.0 / math.e, b), b) < 1e-12

    def test_tiny_level_tends_to_zero(self):
        assert 0.0 < quantile_a2(1e-9, 1.0) < 1e-4

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_level_domain_errors(self, p):
        with pytest.raises(ValueError):
            quantile_a2(p, 1.0)

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("p", P_GRID)
    def test_round_trip_both_directions(self, p, b):
        x = quantile_a2(p, b)
        assert abs(cdf_a2(x, b) - p) <= 1e-11
        x0 = 0.8 * b if p < 0.5 else 3.0 * b
        assert rel_err(quantile_a2(cdf_a2(x0, b), b), x0) <= 1e-11

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_round_trip_random_levels(self, p):
        assert abs(cdf_a2(quantile_a2(p, 1.7), 1.7) - p) <= 1e-11

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows double precision"):
            quantile_a2(0.9, 1e308)

    @pytest.mark.parametrize("p", [1e-300, 1e-14, 1e-8, 1e-3, 0.5, 1.0 - 1e-15])
    def test_against_mpmath(self, p):
        # solved at q = p itself: forming z = (p - 1)/e instead lost p,
        # 4.0e-4 relative at p = 1e-14, and gave 0.0 at p = 1e-300
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50 + int(-math.log10(p))):  # (p - 1)/e keeps p's digits
            z = (mp.mpf(p) - 1) / mp.e
            want = float(-(1 + mp.lambertw(z, -1).real))
        assert abs(quantile_a2(p, 1.0) - want) <= 2.0 * math.ulp(want)


class TestMedian:
    def test_frozen_value(self):
        assert rel_err(median_a2(1.0), MEDIAN_B1) < 1e-13

    @pytest.mark.parametrize("b", B_GRID + (10.0,))
    def test_analytic_bound(self, b):
        # the median over b sits strictly between a - 1/3 and a at a = 2
        ratio = median_a2(b) / b
        assert 5.0 / 3.0 < ratio < 2.0

    @pytest.mark.parametrize("b", B_GRID + (10.0,))
    def test_scales_linearly(self, b):
        assert abs(median_a2(b) - b * median_a2(1.0)) <= 2.0 * math.ulp(1.0) * median_a2(b)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            median_a2(0.0)

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows double precision"):
            median_a2(1.7e308)

    def test_largest_scales_with_a_finite_median(self):
        for b in (5e307, 1e308, 1.07e308):
            assert 5.0 / 3.0 < median_a2(b) / b < 2.0


class TestTransformIdentity:
    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("p", P_GRID)
    def test_residual_below_contract(self, p, b):
        assert check_transform_identity(p, b) <= 1e-12

    def test_known_value_at_half(self):
        # both sides equal -Wm1(-1/(2e)) at p = 1/2, b = 1
        from gammabw.bandwidth import ShapeScale, inverse_pdf
        from gammabw.lambertw import Branch

        lhs = inverse_pdf(0.5 / math.e, ShapeScale(2.0, 1.0), Branch.SECONDARY)
        assert rel_err(lhs, 2.6783469900166605) < 1e-13

    @pytest.mark.parametrize("p,b", [(0.0, 1.0), (1.0, 1.0), (0.5, -1.0)])
    def test_domain_errors(self, p, b):
        with pytest.raises(ValueError):
            check_transform_identity(p, b)

    def test_branch_order_checked_without_assert(self, monkeypatch):
        # an explicit raise, not an assert, so it also holds under python -O
        def swapped(level, params, branch):
            return 1.0 if branch is Branch.SECONDARY else 2.0

        monkeypatch.setattr(gamma2, "inverse_pdf", swapped)
        with pytest.raises(ArithmeticError, match="out of order"):
            check_transform_identity(0.5, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_residual_random(self, p, b):
        # below p ~ 1e-4 the rounding of the complementary level 1 - p,
        # amplified by the quantile slope, pushes the residual past the
        # contract; the contract grid starts at p = 1e-3
        assert check_transform_identity(p, b) <= 1e-12
