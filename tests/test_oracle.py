import math
import types

import pytest

from gammabw import oracle
from gammabw.bandwidth import GammaShapeSpec, ShapeScale, fwym
from gammabw.gamma2 import median_a2
from gammabw.lambertw import Branch
from gammabw.oracle import BracketError, oracle_crossings, oracle_lambert_w, oracle_median_a2

INV_E = 1.0 / math.e

# Regression anchors recorded from this oracle and cross-checked against a
# 60-digit evaluation.
XLOW_A3_B2_HALF = 1.522480458708806
XHIGH_A3_B2_HALF = 8.311841800401812
XLOW_A2_B1_HALF = 0.23196095298653444
XHIGH_A2_B1_HALF = 2.6783469900166605
MEDIAN_B1 = 1.6783469900166605


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestOracleLambertW:
    def test_principal_at_e(self):
        assert rel_err(oracle_lambert_w(math.e, Branch.PRINCIPAL), 1.0) < 1e-13

    def test_secondary_at_half_branch_point(self):
        got = oracle_lambert_w(-0.5 * INV_E, Branch.SECONDARY)
        assert rel_err(got, -XHIGH_A2_B1_HALF) < 1e-13

    def test_branch_point_both_branches(self):
        assert oracle_lambert_w(-INV_E, Branch.PRINCIPAL) == pytest.approx(-1.0, abs=1e-7)
        assert oracle_lambert_w(-INV_E, Branch.SECONDARY) == pytest.approx(-1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "z,branch",
        [
            (-0.5, Branch.PRINCIPAL),
            (0.1, Branch.SECONDARY),
            (-0.0, Branch.SECONDARY),
            (-0.5, Branch.SECONDARY),
            (math.nan, Branch.PRINCIPAL),
        ],
    )
    def test_domain_errors(self, z, branch):
        with pytest.raises(ValueError):
            oracle_lambert_w(z, branch)

    def test_branch_must_be_enum_member(self):
        with pytest.raises(TypeError):
            oracle_lambert_w(0.5, 0)

    def test_residual_self_consistency(self):
        zs = [-INV_E * (1 - 10 ** (-6 + 5.9 * k / 39)) for k in range(40)]
        zs += [10 ** (-250 + 500 * k / 39) for k in range(40)]
        for z in zs:
            u = oracle_lambert_w(z, Branch.PRINCIPAL)
            assert abs(u * math.exp(u) - z) <= 1e-12 * abs(z)
            if z < 0.0:
                u = oracle_lambert_w(z, Branch.SECONDARY)
                assert abs(u * math.exp(u) - z) <= 1e-12 * abs(z)

    def test_tiny_secondary_argument(self):
        u = oracle_lambert_w(-1e-290, Branch.SECONDARY)
        assert abs(u * math.exp(u) - (-1e-290)) <= 1e-12 * 1e-290


class TestOracleCrossings:
    def test_anchor_a3_b2(self):
        lo, hi = oracle_crossings(GammaShapeSpec(ShapeScale(3.0, 2.0)), 0.5)
        assert rel_err(lo, XLOW_A3_B2_HALF) < 1e-10
        assert rel_err(hi, XHIGH_A3_B2_HALF) < 1e-10
        assert rel_err(hi - lo, 6.789361341693006) < 1e-10

    def test_anchor_a2_b1(self):
        lo, hi = oracle_crossings(GammaShapeSpec(ShapeScale(2.0, 1.0)), 0.5)
        assert rel_err(lo, XLOW_A2_B1_HALF) < 1e-10
        assert rel_err(hi, XHIGH_A2_B1_HALF) < 1e-10

    def test_amplitude_invariant_shift_covariant(self):
        base_lo, base_hi = oracle_crossings(GammaShapeSpec(ShapeScale(2.0, 1.0)), 0.5)
        lo, hi = oracle_crossings(
            GammaShapeSpec(ShapeScale(2.0, 1.0), K=5.0, s=2.0), 0.5
        )
        assert lo == pytest.approx(base_lo - 2.0, abs=1e-11)
        assert hi == pytest.approx(base_hi - 2.0, abs=1e-11)

    @pytest.mark.parametrize("y", [1.0, 1.5, 0.0, -0.1])
    def test_proportion_domain(self, y):
        with pytest.raises(ValueError):
            oracle_crossings(GammaShapeSpec(ShapeScale(2.0, 1.0)), y)

    def test_exponential_shape_rejected(self):
        with pytest.raises(ValueError):
            oracle_crossings(GammaShapeSpec(ShapeScale(1.0, 1.0)), 0.5)

    def test_agrees_with_analytic_path_spotwise(self):
        for a, b, y in ((1.2, 0.5, 0.9), (4.0, 3.0, 0.25), (300.0, 1.0, 0.5)):
            lo, hi = oracle_crossings(GammaShapeSpec(ShapeScale(a, b)), y)
            width = fwym(ShapeScale(a, b), y).width
            assert rel_err(hi - lo, width) < 1e-9

    def test_overflowing_bracket_raises_at_once(self, monkeypatch):
        # m + b overflows, so the level is NaN at the first upper bracket;
        # each level evaluation takes one log, and doubling from the
        # smallest scale reaches overflow in about 2 100 steps
        logs = []
        counting = types.SimpleNamespace(**vars(math))
        counting.log = lambda x: logs.append(x) or math.log(x)
        counting.log1p = lambda x: logs.append(x) or math.log1p(x)
        monkeypatch.setattr(oracle, "math", counting)
        with pytest.raises(BracketError):
            oracle_crossings(GammaShapeSpec(ShapeScale(2.0, 1e308)), 0.5)
        assert len(logs) <= 2100


class TestOracleMedian:
    def test_anchor(self):
        assert rel_err(oracle_median_a2(1.0), MEDIAN_B1) < 1e-12

    def test_scaling(self):
        assert rel_err(oracle_median_a2(2.0), 2.0 * MEDIAN_B1) < 1e-12

    def test_cross_validates_closed_form(self):
        for b in (0.5, 1.0, 2.0, 3.0):
            assert abs(oracle_median_a2(b) - median_a2(b)) <= 1e-11 * b

    def test_domain_error(self):
        with pytest.raises(ValueError):
            oracle_median_a2(-1.0)
