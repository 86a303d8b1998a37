import math
import random
import sys
import types
from fractions import Fraction

import pytest
from conftest import R_LOG_FORM, mp_branches, rel_err

from gammabw import bandwidth, oracle
from gammabw.bandwidth import GammaShapeSpec, ShapeScale, fwym, mode
from gammabw.gamma2 import cdf_a2, median_a2
from gammabw.lambertw import Branch
from gammabw.oracle import (
    BracketError,
    oracle_crossings,
    oracle_lambert_w,
    oracle_median_a2,
    oracle_offsets,
)

INV_E = 1.0 / math.e

# Regression anchors recorded from this oracle and cross-checked against a
# 60-digit evaluation.
XLOW_A3_B2_HALF = 1.522480458708806
XHIGH_A3_B2_HALF = 8.311841800401812
XLOW_A2_B1_HALF = 0.23196095298653444
XHIGH_A2_B1_HALF = 2.6783469900166605
MEDIAN_B1 = 1.6783469900166605


def series_terms(n):
    """[c_0, ..., c_n], the exact coefficients of the root u = sum c_k p**k
    of u - log1p(u) = p**2/2 with the sign of p, by reversion: the p**(k+1)
    coefficient of u**2/2 - u**3/3 + ... - p**2/2 is c_k plus terms in
    c_1 .. c_(k-1), so each c_k is minus the rest of it."""

    def times(f, g):
        h = [Fraction(0)] * (n + 2)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g[: n + 2 - i]):
                h[i + j] += fi * gj
        return h

    c = [Fraction(0), Fraction(1)]
    for k in range(2, n + 1):
        c.append(Fraction(0))
        power, rest = c, Fraction(0)
        for j in range(2, k + 2):
            power = times(power, c)
            rest += (-1) ** j * power[k + 1] / j
        c[k] = -rest
    return c


class TestStartSeries:
    """The oracle starts from the series of its own roots, derived here in
    exact rationals, as is the odd part that _asymptotic_error takes; the
    two modules keep separate copies, so validator and validated share no
    code."""

    def test_reversion_solves_the_level_equation(self):
        terms = series_terms(12)
        assert terms[:5] == [0, 1, Fraction(1, 3), Fraction(1, 36), Fraction(-1, 270)]
        for p in (0.05, -0.05):
            u = math.fsum(float(c) * p**k for k, c in enumerate(terms))
            assert abs(-oracle._log1pmx(u) - p * p / 2.0) <= 1e-17

    def test_start_constants_are_the_nearest_doubles(self):
        # the coefficient of p is 1, and the start adds p itself
        terms = series_terms(8)
        assert terms[1] == 1
        assert oracle._SERIES == tuple(float(c) for c in terms[2:])

    def test_asymptotic_error_takes_the_odd_terms(self):
        terms = series_terms(5)
        assert (terms[3], terms[5]) == (Fraction(1, 36), Fraction(1, 4320))
        c3, c5 = float(terms[3]), float(terms[5])
        for a in (1.5, 10.0, 1e4, 1e8):
            p2 = 2.0 * math.log(2.0) / (a - 1.0)
            want = math.expm1(-0.5 * math.log1p(-1.0 / a) - math.log1p(p2 * (c3 + p2 * c5)))
            assert rel_err(bandwidth._asymptotic_error(a), want) <= 1e-14, a


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

    def test_principal_branch_correctly_rounded_to_half_branch_point(self):
        # the double nearest the root, here on [-1/(2e), 0): z uniform,
        # -z log-uniform down to the subnormals, and the edges
        mp = pytest.importorskip("mpmath")
        rng = random.Random(23)
        edge = -0.5 * INV_E
        zs = [edge * (1.0 - rng.random()) for _ in range(500)]
        zs += [-math.exp(rng.uniform(math.log(5e-324), math.log(-edge))) for _ in range(500)]
        zs += [edge, math.nextafter(edge, 0.0), -5e-324, -2.2250738585072014e-308]
        with mp.workdps(50):
            for z in zs:
                want = mp.lambertw(z, 0).real
                ulps = abs(oracle_lambert_w(z, Branch.PRINCIPAL) - want) / math.ulp(float(want))
                assert ulps <= 0.5, f"z={z!r}: {float(ulps):.2f} ulps"

    def test_both_branches_correctly_rounded_in_every_region(self):
        # q = 1 + e*z log-uniform down to 1e-16 and the 8 doubles above
        # -1/e, where u*exp(u) - z goes flat; q in [1/2, 1); -z log-uniform
        # down to the subnormals; z > 0 up to the largest double; and
        # subnormal z
        mp = pytest.importorskip("mpmath")
        rng = random.Random(31)
        zs = [(math.exp(rng.uniform(math.log(1e-16), math.log(0.5))) - 1.0) / math.e for _ in range(300)]
        zs += [(rng.uniform(0.5, 1.0) - 1.0) / math.e for _ in range(100)]
        zs += [-math.exp(rng.uniform(math.log(5e-324), math.log(0.5 * INV_E))) for _ in range(100)]
        zs += [math.exp(rng.uniform(math.log(5e-324), math.log(sys.float_info.max))) for _ in range(150)]
        zs += [rng.uniform(0.0, 10.0) for _ in range(50)]
        z = -0.3678794411714423  # the double next above -1/e
        for _ in range(8):
            zs.append(z)
            z = math.nextafter(z, 0.0)
        zs += [-5e-324, -1e-310, 5e-324, 1e-310, sys.float_info.max]
        with mp.workdps(50):
            for z in zs:
                for branch in Branch if z < 0.0 else [Branch.PRINCIPAL]:
                    want = mp.lambertw(z, branch.value).real
                    ulps = abs(oracle_lambert_w(z, branch) - want) / math.ulp(float(want))
                    assert ulps <= 0.5, f"z={z!r}, {branch}: {float(ulps):.2f} ulps"


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
        # the high crossing m + m*u overflows; the offsets do not depend
        # on b, so their search is as short as at b = 1, and at most one
        # log is taken per level evaluation
        logs = []
        counting = types.SimpleNamespace(**vars(math))
        counting.log = lambda x: logs.append(x) or math.log(x)
        counting.log1p = lambda x: logs.append(x) or math.log1p(x)
        monkeypatch.setattr(oracle, "math", counting)
        with pytest.raises(BracketError):
            oracle_crossings(GammaShapeSpec(ShapeScale(2.0, 1e308)), 0.5)
        assert len(logs) <= 2100


def offset_cuts(n, seed):
    """n seeded (a, b, y): a - 1 log-uniform in [1e-9, 1e6], q = 1 - y**(1/(a-1))
    log-uniform in [1e-14, 1); the level next below 1 at a spread of shapes;
    and cuts on the kernel's log form, where ln(y)/(a-1) - 1 < -690."""
    rng = random.Random(seed)
    below_one = math.nextafter(1.0, 0.0)
    cuts = [(3.0, 2.0, below_one), (1000.0, 1.0, below_one), (1e6, 1.0, below_one)]
    cuts += [(1.0 + 1e-9, 1.0, below_one), (3.0, 2.0, 0.9999999999)]
    while len(cuts) < n:
        a = 1.0 + math.exp(rng.uniform(math.log(1e-9), math.log(1e6)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        kind = rng.random()
        if kind < 0.8:
            q = math.exp(rng.uniform(math.log(1e-14), 0.0))
            y = math.exp((a - 1.0) * math.log1p(-q))
        elif kind < 0.9:
            y = below_one
        else:
            a = 1.0 + math.exp(rng.uniform(math.log(1e-9), math.log(1e-3)))
            y = math.exp(rng.uniform(-745.0, (R_LOG_FORM - 1.0) * (a - 1.0)))
        if 0.0 < y < 1.0:
            cuts.append((a, b, y))
    return cuts


def mode_shifted(a, b):
    params = ShapeScale(a, b)
    return GammaShapeSpec(params, s=mode(params))


def series_seam_cuts():
    """(a, 1, y) with p at the oracle's series bound and at p*(1 +- 1e-12),
    so that the cuts fall on both sides of it, over a spread of shapes; from
    a = 1.001 on the rounding of y moves p by less than 1e-14 relative."""
    cuts = []
    for a in (1.001, 1.01, 1.5, 3.0, 11.0, 101.0, 350.0):
        for k in (-1e-12, 0.0, 1e-12):
            p = oracle._SERIES_P_MAX * (1.0 + k)
            cuts.append((a, 1.0, math.exp(-0.5 * p * p * (a - 1.0))))
    # p as oracle_offsets forms it
    sides = [math.sqrt(-2.0 * math.log(y)) / math.sqrt(a - 1.0) < oracle._SERIES_P_MAX for a, _, y in cuts]
    assert sides[0::3] == [True] * 7 and sides[2::3] == [False] * 7
    return cuts


class TestOffsetForm:
    """The crossings in the offset form, shifted by the mode, against mpmath."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_widths_and_offsets_within_1e14(self, seed):
        mp = pytest.importorskip("mpmath")
        for a, b, y in offset_cuts(200, seed):
            lo, hi = oracle_crossings(mode_shifted(a, b), y)
            with mp.workdps(60):
                m, w_lo, w_hi = mp_branches(mp, a, b, y)
                width, d_lo, d_hi = m * (w_lo - w_hi), -m * (1 + w_lo), -m * (1 + w_hi)
                assert float(abs((hi - lo) - width) / width) <= 1e-14, (a, b, y)
                assert float(abs((lo - d_lo) / d_lo)) <= 1e-14, (a, b, y)
                assert float(abs((hi - d_hi) / d_hi)) <= 1e-14, (a, b, y)

    def test_every_offset_is_certified(self, monkeypatch):
        # the exact level changes sign within _CERT_ULPS ulps of each offset
        mp = pytest.importorskip("mpmath")
        found = []
        solve = oracle._offset

        def recording(a1, log_y, start, *args):
            u = solve(a1, log_y, start, *args)
            found.append((a1, log_y, start, u))
            return u

        monkeypatch.setattr(oracle, "_offset", recording)
        cuts = offset_cuts(200, seed=3) + series_seam_cuts()
        for a, b, y in cuts:
            oracle_crossings(mode_shifted(a, b), y)
        assert len(found) == 2 * len(cuts)
        # each search starts inside its bracket, above -1 on the left
        assert all(start > -1.0 for _, _, start, _ in found)

        def positive(a1, log_y, v):
            if v <= -1.0:
                return False
            with mp.workdps(80):
                v = mp.mpf(v)
                return mp.mpf(a1) * (mp.log1p(v) - v) - mp.mpf(log_y) > 0

        for a1, log_y, _, u in found:
            e = oracle._CERT_ULPS * math.ulp(u)
            assert positive(a1, log_y, u - e) != positive(a1, log_y, u + e), (a1, log_y, u)

    def test_evaluation_budget(self, count_calls):
        # each evaluation of the level takes one log1p(u) - u
        cuts = offset_cuts(500, seed=4)
        counts = count_calls([oracle], ["_log1pmx"])
        for a, _, y in cuts:
            before = counts["_log1pmx"]
            u_low, _ = oracle_offsets(a, y)
            used = counts["_log1pmx"] - before
            # at least one Newton step and the certificate's two per offset,
            # but for a low offset of -1, whose bracket holds no double; at
            # most 12, the worst seen here (13 from the quadratic starts)
            assert 5 + (u_low > -1.0) <= used <= 12, (a, y, used)
        assert counts["_log1pmx"] >= 6 * len(cuts)

    def test_mean_evaluations_on_verify_cuts(self, count_calls):
        # cuts drawn like `fwhm --verify`'s benchmark: a log-uniform in
        # [1.01, 1e3], y one of its five levels; 6.62 evaluations per cut
        # measured (12.05 from the quadratic starts), and 6 is the floor
        rng = random.Random(1)
        levels = (0.5, 1.0 / math.sqrt(2.0), 1.0 / math.e, 0.25, 0.1)
        cuts = [(math.exp(rng.uniform(math.log(1.01), math.log(1e3))), rng.choice(levels)) for _ in range(4000)]
        counts = count_calls([oracle], ["_log1pmx"])
        for a, y in cuts:
            oracle_offsets(a, y)
        assert counts["_log1pmx"] <= 6.7 * len(cuts)

    @pytest.mark.parametrize("u", [-0.9, -0.25 - 2**-54, -0.25, -1e-3, 0.0, 1e-8, 0.25, 3.0])
    def test_log1pmx_against_mpmath(self, u):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            want = mp.log1p(u) - u
        got = oracle._log1pmx(u)
        assert got == want == 0.0 or float(abs((got - want) / want)) <= 8 * 2.0**-53

    def test_log1pmx_at_minus_one(self):
        assert oracle._log1pmx(-1.0) == oracle._log1pmx(-1.5) == -math.inf


def unit_scale_spec(a):
    """The shape a at b = 1, shifted by its mode a - 1: the crossings are
    the mode times the offsets from it, with nothing added."""
    return GammaShapeSpec(ShapeScale(a, 1.0), s=a - 1.0)


class TestOracleOffsets:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_crossings_at_unit_scale_are_the_mode_times_the_offsets(self, seed):
        for a, _, y in offset_cuts(300, seed):
            u_low, u_high = oracle_offsets(a, y)
            assert u_low < 0.0 < u_high, (a, y)
            lo, hi = oracle_crossings(unit_scale_spec(a), y)
            a1 = a - 1.0
            assert (lo.hex(), hi.hex()) == ((a1 * u_low).hex(), (a1 * u_high).hex()), (a, y)

    @pytest.mark.parametrize(
        "a,y",
        # ShapeScale itself rejects a < 1
        [(1.0, 0.5), (1.0, 1e-300)]
        + [(2.0, y) for y in (0.0, -0.5, -0.0, 1.0, 1.5, math.inf, math.nan)],
    )
    def test_same_errors_as_crossings(self, a, y):
        with pytest.raises(ValueError) as offsets:
            oracle_offsets(a, y)
        with pytest.raises(ValueError) as crossings:
            oracle_crossings(unit_scale_spec(a), y)
        assert str(offsets.value) == str(crossings.value)


class TestOracleMedian:
    def test_anchor(self):
        assert oracle_median_a2(1.0) == MEDIAN_B1

    def test_scaling(self):
        assert oracle_median_a2(2.0) == 2.0 * MEDIAN_B1

    def test_cross_validates_closed_form(self):
        for b in (0.5, 1.0, 2.0, 3.0):
            assert abs(oracle_median_a2(b) - median_a2(b)) <= math.ulp(median_a2(b))

    def test_correctly_rounded(self):
        # the double nearest b times the root t of (1 + t)*exp(-t) = 1/2,
        # from the smallest subnormal b to the largest whose median is finite
        mp = pytest.importorskip("mpmath")
        rng = random.Random(37)
        bs = [math.exp(rng.uniform(math.log(5e-324), math.log(1.07e308))) for _ in range(40)]
        bs += [5e-324, 1e-320, sys.float_info.min, 1.0, 3.0, 1e308, 1.07e308]
        with mp.workdps(50):
            t = mp.findroot(lambda t: (1 + t) * mp.exp(-t) - mp.mpf(1) / 2, 1.678)
            for b in bs:
                want = t * b
                ulps = abs(oracle_median_a2(b) - want) / math.ulp(float(want))
                assert ulps <= 0.5, f"b={b!r}: {float(ulps):.2f} ulps"

    def test_domain_error(self):
        with pytest.raises(ValueError):
            oracle_median_a2(-1.0)

    @pytest.mark.parametrize(
        "b,message",
        [
            (math.inf, "scale parameter b must be finite, got inf"),
            (math.nan, "scale parameter b must be finite, got nan"),
            (0.0, "scale parameter b must be positive, got 0.0"),
            (-math.inf, "scale parameter b must be finite, got -inf"),
            (-0.0, "scale parameter b must be positive, got -0.0"),
            (-1.0, "scale parameter b must be positive, got -1.0"),
        ],
    )
    def test_scale_messages(self, b, message):
        # ShapeScale checks the scale, with cdf_a2's messages
        with pytest.raises(ValueError) as exc:
            oracle_median_a2(b)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as closed_form:
            cdf_a2(1.0, b)
        assert str(closed_form.value) == message

    @pytest.mark.parametrize("b", [5e307, 1e308, 1.07e308])
    def test_median_near_the_largest_double(self, b):
        # the bracket 10*b overflows; capped, it still holds the finite median
        assert abs(oracle_median_a2(b) - median_a2(b)) <= math.ulp(median_a2(b))

    @pytest.mark.parametrize("b", [1.08e308, 1.7e308])
    def test_overflowing_median_raises(self, b):
        with pytest.raises(ValueError, match="overflows double precision"):
            oracle_median_a2(b)
