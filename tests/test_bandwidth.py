import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import Q_HALF, R_HALF, R_LOG_FORM, mp_cut, mp_inverse_pdf, rel_err, signed

from gammabw.bandwidth import (
    GammaShapeSpec,
    OctaveResult,
    ShapeScale,
    WidthResult,
    approx_proportional_error,
    fwhm,
    fwym,
    fwym_shifted,
    gamma_pdf,
    gamma_pdf_values,
    gamma_shaped,
    gaussian_comparison,
    gaussian_fwhm_approx,
    inverse_pdf,
    mode,
    octave_bandwidth,
)
from gammabw import bandwidth, lambertw
from gammabw.gamma2 import cdf_a2, quantile_a2
from gammabw.lambertw import Branch, branch_difference_from_log_ratio

# Frozen oracle values (double bisection cross-checked against a 60-digit
# evaluation; routes agree to a few 1e-16 relative).
WIDTH_A2_B1_HALF = 2.446386037030126
WIDTH_A3_B2_HALF = 6.789361341693006
XLOW_A3_B2_HALF = 1.522480458708806
XHIGH_A3_B2_HALF = 8.311841800401812
WIDTH_A2_B1_THIRD = 3.1480541735738363
OCTAVES_A2_HALF = 3.529389003723367
GAUSS_A2_B1 = 3.330218444630791
GAUSS_COEF = 2.3548200450309493  # 2*sqrt(2 ln 2)
APPROX_ERR_A2 = 0.3612808421166528
# 50-digit mpmath log2(Wm1/W0) at log-form cuts, where the low crossing is
# subnormal or 0 and the ratio high/low overflows: (a, y, octaves).
OCTAVES_LOG_FORM = (
    (1.0032739518672797, 0.1, 1025.5700586530441772),
    (1.0001, 0.5, 10014.203688753823235),
)
# Cuts within q = -expm1(ln(y)/(a-1)) < 1e-4 of the branch point, where a
# crossing formed as -mode*W would round W ~ -1 before its offset: (a, b, y).
NEAR_PEAK_CUTS = (
    (3.0, 1.0, 1.0 - 1e-5),
    (3.0, 2.0, 1.0 - 1e-10),
    (7.0, 1.5, 1.0 - 1e-12),
    (10.0, 0.5, 1.0 - 1e-8),
    (50.0, 1.0, 0.9995),
    (1000.0, 1.0, 1.0 - 1e-14),
    (3e4, 2.0, 0.5),
    (1e5, 1.0, 0.5),
    (1e6, 1.0, 0.1),
    (1e7, 0.01, 0.25),
    (1e9, 1.0, 0.5),
    (1e12, 3.0, 0.5),
)
# 50-digit mpmath low crossing of ShapeScale(1.5, 1e300) at y = 1e-300,
# where z = -exp(r - 1) underflows though the crossing does not.
XLOW_LOG_FORM = 1.8393972058572118e-301
# A cut at q = 0.14, where the polynomial in s gives both offsets: (a, y).
# Of 2 776 seeded cuts with q >= 1e-3 above the log form, an earlier solve
# had its worst width error, 2.3e-13 relative, here.
OFFSETS_CUT = (14.21175595577209, 0.13961872590267926)
# Inputs whose crossings or width overflow double precision: (a, b, y).
OVERFLOWING = ((2.0, 1e308, 0.5), (1e300, 1e300, 0.5), (1.0, 1e308, 1e-300))
# Library calls on the edge of double precision and what they give: a
# ValueError that names the overflow (None), or the value.
OVERFLOW_RULE = {
    "fwym_shifted": (
        lambda: fwym_shifted(GammaShapeSpec(ShapeScale(2.0, 1e307), s=-1.7e308), 0.5),
        None,
    ),
    "gamma_shaped_density": (
        lambda: gamma_shaped(999.0, GammaShapeSpec(ShapeScale(1000.0, 1.0))),
        None,
    ),
    "gamma_shaped_amplitude": (
        lambda: gamma_shaped(500.0, GammaShapeSpec(ShapeScale(6.0, 100.0), K=1e300)),
        None,
    ),
    "gamma_pdf_origin": (lambda: gamma_pdf(0.0, ShapeScale(1.0, 1e-310)), None),
    "gamma_pdf_values_origin": (
        lambda: gamma_pdf_values([1e-307, 0.0], ShapeScale(1.0, 1e-310)),
        None,
    ),
    # no 0 on the grid: every value is finite
    "gamma_pdf_values_no_origin": (
        lambda: gamma_pdf_values([1e-307], ShapeScale(1.0, 1e-310)),
        [5.075958897534425e-125],
    ),
    "inverse_pdf": (
        lambda: inverse_pdf(1e-320, ShapeScale(2.0, 1e308), Branch.SECONDARY),
        None,
    ),
    "mode": (lambda: mode(ShapeScale(1e300, 1e300)), None),
    "gaussian_fwhm_approx": (lambda: gaussian_fwhm_approx(ShapeScale(1e300, 1e300)), None),
    # x/b overflows; the limit of the cdf is 1
    "cdf_a2_large_x": (lambda: cdf_a2(1e308, 1e-10), 1.0),
    "cdf_a2_small_b": (lambda: cdf_a2(1e300, 1e-300), 1.0),
}


class TestShapeScale:
    @pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.999, 1.0), (2.0, 0.0), (2.0, -1.0), (math.nan, 1.0), (2.0, math.inf)])
    def test_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            ShapeScale(a, b)

    def test_accepts_boundary_shape(self):
        assert ShapeScale(1.0, 5.0).a == 1.0

    @pytest.mark.parametrize(
        "a,b,message",
        [
            (math.inf, 1.0, "shape parameter a must be finite, got inf"),
            (-math.inf, 1.0, "shape parameter a must be finite, got -inf"),
            (math.nan, 1.0, "shape parameter a must be finite, got nan"),
            (2.0, math.inf, "scale parameter b must be finite, got inf"),
            (2.0, math.nan, "scale parameter b must be finite, got nan"),
        ],
    )
    def test_nonfinite_parameters_must_be_finite(self, a, b, message):
        with pytest.raises(ValueError) as exc:
            ShapeScale(a, b)
        assert str(exc.value) == message


class TestGammaShapeSpec:
    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            GammaShapeSpec(ShapeScale(2.0, 1.0), K=0.0)

    def test_rejects_nonfinite_shift(self):
        with pytest.raises(ValueError):
            GammaShapeSpec(ShapeScale(2.0, 1.0), s=math.inf)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_nonfinite_amplitude_must_be_finite(self, K):
        with pytest.raises(ValueError) as exc:
            GammaShapeSpec(ShapeScale(2.0, 1.0), K=K)
        assert str(exc.value) == f"amplitude K must be finite, got {K!r}"


class TestMode:
    @pytest.mark.parametrize(
        "a,b,want", [(3.0, 2.0, 4.0), (1.0, 5.0, 0.0), (2.0, 1.0, 1.0)]
    )
    def test_values(self, a, b, want):
        assert mode(ShapeScale(a, b)) == want


class TestGammaPdf:
    def test_zero_at_origin_for_peaked_shapes(self):
        assert gamma_pdf(0.0, ShapeScale(3.0, 2.0)) == 0.0

    def test_origin_value_for_exponential(self):
        assert gamma_pdf(0.0, ShapeScale(1.0, 4.0)) == 0.25

    def test_peak_value(self):
        # (1/(Gamma(3)*2^3)) * 4^2 * exp(-2) = exp(-2)
        assert rel_err(gamma_pdf(4.0, ShapeScale(3.0, 2.0)), math.exp(-2.0)) < 1e-14

    def test_exponential_density(self):
        assert rel_err(gamma_pdf(1.0, ShapeScale(1.0, 1.0)), math.exp(-1.0)) < 1e-14

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            gamma_pdf(-0.1, ShapeScale(2.0, 1.0))

    @pytest.mark.parametrize("a,b", [(3.0, 2.0), (1.5, 0.7), (1.0, 2.0), (12.0, 0.3)])
    def test_normalization(self, a, b):
        # tanh-sinh quadrature over [0, mode + 60 b]; the clipped tail is
        # far below the quadrature tolerance and the endpoint singularity
        # of the derivative (a < 2) is handled by the node clustering
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(a, b)
        hi = mode(params) + 60.0 * b
        total = mp.quad(lambda x: gamma_pdf(float(x), params), [0.0, hi])
        assert abs(float(total) - 1.0) < 1e-8


    @pytest.mark.parametrize("params", [ShapeScale(1e306, 1.0), ShapeScale(2.5e305, 5e-324)])
    def test_overflowing_normaliser_raises(self, params):
        # lgamma(1e306), and a*ln(b) at b = 5e-324, overflow double precision
        with pytest.raises(ValueError, match="normaliser"):
            gamma_pdf(1.0, params)
        with pytest.raises(ValueError, match="normaliser"):
            gamma_pdf_values([0.0, 1.0], params)
        assert gamma_pdf(0.0, params) == 0.0
        assert gamma_pdf_values([0.0, -0.0], params) == [0.0, 0.0]
        # per x, in order: a bad x, the value at the origin, then the
        # normaliser's overflow at the first x > 0
        with pytest.raises(ValueError, match=r"^gamma_pdf needs finite x >= 0, got -1\.0$"):
            gamma_pdf_values([0.0, -1.0, 1.0], params)
        with pytest.raises(ValueError, match=r"^normaliser of the gamma density of "):
            gamma_pdf_values([1.0, -1.0], params)

    def test_overflowing_normaliser_in_inverse_pdf(self):
        # inverse_pdf takes no normaliser: ln p_max = -ln(2*pi*n)/2 -
        # stirlerr(n) - ln b, so p_max is about 3.99e-154 here
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(1e306, 1.0)
        with pytest.raises(ValueError, match=r"exceeds the maximum 3\.989422804014\d*e-154 "):
            inverse_pdf(1e-10, params, Branch.PRINCIPAL)
        for branch in Branch:
            with mp.workdps(50):
                want = mp_inverse_pdf(mp, 1e-160, params, branch)
                assert float(abs(inverse_pdf(1e-160, params, branch) - want) / want) <= 2.5e-16

    def test_overflowing_density_raises(self):
        params = ShapeScale(1.0, 5e-324)
        with pytest.raises(ValueError, match="overflows"):
            gamma_pdf(1e-323, params)
        with pytest.raises(ValueError, match="overflows"):
            gamma_pdf_values([0.0, 1e-323], params)

    @pytest.mark.parametrize(
        "x,params,overflows",
        [
            (1.7e308, ShapeScale(2.55e305, 0.5), False),
            (1.7e308, ShapeScale(2.55e305, 1.0), False),
            (1.7e308, ShapeScale(2.55e305, 1e300), False),
            (sys.float_info.max, ShapeScale(2.55e305, 1.0), False),
            (2e-310, ShapeScale(3.0, 1e-310), True),
        ],
    )
    def test_density_against_mpmath_log_density(self, x, params, overflows):
        # (a - 1)*ln(x) overflows at a = 2.55e305 and x near DBL_MAX, though
        # lgamma(a) does not: the exponent is then inf or inf - inf = NaN,
        # but the density underflows to 0. A density that does overflow
        # still raises.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            a, b, t = mp.mpf(params.a), mp.mpf(params.b), mp.mpf(x)
            log_p = float((a - 1) * mp.log(t) - t / b - mp.loggamma(a) - a * mp.log(b))
        if overflows:
            assert log_p > math.log(sys.float_info.max)
            with pytest.raises(ValueError, match="overflows"):
                gamma_pdf(x, params)
        else:
            assert log_p < math.log(5e-324) - 1.0
            assert gamma_pdf(x, params) == 0.0
            assert gamma_pdf_values([1.0, x], params) == [0.0, 0.0]


def reference_pdf(x, params):
    """The density one point at a time, taking lgamma(a) and a*ln(b) anew."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"gamma_pdf needs finite x >= 0, got {x!r}")
    a, b = params.a, params.b
    if x == 0.0:
        return 1.0 / b if a == 1.0 else 0.0
    return math.exp((a - 1.0) * math.log(x) - x / b - math.lgamma(a) - a * math.log(b))


def seeded_density_grids(seed):
    """(params, xs) over a = 1 to 1e6 and b = 1e-300 to 1e300, each grid
    from x = 0 past the far tail, evenly spaced and at random."""
    rng = random.Random(seed)
    shapes = [1.0, 1.0 + 2.0**-40, 1.5, 2.0, 37.5, 1e3, 1e6]
    shapes += [math.exp(rng.uniform(0.0, math.log(1e6))) for _ in range(6)]
    scales = [1e-300, 1e-30, 1.0, 1e30, 1e300]
    scales += [math.exp(rng.uniform(math.log(1e-300), math.log(1e300))) for _ in range(6)]
    for a in shapes:
        for b in scales:
            params = ShapeScale(a, b)
            span = mode(params) + 40.0 * b * math.sqrt(a)
            xs = [span * (i / 16) for i in range(17)]
            xs += [span * rng.random() for _ in range(24)]
            xs += [b * 10.0 ** rng.uniform(-12.0, 0.0) for _ in range(8)]
            yield params, xs


class TestGammaPdfValues:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_pointwise(self, seed):
        for params, xs in seeded_density_grids(seed):
            got = [v.hex() for v in gamma_pdf_values(xs, params)]
            assert got == [gamma_pdf(x, params).hex() for x in xs]
            assert got == [reference_pdf(x, params).hex() for x in xs]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_point_grid_is_gamma_pdf(self, seed):
        # gamma_pdf(x) is the one-point grid, value by value and error by
        # error; ShapeScale(1e306, 1) overflows the normaliser
        def outcome(call):
            try:
                return call().hex()
            except ValueError as exc:
                return str(exc)

        edges = [-0.0, -1.0, -5e-324, math.inf, -math.inf, math.nan]
        for params, xs in seeded_density_grids(seed):
            for p in (params, ShapeScale(1e306, 1.0)):
                for x in xs + edges:
                    want = outcome(lambda: gamma_pdf(x, p))
                    assert outcome(lambda: gamma_pdf_values([x], p)[0]) == want

    def test_origin_and_short_grids(self):
        assert gamma_pdf_values([], ShapeScale(2.0, 1.0)) == []
        assert gamma_pdf_values((0.0, -0.0), ShapeScale(1.0, 4.0)) == [0.25, 0.25]
        assert gamma_pdf_values([0.0], ShapeScale(3.0, 2.0)) == [0.0]
        assert gamma_pdf_values((4.0,), ShapeScale(3.0, 2.0)) == [gamma_pdf(4.0, ShapeScale(3.0, 2.0))]

    def test_grid_whose_sum_overflows(self):
        params = ShapeScale(1e6, 1e300)
        xs = [0.0, 1e306, 1.7e308, 1.7e308]
        assert gamma_pdf_values(xs, params) == [reference_pdf(x, params) for x in xs]

    @pytest.mark.parametrize("bad", [-0.1, -math.inf, math.nan, math.inf, -5e-324])
    @pytest.mark.parametrize("at", [0, 7, 16])
    def test_rejects_like_gamma_pdf(self, bad, at):
        params = ShapeScale(3.0, 2.0)
        xs = [0.5 * i for i in range(17)]
        xs[at] = bad
        with pytest.raises(ValueError) as want:
            gamma_pdf(bad, params)
        with pytest.raises(ValueError) as got:
            gamma_pdf_values(xs, params)
        assert str(got.value) == str(want.value)

    def test_reports_the_first_rejected_x(self):
        with pytest.raises(ValueError, match=r"got -2\.0"):
            gamma_pdf_values([1.0, -2.0, math.nan, -3.0], ShapeScale(2.0, 1.0))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_iterator_grid_reads_once(self, seed):
        # a generator gives the values of the list, each x read once
        for params, xs in seeded_density_grids(seed):
            want = [v.hex() for v in gamma_pdf_values(xs, params)]
            assert [v.hex() for v in gamma_pdf_values((x for x in xs), params)] == want
        assert gamma_pdf_values((x for x in [1.0, 2.0]), ShapeScale(3.0, 2.0)) == [
            gamma_pdf(1.0, ShapeScale(3.0, 2.0)),
            gamma_pdf(2.0, ShapeScale(3.0, 2.0)),
        ]


class TestGammaShaped:
    def test_direct_value(self):
        spec = GammaShapeSpec(ShapeScale(3.0, 2.0))
        assert rel_err(gamma_shaped(4.0, spec), 16.0 * math.exp(-2.0)) < 1e-14

    def test_shift_moves_the_argument(self):
        base = GammaShapeSpec(ShapeScale(3.0, 2.0))
        moved = GammaShapeSpec(ShapeScale(3.0, 2.0), s=1.0)
        assert gamma_shaped(3.0, moved) == gamma_shaped(4.0, base)

    def test_linear_in_amplitude(self):
        base = GammaShapeSpec(ShapeScale(3.0, 2.0))
        scaled = GammaShapeSpec(ShapeScale(3.0, 2.0), K=2.5)
        assert gamma_shaped(4.0, scaled) == 2.5 * gamma_shaped(4.0, base)

    def test_matches_pdf_with_normalizing_amplitude(self):
        params = ShapeScale(3.0, 2.0)
        k = 1.0 / (math.exp(math.lgamma(3.0)) * 2.0**3)
        spec = GammaShapeSpec(params, K=k)
        for x in (0.5, 2.0, 4.0, 9.0):
            assert rel_err(gamma_shaped(x, spec), gamma_pdf(x, params)) < 1e-13

    def test_domain_error_left_of_shift(self):
        with pytest.raises(ValueError):
            gamma_shaped(-1.5, GammaShapeSpec(ShapeScale(2.0, 1.0), s=1.0))

    def test_far_tail_underflows_to_zero(self):
        assert gamma_shaped(1e300, GammaShapeSpec(ShapeScale(3.0, 2.0))) == 0.0

    def test_value_at_the_shifted_origin(self):
        # x + s == 0: the exponential shape is K there, a peaked one 0
        assert gamma_shaped(-2.0, GammaShapeSpec(ShapeScale(1.0, 3.0), K=2.5, s=2.0)) == 2.5
        assert gamma_shaped(-2.0, GammaShapeSpec(ShapeScale(3.0, 3.0), K=2.5, s=2.0)) == 0.0

    @pytest.mark.parametrize(
        "x,a,K",
        [
            (199.0, 200.0, 1e-300),  # exp(e) overflows, the value is 1.1e71
            (1000.0, 3.0, 1e300),  # exp(e) underflows to 0, the value is 5.1e-129
            (735.0, 3.0, 1e200),  # exp(e) is a subnormal of 9 digits
        ],
    )
    def test_amplitude_rescues_the_exponential_against_mpmath(self, x, a, K):
        # |e| = |(a-1)*ln(x) - x/b| is 700 to 1000 here, and its rounding
        # sets the floor of the error: 8.1e-14 at worst on these cuts
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = mp.mpf(K) * mp.mpf(x) ** (mp.mpf(a) - 1) * mp.exp(-mp.mpf(x))
            got = gamma_shaped(x, GammaShapeSpec(ShapeScale(a, 1.0), K=K))
            assert float(abs(got - want) / want) < 1e-13


class TestInversePdf:
    @pytest.mark.parametrize(
        "p,message",
        [
            (math.inf, "density level must be finite, got inf"),
            (math.nan, "density level must be finite, got nan"),
            (0.0, "density level must be positive, got 0.0"),
        ],
    )
    def test_bad_level_messages(self, p, message):
        with pytest.raises(ValueError) as exc:
            inverse_pdf(p, ShapeScale(3.0, 2.0), Branch.PRINCIPAL)
        assert str(exc.value) == message

    def test_both_branches_meet_at_the_peak(self):
        params = ShapeScale(3.0, 2.0)
        p_max = gamma_pdf(4.0, params)
        lo = inverse_pdf(p_max, params, Branch.PRINCIPAL)
        hi = inverse_pdf(p_max, params, Branch.SECONDARY)
        assert lo == pytest.approx(4.0, rel=1e-6)
        assert hi == pytest.approx(4.0, rel=1e-6)

    def test_round_trip_below_mode(self):
        params = ShapeScale(3.0, 2.0)
        p = gamma_pdf(1.0, params)
        assert rel_err(inverse_pdf(p, params, Branch.PRINCIPAL), 1.0) < 1e-12

    def test_round_trip_above_mode(self):
        params = ShapeScale(3.0, 2.0)
        p = gamma_pdf(9.0, params)
        assert rel_err(inverse_pdf(p, params, Branch.SECONDARY), 9.0) < 1e-12

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_round_trip_grid(self, a, b):
        params = ShapeScale(a, b)
        m = mode(params)
        for frac in (1e-3, 0.1, 0.5, 0.9):
            x = frac * m
            got = inverse_pdf(gamma_pdf(x, params), params, Branch.PRINCIPAL)
            assert rel_err(got, x) < 1e-9
        for frac in (1.1, 1.5, 3.0, 8.0):
            x = frac * m
            got = inverse_pdf(gamma_pdf(x, params), params, Branch.SECONDARY)
            assert rel_err(got, x) < 1e-9

    def test_density_round_trip(self):
        params = ShapeScale(5.0, 1.3)
        p_max = gamma_pdf(mode(params), params)
        for frac in (1e-6, 1e-3, 0.2, 0.7, 0.999):
            p = frac * p_max
            for branch in Branch:
                x = inverse_pdf(p, params, branch)
                assert rel_err(gamma_pdf(x, params), p) < 1e-10

    def test_level_above_maximum_rejected(self):
        params = ShapeScale(3.0, 2.0)
        p_max = gamma_pdf(4.0, params)
        with pytest.raises(ValueError):
            inverse_pdf(p_max * (1.0 + 1e-9), params, Branch.PRINCIPAL)

    def test_level_marginally_above_maximum_clamps(self):
        params = ShapeScale(3.0, 2.0)
        p_max = gamma_pdf(4.0, params)
        x = inverse_pdf(p_max * (1.0 + 1e-13), params, Branch.SECONDARY)
        assert x == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    def test_bad_levels_rejected(self, p):
        with pytest.raises(ValueError):
            inverse_pdf(p, ShapeScale(3.0, 2.0), Branch.PRINCIPAL)

    def test_exponential_shape_rejected(self):
        with pytest.raises(ValueError):
            inverse_pdf(0.1, ShapeScale(1.0, 1.0), Branch.PRINCIPAL)

    def test_level_above_a_mode_that_underflows(self):
        # (a-1)*b is 0, while the maximum is about 1/b: no crossing is
        # representable on either side of a mode at 0
        for branch in Branch:
            with pytest.raises(ValueError, match=r"^mode of .* underflows double precision$"):
                inverse_pdf(1e-300, ShapeScale(1.0 + 2.0**-52, 5e-324), branch)

    def test_level_beside_a_mode_that_overflows(self):
        # (a-1)*b is 1e600: mode() raises its own error, which names the mode
        for branch in Branch:
            with pytest.raises(ValueError, match=r"^mode of .* overflows double precision$"):
                inverse_pdf(1e-300, ShapeScale(1e300, 1e300), branch)

    @pytest.mark.parametrize("p", [1e300, 1.0])
    def test_levels_below_a_maximum_that_overflows(self, p):
        # p_max is about 3.7e309, above every finite level, and both
        # crossings are representable; the low one is subnormal or 0
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(2.0, 1e-310)
        with mp.workdps(50):
            lo = float(mp_inverse_pdf(mp, p, params, Branch.PRINCIPAL))
            hi = float(mp_inverse_pdf(mp, p, params, Branch.SECONDARY))
        assert abs(inverse_pdf(p, params, Branch.PRINCIPAL) - lo) <= math.ulp(0.0)
        assert rel_err(inverse_pdf(p, params, Branch.SECONDARY), hi) <= 1e-15

    @pytest.mark.parametrize("a", [3e20, 1e50])
    def test_huge_shape_answers_only_levels_below_its_maximum(self, a):
        # p_max is about 1/(3*sqrt(2*pi*a)), far below 1, from terms that
        # do not cancel: 1 is above it and 1e-30 below
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(a, 3.0)
        for branch in Branch:
            with pytest.raises(ValueError, match="exceeds the maximum"):
                inverse_pdf(1.0, params, branch)
            with mp.workdps(50):
                want = mp_inverse_pdf(mp, 1e-30, params, branch)
                assert float(abs(inverse_pdf(1e-30, params, branch) - want) / want) <= 2.5e-16

    @pytest.mark.parametrize(
        "a,b,p",
        [
            (2.635049670822412e89, 1.389e-320, 4.3562990121086776e-242),
            (1e19, 0.7, 1e-30),
            (1e18, 3.0, 1e-30),
            (1e18, 0.7, 1e-30),
        ],
    )
    def test_huge_shapes_against_mpmath(self, a, b, p):
        # ln p_max formed from terms near a*ln(a) lost the level to their
        # rounding here: a wrong crossing, a rejected level, an overflow,
        # or the mode itself where the crossings lie about 1e-8 relative off it
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(a, b)
        m = mode(params)
        for branch in Branch:
            x = inverse_pdf(p, params, branch)
            with mp.workdps(50):
                want = mp_inverse_pdf(mp, p, params, branch)
                assert float(abs(x - want) / want) <= 2.5e-16, branch
            if abs(float(want) - m) > math.ulp(m):
                # the crossing lies off the mode, and so does the result
                assert (x < m) if branch is Branch.PRINCIPAL else (x > m), branch

    def test_branch_must_be_enum_member(self):
        with pytest.raises(TypeError):
            inverse_pdf(0.1, ShapeScale(3.0, 2.0), "principal")
        # checked before the shape and the level
        with pytest.raises(TypeError):
            inverse_pdf(math.nan, ShapeScale(1.0, 2.0), -1)

    def test_principal_branch_where_its_argument_underflows(self):
        # t = ln(p/p_max)/(a-1) - 1 is about -788: exp(t) underflows, and
        # the low crossing takes the log form exp(t + ln(mode))
        mp = pytest.importorskip("mpmath")
        p, params = math.exp(-691.57), ShapeScale(1.001, 1e300)
        x = inverse_pdf(p, params, Branch.PRINCIPAL)
        with mp.workdps(50):
            want = float(mp_inverse_pdf(mp, p, params, Branch.PRINCIPAL))
        assert want == pytest.approx(5.185917564557291e-46, rel=1e-15)
        # the rounding of t, about 1e-13 absolute, bounds the relative error
        assert rel_err(x, want) < 1e-10

    @pytest.mark.parametrize("a,b", [(3.0, 2.0), (5.0, 1.3), (1.5, 3.0)])
    def test_levels_within_1e12_of_the_maximum(self, a, b):
        # r = ln(p/p_max)/(a-1) of order -1e-12/(a-1) is solved as given;
        # its rounding in log space, not the solve, bounds the error of the
        # offset from the mode
        mp = pytest.importorskip("mpmath")
        params = ShapeScale(a, b)
        m = mode(params)
        p_max = gamma_pdf(m, params)
        for frac in (1.0 - 1e-12, 1.0 - 5e-13):
            for branch in Branch:
                x = inverse_pdf(frac * p_max, params, branch)
                with mp.workdps(50):
                    want = float(mp_inverse_pdf(mp, frac * p_max, params, branch))
                assert (x < m) == (want < m) == (branch is Branch.PRINCIPAL)
                assert abs(x - want) <= 2e-3 * abs(want - m), f"{frac!r}, {branch}"

    def test_secondary_branch_at_extreme_levels(self):
        # the W argument underflows here; the log-form solve takes over
        params = ShapeScale(1.0001, 1.0)
        x = inverse_pdf(1e-300, params, Branch.SECONDARY)
        assert x > mode(params)
        assert rel_err(gamma_pdf(x, params), 1e-300) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=1.0))
    def test_branch_ordering(self, frac):
        params = ShapeScale(2.5, 1.7)
        m = mode(params)
        p = frac * gamma_pdf(m, params)
        assert (
            inverse_pdf(p, params, Branch.PRINCIPAL)
            <= m
            <= inverse_pdf(p, params, Branch.SECONDARY)
        )


class TestFwym:
    def test_frozen_width_a2(self):
        assert rel_err(fwym(ShapeScale(2.0, 1.0), 0.5).width, WIDTH_A2_B1_HALF) < 1e-13

    def test_frozen_result_a3(self):
        res = fwym(ShapeScale(3.0, 2.0), 0.5)
        assert rel_err(res.width, WIDTH_A3_B2_HALF) < 1e-13
        assert rel_err(res.x_low, XLOW_A3_B2_HALF) < 1e-12
        assert rel_err(res.x_high, XHIGH_A3_B2_HALF) < 1e-12
        assert res.mode == 4.0

    def test_degenerate_full_height(self):
        # y = 1 is the kernel's branch point r = +0: a width of +0
        res = fwym(ShapeScale(5.0, 1.0), 1.0)
        assert signed(res.width) == signed(0.0)
        assert res.x_low == res.x_high == res.mode == 4.0

    @pytest.mark.parametrize("b", [1.0, 3.0, 1e-300, 1e300])
    def test_exponential_full_height(self, b):
        res = fwym(ShapeScale(1.0, b), 1.0)
        assert signed(res.x_low, res.x_high, res.width, res.mode) == signed(0.0, 0.0, 0.0, 0.0)

    def test_exponential_special_case(self):
        res = fwym(ShapeScale(1.0, 3.0), 0.5)
        assert res.x_low == 0.0
        assert res.mode == 0.0
        assert rel_err(res.width, 3.0 * math.log(2.0)) < 1e-15
        assert res.x_high == res.width

    def test_exponential_arbitrary_proportion(self):
        res = fwym(ShapeScale(1.0, 2.0), 0.1)
        assert rel_err(res.width, -2.0 * math.log(0.1)) < 1e-15

    def test_width_matches_crossing_difference(self):
        for a in (1.5, 2.0, 5.0, 50.0):
            for y in (0.1, 0.5, 0.9, 0.999):
                res = fwym(ShapeScale(a, 1.3), y)
                assert rel_err(res.x_high - res.x_low, res.width) < 1e-9

    def test_crossings_straddle_mode(self):
        res = fwym(ShapeScale(7.0, 0.4), 0.3)
        assert res.x_low < res.mode < res.x_high

    def test_width_strictly_decreasing_in_y(self):
        params = ShapeScale(3.0, 2.0)
        ys = [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 1.0]
        widths = [fwym(params, y).width for y in ys]
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))
        assert widths[-1] == 0.0

    def test_exponential_continuity(self):
        for b in (0.5, 1.0, 3.0):
            got = fwym(ShapeScale(1.0 + 1e-8, b), 0.5).width
            assert abs(got - b * math.log(2.0)) <= 1e-6 * b

    @pytest.mark.parametrize("y", [0.0, -0.5, 1.0 + 1e-9, math.nan])
    def test_bad_proportion_rejected(self, y):
        with pytest.raises(ValueError):
            fwym(ShapeScale(2.0, 1.0), y)

    @pytest.mark.parametrize("a,b,y", OVERFLOWING)
    def test_overflow_raises(self, a, b, y):
        with pytest.raises(ValueError, match="overflow"):
            fwym(ShapeScale(a, b), y)

    def test_scale_covariance(self):
        for c in (0.1, 1.0, 7.0, 1e3):
            for a in (1.5, 2.0, 10.0):
                w1 = fwym(ShapeScale(a, c * 1.7), 0.5).width
                w2 = c * fwym(ShapeScale(a, 1.7), 0.5).width
                assert rel_err(w1, w2) <= 2.0 * math.ulp(1.0)


class TestNearPeak:
    """Cuts near the branch point against 50-digit mpmath."""

    @pytest.mark.parametrize("a,b,y", NEAR_PEAK_CUTS)
    def test_crossings_within_half_width_bound(self, a, b, y):
        mp = pytest.importorskip("mpmath")
        res = fwym(ShapeScale(a, b), y)
        with mp.workdps(50):
            x_low, x_high, width = mp_cut(mp, a, b, y)
            err_low, err_high = float(abs(res.x_low - x_low)), float(abs(res.x_high - x_high))
        bound = math.ulp(res.mode) + 1e-12 * float(width) / 2.0
        assert err_low <= bound
        assert err_high <= bound

    @pytest.mark.parametrize("a", [3.0, 101.0, 1e5])
    def test_widths_on_polynomial_in_s(self, a):
        # q from 1e-14 to just above 1e-3, where an earlier kernel's series
        # in p ended: all of it comes from the polynomial in s now, and the
        # cuts at 1e-3 stay as plain inputs. The two offsets W + 1 have
        # opposite signs, so their difference does not cancel (worst seen
        # 2.4e-16)
        mp = pytest.importorskip("mpmath")
        qs = [10.0 ** (-14 + 11 * k / 22) for k in range(22)]
        qs += [1e-3 * (1.0 - 1e-6), 1e-3 * (1.0 + 1e-6), 1.01e-3]
        for q in qs:
            y = math.exp((a - 1.0) * math.log1p(-q))
            with mp.workdps(50):
                want = float(mp_cut(mp, a, 1.0, y)[2])
            got = fwym(ShapeScale(a, 1.0), y).width
            assert rel_err(got, want) < 4e-16, f"q={q!r}"

    def test_log_form_low_crossing_does_not_underflow(self):
        res = fwym(ShapeScale(1.5, 1e300), 1e-300)
        assert rel_err(res.x_low, XLOW_LOG_FORM) < 1e-12

    def test_log_form_low_crossing_of_underflowing_mode(self):
        res = fwym(ShapeScale(1.0001, 5e-324), 0.5)
        assert res.x_low == res.x_high == res.mode == 0.0


def kernel_cuts(n, seed):
    """n seeded (a, y) with a in [1.1, 1e4] and q = -expm1(ln(y)/(a-1)) from
    the sample's floor, 1e-3, down to the kernel's log form: half
    log-uniform in q up to 1/2, half log-uniform in -ln(1 - q) from there
    to the log form."""
    rng = random.Random(seed)
    cuts = [OFFSETS_CUT]
    while len(cuts) < n:
        a = math.exp(rng.uniform(math.log(1.1), math.log(1e4)))
        if rng.random() < 0.5:
            r = math.log1p(-math.exp(rng.uniform(math.log(1e-3), math.log(Q_HALF))))
        else:
            r = -math.exp(rng.uniform(math.log(-R_HALF), math.log(-R_LOG_FORM)))
        y = math.exp(r * (a - 1.0))
        if y > 0.0:
            r = math.log(y) / (a - 1.0)
            if -math.expm1(r) >= 1e-3 and r > R_LOG_FORM:
                cuts.append((a, y))
    return cuts


class TestKernelAboveLogForm:
    """kernel_cuts, from the sample's floor q = 1e-3 down to the log form,
    against 50-digit mpmath.

    The polynomial in s gives them below q = 1/2 (v = -W0 above W0 = -1/2)
    and a fitted start with one third-order step per branch above, and
    widths are within 4e-16 (worst seen 3.7e-16).
    """

    def test_widths_within_4e16(self):
        mp = pytest.importorskip("mpmath")
        for a, y in kernel_cuts(300, seed=5):
            with mp.workdps(50):
                want = float(mp_cut(mp, a, 1.0, y)[2])
            got = fwym(ShapeScale(a, 1.0), y).width
            assert rel_err(got, want) <= 4e-16, f"a={a!r}, y={y!r}"

class TestFwhm:
    def test_equals_fwym_at_half(self):
        assert fwhm(ShapeScale(3.0, 2.0)) == fwym(ShapeScale(3.0, 2.0), 0.5)

    def test_scale_linearity_example(self):
        w1 = fwhm(ShapeScale(2.0, 1.0)).width
        w10 = fwhm(ShapeScale(2.0, 10.0)).width
        assert rel_err(w10, 10.0 * w1) <= 2.0 * math.ulp(1.0)

    def test_exponential_value(self):
        assert rel_err(fwhm(ShapeScale(1.0, 1.0)).width, math.log(2.0)) < 1e-15


class TestFwymShifted:
    def test_amplitude_never_matters(self):
        base = fwym(ShapeScale(3.0, 2.0), 0.5)
        for k in (0.1, 1.0, 5.0, 123.4):
            res = fwym_shifted(GammaShapeSpec(ShapeScale(3.0, 2.0), K=k), 0.5)
            assert res == base

    def test_shift_translates_crossings(self):
        base = fwym(ShapeScale(3.0, 2.0), 0.5)
        res = fwym_shifted(GammaShapeSpec(ShapeScale(3.0, 2.0), s=5.0), 0.5)
        assert res.width == base.width
        assert res.x_low == base.x_low - 5.0
        assert res.x_high == base.x_high - 5.0
        assert res.mode == base.mode - 5.0

    def test_width_against_direct_levels(self):
        # crossings of the shifted, scaled shape itself solve g(x) = y*max(g)
        spec = GammaShapeSpec(ShapeScale(2.0, 1.0), K=0.1, s=-1.0)
        res = fwym_shifted(spec, 1.0 / 3.0)
        level = (1.0 / 3.0) * gamma_shaped(res.mode, spec)
        assert rel_err(gamma_shaped(res.x_low, spec), level) < 1e-10
        assert rel_err(gamma_shaped(res.x_high, spec), level) < 1e-10
        assert rel_err(res.width, WIDTH_A2_B1_THIRD) < 1e-13


class TestGaussianApprox:
    def test_unit_case(self):
        assert rel_err(gaussian_fwhm_approx(ShapeScale(1.0, 1.0)), GAUSS_COEF) < 1e-15

    def test_quadruple_shape_doubles_width(self):
        one = gaussian_fwhm_approx(ShapeScale(1.0, 1.0))
        four = gaussian_fwhm_approx(ShapeScale(4.0, 1.0))
        assert four == 2.0 * one

    def test_value_and_overshoot_at_two(self):
        got = gaussian_fwhm_approx(ShapeScale(2.0, 1.0))
        assert rel_err(got, GAUSS_A2_B1) < 1e-15
        assert got > fwhm(ShapeScale(2.0, 1.0)).width

    def test_always_overshoots(self):
        for a in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0):
            params = ShapeScale(a, 1.0)
            assert gaussian_fwhm_approx(params) > fwhm(params).width


class TestApproxProportionalError:
    def test_frozen_value_at_two(self):
        assert rel_err(approx_proportional_error(ShapeScale(2.0, 1.0)), APPROX_ERR_A2) < 1e-12

    def test_scale_invariant_bitwise(self):
        want = approx_proportional_error(ShapeScale(2.0, 1.0))
        assert approx_proportional_error(ShapeScale(2.0, 17.0)) == want
        assert approx_proportional_error(ShapeScale(2.0, 0.003)) == want

    def test_strictly_decreasing_in_shape(self):
        errs = [
            approx_proportional_error(ShapeScale(a, 1.0))
            for a in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 1e2, 1e3, 1e4)
        ]
        assert all(e1 > e2 > 0.0 for e1, e2 in zip(errs, errs[1:]))

    def test_exponential_shape_uses_exact_width(self):
        want = GAUSS_COEF / math.log(2.0) - 1.0
        assert rel_err(approx_proportional_error(ShapeScale(1.0, 2.0)), want) < 1e-14

    def test_large_shapes_against_mpmath(self):
        # gaussian/fwhm - 1 would cancel like 1/a: 0 from a = 1e16
        mp = pytest.importorskip("mpmath")
        rng = random.Random(6)
        shapes = [10.0**k for k in range(6, 301)]
        shapes += [10.0 ** rng.uniform(6.0, 300.0) for _ in range(100)]
        for a in shapes:
            got = approx_proportional_error(ShapeScale(a, 1.0))
            # the unit-scale width needs about twice the digits of a
            with mp.workdps(40 + 2 * int(math.log10(a))):
                want = 2 * mp.sqrt(2 * mp.log(2) * a) / mp_cut(mp, a, 1.0, 0.5)[2] - 1
            assert got > 0.0
            assert rel_err(got, want) <= 1e-12, f"a={a!r}"


def seeded_shapes(seed):
    """Shapes in every regime of a unit-scale FWHM cut, z = -exp(ln(1/2)/(a-1) - 1):
    the log form (a - 1 below about 1e-3), the fitted starts with one step
    each, and the polynomial in s (a above 2), up to 1e300, plus a = 1 and
    fixed regression shapes."""
    rng = random.Random(seed)
    shapes = [1.0, 1.0 + 1e-7, 1.0 + 2.0**-52, 1.001, 1.0014, 694.0, 700.0, 1e300]
    shapes += [1.0 + math.exp(rng.uniform(math.log(1e-7), math.log(1.4e-3))) for _ in range(200)]
    shapes += [math.exp(rng.uniform(math.log(1.0014), math.log(700.0))) for _ in range(200)]
    shapes += [math.exp(rng.uniform(math.log(700.0), math.log(1e300))) for _ in range(200)]
    rng.shuffle(shapes)
    return shapes


def per_shape_comparison(a):
    """The comparison row of one shape from the per-shape calls."""
    unit = ShapeScale(a, 1.0)
    return fwhm(unit).width, gaussian_fwhm_approx(unit), approx_proportional_error(unit)


class TestGaussianComparison:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_per_shape_calls(self, seed):
        shapes = seeded_shapes(seed)
        got = gaussian_comparison(shapes)
        want = list(zip(*map(per_shape_comparison, shapes)))
        for got_column, want_column in zip(got, want):
            assert [v.hex() for v in got_column] == [v.hex() for v in want_column]
        # up to the asymptotic cut the error is gaussian/fwhm - 1 from the
        # per-shape calls (TestApproxProportionalError checks it above)
        cut = bandwidth._ASYMPTOTIC_SHAPE
        assert [e.hex() for a, e in zip(shapes, got[2]) if a <= cut] == [
            (g / w - 1.0).hex() for a, w, g, _ in zip(shapes, *want) if a <= cut
        ]

    def test_empty_and_exponential_sweeps(self):
        assert gaussian_comparison([]) == ([], [], [])
        assert gaussian_comparison((1.0,)) == tuple([v] for v in per_shape_comparison(1.0))

    def test_sweep_whose_sum_overflows(self):
        shapes = [2.0, 1e308, 1.7e308, 1.7e308]
        got = gaussian_comparison(shapes)
        assert got == tuple(map(list, zip(*map(per_shape_comparison, shapes))))

    @pytest.mark.parametrize("bad", [0.5, 1.0 - 2.0**-53, 0.0, -math.inf, math.nan, math.inf])
    @pytest.mark.parametrize("at", [0, 4, 8])
    def test_rejects_like_per_shape_calls(self, bad, at):
        shapes = [1.0 + 3.0**i for i in range(9)]
        shapes[at] = bad
        with pytest.raises(ValueError) as want:
            fwhm(ShapeScale(bad, 1.0))
        with pytest.raises(ValueError) as got:
            gaussian_comparison(shapes)
        assert str(got.value) == str(want.value)

    def test_reports_the_first_rejected_shape(self):
        with pytest.raises(ValueError, match=r"got 0\.5"):
            gaussian_comparison([2.0, 0.5, math.nan, -3.0])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_iterator_sweep_reads_once(self, seed):
        # a generator gives the lists of the list input, each shape read once
        shapes = seeded_shapes(seed) + [1.0]
        want = [[v.hex() for v in column] for column in gaussian_comparison(shapes)]
        got = gaussian_comparison(a for a in shapes)
        assert [[v.hex() for v in column] for column in got] == want

    def test_iterator_sweep_rejects_like_fwhm(self):
        with pytest.raises(ValueError) as want:
            fwhm(ShapeScale(0.5, 1.0))
        with pytest.raises(ValueError) as got:
            gaussian_comparison(iter([2.0, 0.5]))
        assert str(got.value) == str(want.value)

    def test_row_failing_a_check_raises_fwhm_error(self, monkeypatch):
        # a kernel result that breaks WidthResult's checks is re-run
        # through fwhm, which raises; the rows before it are not affected
        real_cut = lambertw._cut

        def inf_crossing(r, scale):
            x_low, _, diff = real_cut(r, scale)
            return x_low, math.inf, diff

        monkeypatch.setattr(lambertw, "_cut", inf_crossing)
        with pytest.raises(ValueError, match="overflows double precision"):
            gaussian_comparison([1.0, 3.0])


class TestOctaveBandwidth:
    def test_frozen_value(self):
        res = octave_bandwidth(ShapeScale(2.0, 1.0), 0.5)
        assert abs(res.octaves - OCTAVES_A2_HALF) < 1e-13
        assert rel_err(res.high, 2.6783469900166605) < 1e-13
        assert rel_err(res.low, 0.23196095298653444) < 1e-13

    def test_scale_invariant_bitwise(self):
        want = octave_bandwidth(ShapeScale(2.0, 1.0), 0.5).octaves
        assert octave_bandwidth(ShapeScale(2.0, 100.0), 0.5).octaves == want

    def test_full_height_closure(self):
        res = octave_bandwidth(ShapeScale(2.0, 1.0), 1.0)
        assert signed(res.octaves) == signed(0.0)
        assert res.high == res.low == 1.0

    def test_tends_to_zero_as_y_tends_to_one(self):
        vals = [octave_bandwidth(ShapeScale(2.0, 1.0), y).octaves for y in (0.9, 0.99, 0.9999)]
        assert all(v1 > v2 > 0.0 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_exponential_shape_rejected(self):
        with pytest.raises(ValueError):
            octave_bandwidth(ShapeScale(1.0, 1.0), 0.5)

    def test_consistent_with_crossings(self):
        for a in (1.5, 3.0, 20.0):
            for y in (0.25, 0.5, 0.9):
                params = ShapeScale(a, 2.3)
                res = octave_bandwidth(params, y)
                wres = fwym(params, y)
                assert abs(res.octaves - math.log2(wres.x_high / wres.x_low)) < 1e-10
                assert res.high == wres.x_high
                assert res.low == wres.x_low

    @pytest.mark.parametrize("a,y,want", OCTAVES_LOG_FORM)
    def test_finite_where_low_crossing_underflows(self, a, y, want):
        res = octave_bandwidth(ShapeScale(a, 1.0), y)
        assert res.low < 1e-307
        assert rel_err(res.octaves, want) < 1e-12

    @pytest.mark.parametrize(
        "a,y",
        [(2.0, 0.5), (1.5, 0.1), (3.0, 1.0 - 5e-4), (1e5, 0.5), (1.0001, 0.5), (20.0, 1e-300)],
    )
    def test_equals_branch_difference_over_ln2(self, a, y):
        r = math.log(y) / (a - 1.0)
        want = branch_difference_from_log_ratio(r) / math.log(2.0)
        assert octave_bandwidth(ShapeScale(a, 1.0), y).octaves == want

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            octave_bandwidth(ShapeScale(2.0, 1e308), 0.5)

BRANCHES = ((lambertw, bandwidth), ("w0", "wm1"))
POLYNOMIAL = ((lambertw,), ("_offsets", "w0", "wm1"))
P_MAX_A3 = gamma_pdf(2.0, ShapeScale(3.0, 1.0))


class TestWorkCounts:
    """Lambert evaluations per cut: each branch is evaluated once and no
    branch by a loop. Below q = 1/2 both come from one evaluation of the
    polynomial in s, which calls one square root and nothing else; from
    q = 1/2 on each branch takes a fitted start and one third-order step,
    one log1p each. The math functions lambertw calls are counted through
    a stand-in for its math module."""

    @pytest.mark.parametrize("fn", [fwym, octave_bandwidth])
    def test_v_form_cut(self, count_calls, math_calls, fn):
        # q = 0.29, above W0 = -1/2: one evaluation of the polynomial in s
        # gives the secondary branch and v = -W0, with no step
        counts = count_calls(*POLYNOMIAL)
        fn(ShapeScale(3.0, 1.0), 0.5)
        assert counts == {"_offsets": 1, "w0": 0, "wm1": 0}
        assert math_calls == {"sqrt": 1}

    @pytest.mark.parametrize("fn", [fwym, octave_bandwidth])
    def test_full_height_cut(self, count_calls, math_calls, fn):
        # y = 1 is the branch point r = +0, cut by one evaluation of the
        # polynomial in s like any cut near it
        counts = count_calls(*POLYNOMIAL)
        fn(ShapeScale(3.0, 1.0), 1.0)
        assert counts == {"_offsets": 1, "w0": 0, "wm1": 0}
        assert math_calls == {"sqrt": 1}

    def test_offsets_cut_near_branch_point(self, count_calls, math_calls):
        # q = 5e-7: both offsets come from the polynomial in s, with one
        # square root, no step and no call of the public branches
        counts = count_calls(*BRANCHES)
        fwym(ShapeScale(3.0, 1.0), 1.0 - 1e-6)
        assert counts == {"w0": 0, "wm1": 0}
        assert math_calls == {"sqrt": 1}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fwym(ShapeScale(30.0, 1.0), 0.5),  # q = 0.024
            # 0.9 of the maximum of ShapeScale(3, 1), at its mode 2: q = 0.051
            lambda: inverse_pdf(0.9 * P_MAX_A3, ShapeScale(3.0, 1.0), Branch.PRINCIPAL),
            lambda: inverse_pdf(0.9 * P_MAX_A3, ShapeScale(3.0, 1.0), Branch.SECONDARY),
            lambda: quantile_a2(0.1, 1.0),  # q = p = 0.1
        ],
        ids=["fwym", "inverse_pdf-principal", "inverse_pdf-secondary", "quantile_a2"],
    )
    def test_no_solve_below_w0_of_minus_half(self, count_calls, math_calls, call):
        # q < 1/2 and W0 < -1/2: one evaluation of the polynomial in s gives
        # the offsets
        counts = count_calls(*POLYNOMIAL)
        call()
        assert counts == {"_offsets": 1, "w0": 0, "wm1": 0}
        assert math_calls == {"sqrt": 1}

    @pytest.mark.parametrize(
        "branch,pieces,want",
        [
            (Branch.PRINCIPAL, {"_principal": 1, "_secondary": 0}, {"exp": 1, "log1p": 1}),
            (Branch.SECONDARY, {"_principal": 0, "_secondary": 1}, {"sqrt": 1, "log1p": 1}),
        ],
        ids=["principal", "secondary"],
    )
    def test_inverse_pdf_solves_only_its_branch_above_half(
        self, count_calls, math_calls, branch, pieces, want
    ):
        # 0.1 of the maximum of ShapeScale(3, 1): q = 0.68; the principal
        # branch takes its start in x = exp(r - 1) and one step, and the
        # secondary branch its start in s and one step, neither the other's
        counts = count_calls((lambertw,), ("_principal", "_secondary", "_offsets"))
        inverse_pdf(0.1 * P_MAX_A3, ShapeScale(3.0, 1.0), branch)
        assert counts == {**pieces, "_offsets": 0}
        assert math_calls == want

    @pytest.mark.parametrize(
        "a,y,want",
        [
            (2.0, 0.1, {"sqrt": 1, "exp": 1, "log1p": 2}),  # q = 0.9
            (1.1, 0.1, {"log": 1, "exp": 1, "log1p": 2}),  # r = -23: de Bruijn's series
            (1.0001, 0.5, {"log": 2, "exp": 1, "log1p": 1}),  # r - 1 = -6932: log form
        ],
        ids=["fitted", "series", "log-form"],
    )
    def test_one_step_per_branch_from_half(self, count_calls, math_calls, a, y, want):
        # each branch once, each step one log1p; the log form of the
        # principal branch takes none, and ln(scale) is its one log
        counts = count_calls((lambertw,), ("_principal", "_secondary", "_offsets"))
        fwym(ShapeScale(a, 1.0), y)
        assert counts == {"_principal": 1, "_secondary": 1, "_offsets": 0}
        assert math_calls == want

    def test_log_form_cut_skips_wm1(self, count_calls):
        # W0(z) = z there, and the secondary branch is solved in log form
        counts = count_calls(*BRANCHES)
        fwym(ShapeScale(1.0001, 1.0), 0.5)
        assert counts == {"w0": 0, "wm1": 0}


class TestOverflowRule:
    @pytest.mark.parametrize("case", sorted(OVERFLOW_RULE))
    def test_raises_or_gives_the_value(self, case):
        call, want = OVERFLOW_RULE[case]
        if want is None:
            with pytest.raises(ValueError, match="overflow"):
                call()
        else:
            assert call() == want


# Kernel rows that break a result check: each maps _cut's (x_low, x_high,
# W0 - Wm1) to a faulty row.
KERNEL_FAULTS = {
    "infinite-high-crossing": lambda x_low, x_high, diff: (x_low, math.inf, diff),
    "crossings-not-straddling-the-mode": lambda x_low, x_high, diff: (x_high, x_low, diff),
    "negative-branch-difference": lambda x_low, x_high, diff: (x_low, x_high, -diff),
}


class TestResultChecksOnTheLibraryPath:
    """fwym, fwym_shifted and octave_bandwidth build their results without
    the class call; a kernel row that breaks a check raises the error the
    class gives for the same fields, word for word."""

    @pytest.mark.parametrize("fault", KERNEL_FAULTS.values(), ids=KERNEL_FAULTS.keys())
    def test_same_error_as_the_class(self, monkeypatch, fault):
        a, b, y = 3.0, 2.0, 0.25
        m = (a - 1.0) * b
        x_low, x_high, diff = fault(*lambertw._cut(math.log(y) / (a - 1.0), m))
        real_cut = lambertw._cut
        monkeypatch.setattr(lambertw, "_cut", lambda r, scale: fault(*real_cut(r, scale)))
        params = ShapeScale(a, b)
        width = ((a - 1.0) * diff) * b
        pairs = [
            (lambda: fwym(params, y), lambda: WidthResult(x_low, x_high, width, m, y)),
            # the unshifted result is checked first
            (
                lambda: fwym_shifted(GammaShapeSpec(params, 2.0, 0.5), y),
                lambda: WidthResult(x_low, x_high, width, m, y),
            ),
            (lambda: octave_bandwidth(params, y), lambda: OctaveResult(x_high, x_low, diff / math.log(2.0))),
        ]
        for call, build in pairs:
            with pytest.raises(ValueError) as want:
                build()
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
