"""Acceptance suite: one test per shipping criterion, run at full tolerance.

Each test prints a single PASS line (visible with -s, or via -v through the
test name) after its assertions; tolerances are pinned here and nowhere
else. The whole module runs in well under a minute on one core.
"""

import math
import time
from pathlib import Path

import pytest

from gammabw.bandwidth import (
    GammaShapeSpec,
    ShapeScale,
    approx_proportional_error,
    fwym,
    fwym_shifted,
    gaussian_fwhm_approx,
)
from gammabw.gamma2 import check_transform_identity, median_a2
from gammabw.lambertw import w0, wm1
from gammabw.oracle import oracle_crossings, oracle_median_a2
from gammabw import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

SHAPE_GRID = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0)
SCALE_GRID = (0.5, 1.0, 2.0, 3.0)
PROPORTION_GRID = (0.25, 1.0 / 3.0, 0.5, 0.9, 0.999)


def logspace(lo_exp, hi_exp, n):
    return [10.0 ** (lo_exp + (hi_exp - lo_exp) * k / (n - 1)) for k in range(n)]


def test_c1_lambert_round_trip():
    start = time.perf_counter()
    checked = 0
    for u in [-m for m in logspace(0.0, math.log10(700.0), 5000)]:
        got = wm1(u * math.exp(u))
        tol = 1e-7 if abs(u + 1.0) <= 1e-6 else 1e-12
        assert abs(got - u) <= tol * abs(u), f"wm1 round trip at u={u!r}"
        checked += 1
    for u in [-1.0] + logspace(-8.0, math.log10(700.0), 4999):
        got = w0(u * math.exp(u))
        tol = 1e-7 if abs(u + 1.0) <= 1e-6 else 1e-12
        assert abs(got - u) <= tol * abs(u), f"w0 round trip at u={u!r}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 9999 + 1
    assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 PASS: {checked} Lambert round trips <= 1e-12 (1e-7 within 1e-6 of -1) in {elapsed:.2f}s")


def test_c2_fwym_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for a in SHAPE_GRID:
        for b in SCALE_GRID:
            for y in PROPORTION_GRID:
                analytic = fwym(ShapeScale(a, b), y).width
                lo, hi = oracle_crossings(GammaShapeSpec(ShapeScale(a, b)), y)
                rel = abs(analytic - (hi - lo)) / (hi - lo)
                worst = max(worst, rel)
                assert rel <= 1e-9, f"a={a}, b={b}, y={y}: rel={rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle grid took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 PASS: 160-case oracle grid, worst rel {worst:.3e}, {elapsed:.2f}s")


def test_c3_branch_point_stability():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    naive_rels = {}
    for a in (1e3, 1e4, 1e5, 1e6):
        am1 = mp.mpf(a) - 1
        r_mp = mp.log(mp.mpf(1) / 2) / am1
        z_mp = -mp.exp(r_mp - 1)
        want = am1 * (mp.lambertw(z_mp, 0).real - mp.lambertw(z_mp, -1).real)
        stable = fwym(ShapeScale(a, 1.0), 0.5).width
        rel = float(abs(stable - want) / want)
        assert rel <= 1e-10, f"stable path at a={a}: rel={rel:.3e}"
        # the naive subtraction loses ~3e-16/q of relative accuracy and is
        # allowed to miss the bound (it does from a ~ 1e6 on); recorded
        # here for the log, not asserted
        z = -math.exp(math.log(0.5) / (a - 1.0) - 1.0)
        naive = (a - 1.0) * (w0(z) - wm1(z))
        naive_rels[a] = float(abs(naive - want) / want)
    print(f"ACCEPTANCE 3 PASS: stable path <= 1e-10; naive path rel errs {naive_rels}")


def test_c4_gaussian_approximation():
    errors = {}
    for a in SHAPE_GRID:
        if a <= 1.0:
            continue
        params = ShapeScale(a, 1.0)
        assert gaussian_fwhm_approx(params) > fwym(params, 0.5).width, f"no overshoot at a={a}"
        errors[a] = approx_proportional_error(params)
    seq = [errors[a] for a in sorted(errors)]
    assert all(e1 > e2 for e1, e2 in zip(seq, seq[1:])), "error not strictly decreasing"
    assert errors[1000.0] <= errors[10.0] / 10.0, (
        f"decay too slow: err(1e3)={errors[1000.0]:.3e}, err(10)={errors[10.0]:.3e}"
    )
    print(
        "ACCEPTANCE 4 PASS: overshoot everywhere, error decays "
        f"{errors[10.0]:.4f} -> {errors[1000.0]:.6f} from a=10 to a=1000"
    )


def test_c5_exponential_limit():
    for b in (0.5, 1.0, 3.0):
        got = fwym(ShapeScale(1.0 + 1e-8, b), 0.5).width
        assert abs(got - b * math.log(2.0)) <= 1e-6 * b, f"b={b}"
    print("ACCEPTANCE 5 PASS: fwym(1 + 1e-8, b) within 1e-6*b of b*ln 2")


def test_c6_transform_identity():
    worst = 0.0
    for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        for b in SCALE_GRID:
            worst = max(worst, check_transform_identity(p, b))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 6 PASS: transform identity residual <= {worst:.3e} on the 7x4 grid")


def test_c7_median_bound_and_oracle():
    for b in SCALE_GRID:
        med = median_a2(b)
        assert 5.0 / 3.0 < med / b < 2.0, f"median bound violated at b={b}"
        assert abs(med - oracle_median_a2(b)) <= math.ulp(med), f"oracle mismatch at b={b}"
    print("ACCEPTANCE 7 PASS: 5/3 < median/b < 2 and closed form within an ulp of the CDF's root")


def test_c8_invariance_suite():
    eps2 = 2.0 * math.ulp(1.0)
    # amplitude and shift leave the width bit-identical
    for a, b in ((1.5, 0.7), (3.0, 2.0), (10.0, 1.0)):
        base = fwym(ShapeScale(a, b), 0.5).width
        for k in (0.1, 1.0, 5.0):
            for s in (-1.0, 0.0, 5.0):
                spec = GammaShapeSpec(ShapeScale(a, b), K=k, s=s)
                assert fwym_shifted(spec, 0.5).width == base, f"K={k}, s={s}"
    # widths are linear in the scale parameter
    for a in (1.5, 2.0, 5.0, 100.0):
        for b in (0.5, 1.7):
            for c in (0.1, 1.0, 7.0, 1e3):
                w_scaled = fwym(ShapeScale(a, c * b), 0.5).width
                w_ref = c * fwym(ShapeScale(a, b), 0.5).width
                assert abs(w_scaled - w_ref) <= eps2 * w_ref, f"a={a}, b={b}, c={c}"
    # the octave count carries no scale dependence at all
    from gammabw.bandwidth import octave_bandwidth

    for a in (1.5, 2.0, 5.0):
        unit = octave_bandwidth(ShapeScale(a, 1.0), 0.5).octaves
        for b in (0.5, 2.0, 3.0, 100.0):
            assert octave_bandwidth(ShapeScale(a, b), 0.5).octaves == unit
    print("ACCEPTANCE 8 PASS: K/s bit-identical, b-linear to 2eps, octaves b-free")


def test_c9_cli_goldens_and_verify(capsys):
    from goldens import GOLDEN_INVOCATIONS

    for name, argv in GOLDEN_INVOCATIONS:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"{name} exited {code}"
        assert out.encode() == (GOLDEN_DIR / name).read_bytes(), f"{name} drifted"
    verified = 0
    for a in SHAPE_GRID:
        for b in SCALE_GRID:
            code = cli.main(["fwhm", "--a", repr(a), "--b", repr(b), "--verify"])
            capsys.readouterr()
            assert code == 0, f"--verify failed at a={a}, b={b}"
            verified += 1
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 9 PASS: {len(GOLDEN_INVOCATIONS)} goldens byte-identical, "
            f"--verify green on {verified} grid points"
        )
