"""The benchmark's checks accept the program's results and reject them
perturbed by 1e-10 relative, so they are not vacuous.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from gammabw import cli  # noqa: E402
from gammabw.bandwidth import ShapeScale, fwym, inverse_pdf, octave_bandwidth  # noqa: E402
from gammabw.gamma2 import quantile_a2  # noqa: E402
from gammabw.lambertw import Branch  # noqa: E402

PERTURB = 1.0 + 1e-10


def bump(x: float) -> float:
    return x * PERTURB


def run_cli(argv: list[str]) -> bytes:
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")
    saved, sys.stdout = sys.stdout, out
    try:
        assert cli.main(argv) == 0
        out.flush()
    finally:
        sys.stdout = saved
    return buf.getvalue()


CUTS = [
    (3.0, 2.0, 0.5),  # halley
    (1.01, 0.3, 0.1),  # halley, q >= 0.5 on the secondary branch
    (800.0, 5.0, 1.0 / math.sqrt(2.0)),  # series plus Halley
    (1.0 + math.log(0.25) / -1500.0, 2.0, 0.25),  # log form
    (2e5, 0.01, math.exp(-600.0)),  # large a
    (1.0, 3.0, 0.25),  # exponential
]


@pytest.mark.parametrize("a,b,y", CUTS)
def test_cut_check(a, b, y):
    res = fwym(ShapeScale(a, b), y)
    got = {f: getattr(res, f) for f in checks.FWHM_FIELDS}
    ref = reference.cut(a, b, y)
    v = checks.Verdict()
    checks.check_cut(v, got, ref, a, b, y)
    assert v.ok, v.problems
    for a_, b_, y_, x, tol, left in v.level:
        assert reference.level_brackets(a_, b_, y_, x, tol, left)
    # The crossing bound is relative to the half-width, so a low crossing
    # far below it (a near 1, or a = 1 where it is exactly 0) may move by
    # 1e-10 of itself unseen.
    fields = ("width", "x_high") if got["x_low"] < 0.01 * got["width"] else ("width", "x_low", "x_high")
    for field in fields:
        v = checks.Verdict()
        checks.check_cut(v, dict(got, **{field: bump(got[field])}), ref, a, b, y)
        assert not v.ok, field


@pytest.mark.parametrize("a,b,y", [c for c in CUTS if c[0] > 1.0])
def test_level_equation_rejects_a_moved_crossing(a, b, y):
    res = fwym(ShapeScale(a, b), y)
    tol = math.ulp(res.mode) + checks.CROSS_HW * 0.5 * res.width
    assert not reference.level_brackets(a, b, y, bump(res.x_high), tol, False)
    if res.x_low >= 0.01 * res.width:
        assert not reference.level_brackets(a, b, y, bump(res.x_low), tol, True)


@pytest.mark.parametrize("a,b,y", [(3.0, 2.0, 0.5), (1.0 + math.log(0.5) / -695.0, 1.0, 0.5), (5e4, 1.0, math.exp(-500.0))])
def test_octave_check(a, b, y):
    res = octave_bandwidth(ShapeScale(a, b), y)
    ref = reference.cut(a, b, y)
    v = checks.Verdict()
    checks.check_octave(v, res, ref)
    assert v.ok, v.problems
    perturbed = type(res)(high=res.high, low=res.low, octaves=bump(res.octaves))
    v = checks.Verdict()
    checks.check_octave(v, perturbed, ref)
    assert not v.ok


@pytest.mark.parametrize("branch", [Branch.PRINCIPAL, Branch.SECONDARY])
@pytest.mark.parametrize("a,b,y", [(3.0, 2.0, 0.5), (1.01, 0.3, 0.1), (900.0, 7.0, 1.0 / math.sqrt(2.0))])
def test_inverse_check(a, b, y, branch):
    m = (a - 1.0) * b
    p = y * math.exp((a - 1.0) * math.log(m) - m / b - math.lgamma(a) - a * math.log(b))
    x = inverse_pdf(p, ShapeScale(a, b), branch)
    ref = reference.inverse(a, b, p, branch is Branch.PRINCIPAL)
    v = checks.Verdict()
    checks.check_inverse(v, x, ref, a, b, p)
    assert v.ok, v.problems
    v = checks.Verdict()
    checks.check_inverse(v, bump(x), ref, a, b, p)
    assert not v.ok


@pytest.mark.parametrize("p,b", [(0.01, 2.0), (0.5, 1e-3), (0.99, 700.0)])
def test_quantile_check(p, b):
    x = quantile_a2(p, b)
    ref = reference.quantile(p, b)
    v = checks.Verdict()
    checks.check_quantile(v, x, ref, b)
    assert v.ok, v.problems
    v = checks.Verdict()
    checks.check_quantile(v, bump(x), ref, b)
    assert not v.ok


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_compare_check(fmt):
    a_min, a_max, n = 1.0005, 3e5, 40
    out = run_cli(["compare", "--a-min", repr(a_min), "--a-max", repr(a_max), "--points", str(n), "--format", fmt])
    got = checks.parse_table(out, fmt, checks.COMPARE_COLUMNS, n, ())
    ref = reference.compare(a_min, a_max, n)
    shapes = checks.compare_shapes(a_min, a_max, n)
    v = checks.Verdict()
    checks.check_compare(v, got, ref, shapes)
    assert v.ok, v.problems
    for column, row in (("fwhm", 7), ("fwhm", 39), ("gaussian_fwhm", 20), ("proportional_error", 1)):
        bad = {c: list(vals) for c, vals in got.items()}
        bad[column][row] = bump(bad[column][row])
        v = checks.Verdict()
        checks.check_compare(v, bad, ref, shapes)
        assert not v.ok, (column, row)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_curve_check(fmt):
    a, b, n = 7.5, 0.4, 300
    out = run_cli(["curve", "--a", repr(a), "--b", repr(b), "--n", str(n), "--format", fmt])
    got = checks.parse_table(out, fmt, checks.CURVE_COLUMNS, n, checks.CURVE_ANNOTATIONS)
    ref = reference.curve(a, b, n)
    xs = checks.curve_grid(a, b, n)
    v = checks.Verdict()
    checks.check_curve(v, got, ref, a, b, xs)
    assert v.ok, v.problems
    for key, i in (("pdf", 1), ("pdf", 150), ("pdf", n - 1), ("x", 77), ("fwhm_width", None)):
        bad = {k: list(val) if isinstance(val, list) else val for k, val in got.items()}
        if i is None:
            bad[key] = bump(bad[key])
        else:
            bad[key][i] = bump(bad[key][i])
        v = checks.Verdict()
        checks.check_curve(v, bad, ref, a, b, xs)
        assert not v.ok, (key, i)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_verify_check(fmt):
    a, b, y = 3.0, 2.0, 0.25
    out = run_cli(["fwhm", "--a", repr(a), "--b", repr(b), "--y", repr(y), "--verify", "--format", fmt])
    got = checks.parse_record(out, fmt, checks.VERIFY_FIELDS)
    ref = reference.cut(a, b, y)
    v = checks.Verdict()
    checks.check_verify(v, got, ref, a, b, y)
    assert v.ok, v.problems
    for field in checks.VERIFY_FIELDS[:-1]:
        v = checks.Verdict()
        checks.check_verify(v, dict(got, **{field: bump(got[field])}), ref, a, b, y)
        assert not v.ok, field


def test_formats_parse_to_the_same_numbers():
    argv = ["fwhm", "--a", "2.5", "--b", "1.5", "--y", "0.1", "--verify", "--format"]
    parsed = [checks.parse_record(run_cli(argv + [f]), f, checks.VERIFY_FIELDS) for f in workloads.FORMATS]
    assert parsed[0] == parsed[1] == parsed[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    one, again, other = cls(1), cls(1), cls(2)
    assert [op.params for op in one.ops] == [op.params for op in again.ops]
    assert [op.params for op in one.ops] != [op.params for op in other.ops]
    assert [op.fault for op in one.ops].count(None) == [op.fault for op in other.ops].count(None)


def test_seeded_cuts_reach_every_regime():
    labels = {op.label for op in workloads.LibCuts(7).ops if op.kind == "fwym"}
    assert labels == {"series", "series-halley", "halley", "log-form", "exponential", "degenerate"}
