"""scripts/ab_timing.py, which times a fixed list of calls on a git
revision's tree and the working tree's in alternating pairs: its list cuts
every piece of the Lambert kernel's map and reaches the CLI in every
format, a run of two pairs of the working tree against itself gives one
row per call, and its verdict follows the paired rule."""

import importlib.util
import math
import re
from pathlib import Path

import gammabw
from gammabw import cli, lambertw
from gammabw.lambertw import Branch

SRC = Path(gammabw.__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_timing.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ab_timing", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_cuts_take_every_piece_of_the_kernels_map():
    script = load_script()
    taken = {branch: set() for branch in Branch}
    for pieces, r in script.CUT_R:
        principal, secondary = (lambertw._piece(branch, r) for branch in Branch)
        assert pieces == f"{principal}/{secondary}", r
        taken[Branch.PRINCIPAL].add(principal)
        taken[Branch.SECONDARY].add(secondary)
    for branch in Branch:
        assert taken[branch] == {name for name, _, _ in lambertw._PIECES[branch]}, branch


def test_calls_reach_the_cli_in_every_format():
    script = load_script()
    called = [name for name, _ in script.calls()]
    assert len(set(called)) == len(called)
    for fmt in cli._FORMATS:
        assert f"cli._emit_record {fmt}" in called
        assert f"cli.main fwhm --verify --format {fmt}" in called
    for name in ("cli._plain_args", "bandwidth.fwym", "oracle.oracle_offsets"):
        assert any(call.startswith(name) for call in called), name
    assert script.RECORD_FIELDS == cli._VERIFY_FIELDS
    assert cli._plain_args(script.VERIFY_ARGV + ["json"]).verify


def test_two_pairs_of_the_working_tree():
    script = load_script()
    lines = script.report(SRC, SRC, "same", pairs=2)
    assert lines[0].startswith("python ") and "2 pairs" in lines[0]
    rows = lines[2:]
    assert [row[:42].rstrip() for row in rows] == [name for name, _ in script.calls()]
    number = r"(\d+\.\d{3})"
    cell = rf"{number} \[{number}, {number}\]"
    for row in rows:
        match = re.fullmatch(rf".{{42}} {cell} +{cell} +([012])/2 +-", row)
        assert match, row
        values = [float(v) for v in match.groups()[:6]]
        assert all(math.isfinite(v) and v > 0.0 for v in values), row
        # each cell is median [q1, q3]
        assert values[1] <= values[0] <= values[2] and values[4] <= values[3] <= values[5], row


def test_verdict_is_the_paired_rule():
    script = load_script()
    theirs = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # 9 of 10 won by a gap wider than the quartile spread
    assert script.verdict(theirs, [t - 1.0 for t in theirs[:9]] + [11.0]) == (9, "faster")
    assert script.verdict(theirs, [t + 1.0 for t in theirs]) == (0, "slower")
    # 8 of 10 won, or too small a gap, or too few pairs: no verdict
    assert script.verdict(theirs, [t - 1.0 for t in theirs[:8]] + [11.0, 11.0]) == (8, "-")
    assert script.verdict(theirs, [t - 0.01 for t in theirs]) == (10, "-")
    assert script.verdict(theirs[:9], [t - 1.0 for t in theirs[:9]]) == (9, "-")
