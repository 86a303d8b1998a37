import ast
import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from goldens import GOLDEN_INVOCATIONS
from hypothesis import given, settings
from hypothesis import strategies as st

from gammabw import cli, lambertw
from gammabw.bandwidth import ShapeScale, approx_proportional_error, fwhm, fwym

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "gammabw", *argv], capture_output=True
    )


class TestGoldenFiles:
    @pytest.mark.parametrize("name,argv", GOLDEN_INVOCATIONS, ids=[n for n, _ in GOLDEN_INVOCATIONS])
    def test_byte_identical(self, name, argv):
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN_DIR / name).read_bytes()

    def test_deterministic_repeat(self):
        argv = ["curve", "--a", "3", "--b", "2", "--n", "64", "--format", "csv"]
        assert run_cli(argv).stdout == run_cli(argv).stdout

    def test_console_script_entry_point(self):
        import shutil

        exe = shutil.which("gammabw")
        if exe is None:
            pytest.skip("console script not on PATH (package not installed)")
        proc = subprocess.run([exe, "fwhm", "--a", "2", "--b", "1"], capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "fwhm_a2_b1.plain").read_bytes()


class TestFwhmCommand:
    def test_plain_fields(self, capsys):
        assert cli.main(["fwhm", "--a", "2", "--b", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        res = fwhm(ShapeScale(2.0, 1.0))
        assert [float(v) for v in lines] == [res.width, res.x_low, res.x_high, res.mode]

    def test_json_round_trips_exactly(self, capsys):
        assert cli.main(["fwhm", "--a", "3", "--b", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        res = fwhm(ShapeScale(3.0, 2.0))
        assert obj == {
            "width": res.width,
            "x_low": res.x_low,
            "x_high": res.x_high,
            "mode": res.mode,
        }

    def test_csv_17_digit_fields_round_trip(self, capsys):
        assert cli.main(["fwhm", "--a", "3", "--b", "2", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "width,x_low,x_high,mode"
        res = fwhm(ShapeScale(3.0, 2.0))
        got = [float(v) for v in row.split(",")]
        assert got == [res.width, res.x_low, res.x_high, res.mode]

    def test_exponential_case(self, capsys):
        assert cli.main(["fwhm", "--a", "1", "--b", "1"]) == 0
        width = float(capsys.readouterr().out.splitlines()[0])
        assert width == pytest.approx(math.log(2.0), rel=1e-15)

    def test_custom_proportion(self, capsys):
        assert cli.main(["fwhm", "--a", "2", "--b", "1", "--y", "0.9"]) == 0
        width = float(capsys.readouterr().out.splitlines()[0])
        assert width == fwym(ShapeScale(2.0, 1.0), 0.9).width

    def test_shape_below_one_exits_2(self, capsys):
        assert cli.main(["fwhm", "--a", "0.5", "--b", "1"]) == 2
        err = capsys.readouterr().err
        assert "a must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fwhm", "--a", "2", "--b", "0"],
            ["fwhm", "--a", "2", "--b", "1", "--y", "0"],
            ["fwhm", "--a", "2", "--b", "1", "--y", "1.5"],
        ],
    )
    def test_invalid_parameters_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fwhm", "--a", "2", "--b", "1", "--nope"])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["fwhm", "--a", "2", "--b", "1e308"],
            ["fwhm", "--a", "1e300", "--b", "1e300"],
            ["fwhm", "--a", "1", "--b", "1e308", "--y", "1e-300"],
            ["octave", "--a", "2", "--b", "1e308"],
            ["curve", "--a", "1e306", "--b", "1", "--n", "2"],
            ["curve", "--a", "1", "--b", "5e-324", "--n", "3"],
            ["curve", "--a", "1", "--b", "1e-310", "--n", "2", "--xmax", "1", "--format", "csv"],
        ],
    )
    def test_overflow_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "overflow" in captured.err
        assert captured.out == ""


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fwhm", "--a", "inf", "--b", "1"], "shape parameter a must be finite, got inf"),
            (["fwhm", "--a", "2", "--b", "inf"], "scale parameter b must be finite, got inf"),
            (["octave", "--a", "nan", "--b", "1"], "shape parameter a must be finite, got nan"),
            (
                ["curve", "--a", "3", "--b", "2", "--xmax", "inf"],
                "xmax must be finite, got inf",
            ),
            (
                ["curve", "--a", "2", "--b", "1e308"],
                "default xmax mode + 8*b*sqrt(a) overflows double precision",
            ),
            (
                ["compare", "--a-min", "1.5", "--a-max", "inf"],
                "a_min and a_max must be finite, got 1.5, inf",
            ),
            (
                ["compare", "--a-min", "nan", "--a-max", "10"],
                "a_min and a_max must be finite, got nan, 10.0",
            ),
        ],
    )
    def test_exit_2_saying_finite(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["curve", "--a", "3", "--b", "2", "--xmax", "-1"], "xmax must be positive, got -1.0"),
            (
                ["compare", "--a-min", "5", "--a-max", "2"],
                "need 1 < a_min < a_max, got 5.0, 2.0",
            ),
        ],
    )
    def test_finite_out_of_range_messages_unchanged(self, argv, message, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["curve", "--a", "3", "--b", "2", "--xmax", "-inf"], "xmax must be finite, got -inf"),
            (["fwhm", "--a", "-inf", "--b", "1"], "shape parameter a must be finite, got -inf"),
            (["fwhm", "--a", "2", "--b", "-nan"], "scale parameter b must be finite, got nan"),
            (
                ["octave", "--a", "-Infinity", "--b", "1"],
                "shape parameter a must be finite, got -inf",
            ),
            (
                ["compare", "--a-min", "-inf", "--a-max", "10"],
                "a_min and a_max must be finite, got -inf, 10.0",
            ),
            (
                ["fwhm", "--a", "2", "--b", "1", "--y", "-1e-3"],
                "proportion of maximum must lie in (0, 1], got -0.001",
            ),
        ],
    )
    def test_separate_negative_value_reaches_the_range_check(self, argv, message, capsys):
        # argparse alone takes "-inf" for a flag: "expected one argument"
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--a", "3", "--b", "2", "--xmax", "--format", "csv"],
            ["fwhm", "--a", "--b", "1"],
            ["fwhm", "--a", "2", "--b", "-x"],
        ],
    )
    def test_missing_value_keeps_the_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


NEAR_PEAK_CUTS = [
    ("3", "2", "0.9999999999"),
    ("3", "2", "0.9999999999999999"),
    ("1000", "1", "0.9999999999999999"),
    # q = 0.134, 1.001e-3 and 0.134 (y = 3.7e-22) below the peak,
    # where the offsets come from the polynomial in s
    ("3", "2", "0.75"),
    ("3", "1", "0.997999002001"),
    ("344.26743150597076", "1", "3.692834310546129e-22"),
]
UNDERFLOWING_MODE_CUTS = [
    ("1.0000000000000002", "1e-320", "1.540484830175479e-28"),
    ("1.5", "5e-324", "0.5"),
    ("1.0000000000000002", "1e-310", "0.5"),
    ("1.001", "1e-320", "0.5"),
]


def verify_argv(a, b, y):
    return ["fwhm", "--a", a, "--b", b, "--y", y, "--verify", "--format", "json"]


class TestVerify:
    def test_passes_and_emits_discrepancy(self, capsys):
        assert cli.main(["fwhm", "--a", "2", "--b", "1", "--verify", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {
            "width", "x_low", "x_high", "mode", "oracle_width", "relative_discrepancy",
        }
        assert obj["relative_discrepancy"] <= 1e-8

    def test_verify_exponential_shape(self, capsys):
        assert cli.main(["fwhm", "--a", "1", "--b", "2", "--verify"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("a,b,y", NEAR_PEAK_CUTS)
    def test_near_peak_cuts_pass(self, capsys, a, b, y):
        # the oracle solves for the offsets from the mode, so it stays exact
        # where the two crossings merge, and as tight on the polynomial's cuts
        assert cli.main(verify_argv(a, b, y)) == 0
        assert json.loads(capsys.readouterr().out)["relative_discrepancy"] <= 1e-15

    @pytest.mark.parametrize("a,b,y", UNDERFLOWING_MODE_CUTS)
    def test_underflowing_mode_cuts_pass(self, capsys, a, b, y):
        # (a-1)*b is 0 or a few subnormal ulps: the oracle is solved at unit
        # scale and its width multiplied by b
        assert cli.main(verify_argv(a, b, y)) == 0
        assert json.loads(capsys.readouterr().out)["oracle_width"] > 0.0

    def test_zero_oracle_width_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_oracle_width", lambda params, y: 0.0)
        assert cli.main(["fwhm", "--a", "2", "--b", "1", "--verify"]) == 3
        assert "verification failed" in capsys.readouterr().err

    def test_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_oracle_width", lambda params, y: 999.0)
        assert cli.main(["fwhm", "--a", "2", "--b", "1", "--verify"]) == 3
        captured = capsys.readouterr()
        assert "verification failed" in captured.err
        assert captured.out  # the record is still emitted


class TestOctaveCommand:
    def test_fields(self, capsys):
        assert cli.main(["octave", "--a", "2", "--b", "1", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["octaves"] == pytest.approx(3.529389003723367, abs=1e-13)
        assert obj["high"] > obj["low"] > 0.0

    def test_scale_invariance(self, capsys):
        assert cli.main(["octave", "--a", "2", "--b", "50", "--format", "json"]) == 0
        big = json.loads(capsys.readouterr().out)
        assert cli.main(["octave", "--a", "2", "--b", "1", "--format", "json"]) == 0
        unit = json.loads(capsys.readouterr().out)
        assert big["octaves"] == unit["octaves"]

    def test_exponential_shape_exits_2(self, capsys):
        assert cli.main(["octave", "--a", "1", "--b", "1"]) == 2
        capsys.readouterr()


class TestCurveCommand:
    def test_grid_and_annotations(self, capsys):
        assert cli.main(["curve", "--a", "3", "--b", "2", "--n", "5", "--xmax", "8", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,pdf"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:6]]
        assert [r[0] for r in rows] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert rows[0][1] == 0.0
        # the row at the mode carries the largest emitted value
        assert max(rows, key=lambda r: r[1])[0] == 4.0
        assert [ln.split("=")[0] for ln in lines[6:]] == [
            "# fwhm_width", "# fwhm_x_low", "# fwhm_x_high", "# fwhm_mode",
        ]

    def test_default_grid_size(self, capsys):
        assert cli.main(["curve", "--a", "2", "--b", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([ln for ln in lines if not ln.startswith(("x,", "#"))]) == 512

    def test_exponential_curve_peaks_at_origin(self, capsys):
        assert cli.main(["curve", "--a", "1", "--b", "2", "--n", "9", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:10]]
        assert rows[0] == (0.0, 0.5)
        assert all(r1[1] > r2[1] for r1, r2 in zip(rows, rows[1:]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--a", "3", "--b", "2", "--n", "1"],
            ["curve", "--a", "3", "--b", "2", "--xmax", "-1"],
            ["curve", "--a", "3", "--b", "2", "--xmax", "0"],
        ],
    )
    def test_invalid_grid_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2
        capsys.readouterr()


class TestCompareCommand:
    def test_columns(self, capsys):
        assert cli.main(["compare", "--a-min", "2", "--a-max", "100", "--points", "5", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["a"][0] == 2.0 and obj["a"][-1] == 100.0
        assert len(obj["a"]) == 5
        for w, g, e in zip(obj["fwhm"], obj["gaussian_fwhm"], obj["proportional_error"]):
            assert g > w > 0.0
            assert e > 0.0
        errs = obj["proportional_error"]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        # gaussian column is the closed form at b = 1
        coef = 2.0 * math.sqrt(2.0 * math.log(2.0))
        for a, g in zip(obj["a"], obj["gaussian_fwhm"]):
            assert g == coef * math.sqrt(a)

    def test_one_fwhm_per_row(self, capsys, count_calls):
        # one width evaluation per row: one cut of the Lambert kernel
        counts = count_calls((lambertw,), ("_cut",))
        assert cli.main(["compare", "--a-min", "1.5", "--a-max", "1e6", "--points", "9", "--format", "json"]) == 0
        assert counts == {"_cut": 9}
        obj = json.loads(capsys.readouterr().out)
        for a, e in zip(obj["a"], obj["proportional_error"]):
            assert e == approx_proportional_error(ShapeScale(a, 1.0))

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--a-min", "1", "--a-max", "10"],
            ["compare", "--a-min", "5", "--a-max", "2"],
            ["compare", "--a-min", "2", "--a-max", "10", "--points", "1"],
        ],
    )
    def test_invalid_sweeps_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        capsys.readouterr()


def reference_table(obj, names, annotations, fmt):
    """csv or plain text of a table, one value at a time with repr and
    format(v, ".16e"), from the columns and annotations of its json form."""
    rows = list(zip(*(obj[name] for name in names)))
    if fmt == "csv":
        lines = [",".join(names)]
        lines += [",".join(format(v, ".16e") for v in row) for row in rows]
        lines += [f"# {name}={format(obj[name], '.16e')}" for name in annotations]
    else:
        lines = [repr(v) for row in rows for v in row]
        lines += [repr(obj[name]) for name in annotations]
    return "".join(line + "\n" for line in lines)


TABLES = {
    "curve": (
        ["curve", "--a", "2.75", "--b", "0.6", "--n"],
        ["x", "pdf"],
        ["fwhm_width", "fwhm_x_low", "fwhm_x_high", "fwhm_mode"],
    ),
    "compare": (
        ["compare", "--a-min", "1.001", "--a-max", "2e5", "--points"],
        ["a", "fwhm", "gaussian_fwhm", "proportional_error"],
        [],
    ),
}
BLOCK = cli._BLOCK_ROWS


def seeded_records(seed):
    """fwhm (with --verify) and octave argv: zeros at a = 1 and y = 1, then
    seeded shapes, scales and proportions."""
    rng = random.Random(seed)
    cases = [
        ["fwhm", "--a", "1", "--b", "2.5", "--verify"],
        ["fwhm", "--a", "3", "--b", "2", "--y", "1", "--verify"],
        ["octave", "--a", "2.5", "--b", "0.3", "--y", "1"],
    ]
    for _ in range(4):
        a = repr(1.0 + math.exp(rng.uniform(-8.0, 12.0)))
        b = repr(math.exp(rng.uniform(-200.0, 200.0)))
        y = repr(rng.uniform(0.01, 0.99))
        cases.append(["fwhm", "--a", a, "--b", b, "--y", y, "--verify"])
        cases.append(["octave", "--a", a, "--b", b, "--y", y])
    return cases


class TestTableBlocks:
    @pytest.mark.parametrize("rows", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("command", sorted(TABLES))
    def test_bytes_match_one_value_at_a_time(self, command, rows, capsys):
        prefix, names, annotations = TABLES[command]
        argv = prefix + [str(rows)]
        assert cli.main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj[names[0]]) == rows
        for fmt in ("csv", "plain"):
            assert cli.main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == reference_table(obj, names, annotations, fmt)

    @pytest.mark.parametrize("argv", seeded_records(7), ids=" ".join)
    def test_record_bytes_match_one_value_at_a_time(self, argv, capsys):
        # a record is a one-row table with no annotations
        assert cli.main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        names = list(obj)
        row = {name: [value] for name, value in obj.items()}
        for fmt in ("csv", "plain"):
            assert cli.main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == reference_table(row, names, [], fmt)


RECORD_NAMES = ["width", "x_low", "x_high", "mode", "oracle_width", "relative_discrepancy"]
# floats whose repr, ".16e" and json forms differ in kind from a plain value
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.5e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]


def record_fields(seed, k):
    """Seeded records of k fields: every edge value in every position once,
    then values spread over the whole exponent range."""
    rng = random.Random(seed)
    names = RECORD_NAMES[:k]
    records = []
    for edge in EDGE_VALUES:
        for i in range(k):
            values = [rng.uniform(-1.0, 1.0) for _ in range(k)]
            values[i] = edge
            records.append(list(zip(names, values)))
    for _ in range(20):
        values = [rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-740.0, 709.0)) for _ in range(k)]
        records.append(list(zip(names, values)))
    return records


class TestRecordWriter:
    @pytest.mark.parametrize("fmt", cli._FORMATS)
    @pytest.mark.parametrize("k", [1, 3, 4, 6])
    def test_bytes_match_a_one_row_table(self, capsys, fmt, k):
        # in json a table's column is a list: of one value, in a one-row table
        for fields in record_fields(seed=k, k=k):
            cli._emit_record(fields, fmt)
            record = capsys.readouterr().out
            cli._emit_table([(name, [value]) for name, value in fields], [], fmt)
            table = capsys.readouterr().out
            if fmt == "json":
                table = table.replace(": [", ": ").replace("], ", ", ").replace("]}", "}")
            assert record == table, fields

    def test_one_write_per_record(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        fields = list(zip(RECORD_NAMES, EDGE_VALUES))
        for fmt in cli._FORMATS:
            cli._emit_record(fields, fmt)
        assert len(writes) == len(cli._FORMATS)


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "bad",
        [
            ["fwhm", "--a", "2"],
            ["curve", "--a", "3", "--b", "2", "--n", "x"],
            ["octave", "--a", "2", "--b", "1", "--format", "xml"],
            ["nosuch"],
        ],
    )
    def test_rejected_argv_leaves_later_calls_intact(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert cli.main(["fwhm", "--a", "2", "--b", "1"]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "fwhm_a2_b1.plain").read_bytes()

    def test_subcommands_in_sequence_match_fresh_processes(self, capsys):
        # each golden file is the stdout of a fresh process
        for invocations in (GOLDEN_INVOCATIONS, GOLDEN_INVOCATIONS[::-1]):
            for name, argv in invocations:
                assert cli.main(argv) == 0
                assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes(), name


def argparse_attrs(argv):
    """vars() of argparse's parse of argv, each value by repr so that NaN
    equals NaN, or None where argparse exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            parsed = cli._build_parser().parse_args(cli._join_float_values(argv))
        except SystemExit:
            return None
    return {name: repr(value) for name, value in vars(parsed).items()}


def plain_attrs(argv):
    """The plain path's parse of argv in argparse_attrs' form, or None."""
    parsed = cli._plain_args(argv)
    if parsed is None:
        return None
    return {name: repr(value) for name, value in vars(parsed).items()}


def argvs_of_this_file():
    """Every argv written out in this module, a list of strings that starts
    with a subcommand, and every argv that its tests build from their
    parameters, each once."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    found = [
        [elt.value for elt in node.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.List)
        and node.elts
        and all(isinstance(elt, ast.Constant) and isinstance(elt.value, str) for elt in node.elts)
        and node.elts[0].value in cli._COMMANDS
    ]
    found += [verify_argv(*cut) for cut in NEAR_PEAK_CUTS + UNDERFLOWING_MODE_CUTS]
    found += [prefix + ["5"] for prefix, _, _ in TABLES.values()]
    found += [argv + ["--format", "csv"] for argv in seeded_records(7)]
    return list({tuple(argv): argv for argv in found}.values())


# Spellings the plain path takes, beside the golden invocations, and the
# spellings it leaves to argparse: abbreviations, repeats, help, "--",
# negative ints, a value on --verify, and usage errors.
PLAIN_SPELLINGS = [
    "fwhm --a=-inf --b 1",
    "fwhm --a -inf --b 1",
    "fwhm --b=1 --a 2 --format json --y=-0.25 --verify",
    "curve --a 3 --b 2 --n 1_0",
    "curve --a 3 --b 2 --xmax=-3 --n=5",
    "fwhm --a 2 --b 1 --format=csv",
    "compare --a-min=nan --a-max -1e5 --points=7",
]
ARGPARSE_SPELLINGS = [
    "fwhm --verif --a 2 --b 1",
    "fwhm --a 2 --b 1 --form csv",
    "compare --a-m 2 --a-max 10",
    "fwhm --a 2 --a 3 --b 1",
    "fwhm --a 2 --b 1 --verify --verify",
    "curve --a 3 --b 2 --n -5",
    "curve --a 3 --b 2 --n=-5",
    "compare --a-min 2 --a-max 10 --points -1_0",
    "fwhm --a 2 --b 1 --format CSV",
    "fwhm --a 2 --b 1 --verify=1",
    "fwhm --a 2 --b 1 --",
    "-h",
    "fwhm -h",
    "",
    "nosuch",
    "nosuch --a 2 --b 1",
    "fwh --a 2 --b 1",
    "fwhm --a 2 --b",
    "fwhm --a 2 --b 1 --y",
]


class TestPlainParse:
    """main parses a plainly spelled argv itself and sends every other one
    to argparse; what it parses itself, argparse parses alike."""

    @pytest.mark.parametrize(
        "argv",
        [argv for _, argv in GOLDEN_INVOCATIONS] + [s.split() for s in PLAIN_SPELLINGS],
        ids=" ".join,
    )
    def test_plain_spellings_match_argparse(self, argv):
        got = plain_attrs(argv)
        assert got is not None
        assert got == argparse_attrs(argv)

    @pytest.mark.parametrize(
        "argv", [s.split() for s in ARGPARSE_SPELLINGS], ids=lambda argv: " ".join(argv) or "(empty)"
    )
    def test_other_spellings_go_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    @pytest.mark.parametrize("argv", argvs_of_this_file(), ids=" ".join)
    def test_argvs_of_this_file(self, argv):
        # each is spelled plainly, so the plain path takes exactly those
        # that argparse takes
        assert plain_attrs(argv) == argparse_attrs(argv)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_argv_the_plain_path_takes_argparse_takes_alike(self, data):
        # the subcommand's required options, then its other options with
        # values of their type or not, spelled in every way, and junk
        command = data.draw(st.sampled_from([*cli._COMMANDS, "fw", "-h"]))
        options = {option[0]: option for option in cli._COMMANDS.get(command, ((), (), ()))[2]}
        typed = {
            float: st.floats().map(repr) | st.sampled_from(["-inf", "-nan", "1_0", "-1e5", " 7"]),
            int: st.integers(-20, 600).map(str) | st.sampled_from(["1_0", "-1_0", " 7"]),
            None: st.sampled_from(cli._FORMATS),
            bool: st.sampled_from(["1", ""]),
        }
        junk = st.one_of(st.sampled_from(["-inf", "", "CSV", "-h", "--"]), st.text(max_size=3))
        optional = [flag for flag, option in options.items() if not option[4]]
        flags = st.sampled_from(optional * 4 + ["--a", "--verif", "--form", "--n", "-h", "--", "-x"])
        spellings = st.sampled_from(["--opt value"] * 3 + ["--opt=value"] * 2 + ["--opt", "value"])
        argv = [command]
        if data.draw(st.integers(0, 3)):
            argv += [token for flag, option in options.items() if option[4] for token in (flag, "2")]
        for _ in range(data.draw(st.integers(0, 3))):
            flag = data.draw(flags)
            kind = options[flag][2] if flag in options else float
            value = data.draw(st.one_of(typed[kind], typed[kind], junk))
            argv += {
                "--opt value": [flag, value],
                "--opt=value": [flag + "=" + value],
                "--opt": [flag],
                "value": [value],
            }[data.draw(spellings)]
        got = plain_attrs(argv)
        if got is not None:
            assert got == argparse_attrs(argv)


class TestOptionTable:
    """_build_parser and _plain_args read one table; argparse's help and
    defaults show the table's options."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_the_table(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        usage = text.split("\n\n")[0]
        _, _, options = cli._COMMANDS[command]
        assert re.findall(r"^  (--[\w-]+)", text, re.M) == [option[0] for option in options]
        for flag, _, _, _, required, choices, _ in options:
            assert bool(re.search(rf"\[{flag}[ \]]", usage)) is not required, flag
            if choices:
                assert re.search(rf"^  {flag} \{{{','.join(choices)}\}}", text, re.M), flag

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_defaults_are_the_tables(self, command):
        _, _, options = cli._COMMANDS[command]
        argv = [command]
        for flag, _, _, _, required, _, _ in options:
            if required:
                argv += [flag, "2"]
        want = {dest: 2.0 if required else default for _, dest, _, default, required, _, _ in options}
        parsed = vars(cli._build_parser().parse_args(argv))
        assert {dest: parsed[dest] for dest in want} == want

    def test_float_options_are_the_tables(self):
        options = [option for _, _, options in cli._COMMANDS.values() for option in options]
        assert cli._FLOAT_OPTIONS == {option[0] for option in options if option[2] is float}
