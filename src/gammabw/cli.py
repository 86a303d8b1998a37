"""Command line front end.

Subcommands:
  fwhm     width of a gamma density at a proportion of its maximum
  octave   crossing ratio in octaves
  curve    sampled density table with width annotations
  compare  exact width versus the normal-curve estimate over a shape sweep

Data goes to stdout, diagnostics to stderr. Exit codes: 0 on success, 2 on
invalid parameters or usage, 3 when --verify finds a discrepancy. Output is
byte-deterministic: csv uses 17-significant-digit scientific notation with
a single header row, json is one object with shortest round-trip floats,
plain is one value per line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Sequence

# approx_proportional_error and gamma_pdf are not called here; they stay
# importable from this module, where benchmarks/tracing.py wraps them.
from .bandwidth import (  # noqa: F401
    GammaShapeSpec,
    ShapeScale,
    approx_proportional_error,
    fwhm,
    fwym,
    gamma_pdf,
    gamma_pdf_values,
    gaussian_comparison,
    mode,
    octave_bandwidth,
)
from .oracle import oracle_crossings

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

_FORMATS = ("csv", "json", "plain")
_VERIFY_REL_TOL = 1e-8
# Options whose value is a float: a value after one of them that starts
# with "-" and parses as a float is joined to it (see _join_float_values).
_FLOAT_OPTIONS = frozenset({"--a", "--b", "--y", "--xmax", "--a-min", "--a-max"})
# Rows of a csv or plain table formatted by one %-operation and written
# with one write. Larger blocks run no faster, and from about 4096 rows
# their strings raise the peak RSS of a large table.
_BLOCK_ROWS = 1024


def _emit_record(fields: list[tuple[str, float]], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(dict(fields)) + "\n")
    else:
        _emit_table([(name, [value]) for name, value in fields], [], fmt)


def _emit_table(
    columns: list[tuple[str, list[float]]],
    annotations: list[tuple[str, float]],
    fmt: str,
) -> None:
    out = sys.stdout
    if fmt == "json":
        obj: dict[str, object] = {name: values for name, values in columns}
        obj.update(annotations)
        out.write(json.dumps(obj) + "\n")
        return
    # "%.16e" % v is format(v, ".16e") and "%r" % v is repr(v).
    k = len(columns)
    if fmt == "csv":
        out.write(",".join(name for name, _ in columns) + "\n")
        row = ",".join(["%.16e"] * k) + "\n"
    else:
        row = "%r\n" * k
    n = len(columns[0][1])
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        flat = [0.0] * ((stop - start) * k)
        for j, (_, values) in enumerate(columns):
            flat[j::k] = values[start:stop]
        out.write(row * (stop - start) % tuple(flat))
    for name, value in annotations:
        out.write(f"# {name}={value:.16e}\n" if fmt == "csv" else f"{value!r}\n")


def _oracle_width(params: ShapeScale, y: float) -> float:
    if y == 1.0:
        return 0.0
    if params.a == 1.0:
        # Exponential case: the level equation exp(-x/b) = y is solved
        # algebraically; the bracketing oracle needs an interior maximum.
        return -params.b * math.log(y)
    # Shifted by the mode, the crossings are the mode times the two offsets
    # from it, of opposite signs, so their difference does not cancel.
    lo, hi = oracle_crossings(GammaShapeSpec(params, s=mode(params)), y)
    return hi - lo


def _cmd_fwhm(args: argparse.Namespace) -> int:
    params = ShapeScale(args.a, args.b)
    res = fwym(params, args.y)
    fields = [
        ("width", res.width),
        ("x_low", res.x_low),
        ("x_high", res.x_high),
        ("mode", res.mode),
    ]
    code = EXIT_OK
    if args.verify:
        ow = _oracle_width(params, args.y)
        rel = 0.0 if res.width == ow else abs(res.width - ow) / abs(ow)
        fields.append(("oracle_width", ow))
        fields.append(("relative_discrepancy", rel))
        if rel > _VERIFY_REL_TOL:
            print(
                f"verification failed: relative discrepancy {rel:.3e} "
                f"exceeds {_VERIFY_REL_TOL:.0e}",
                file=sys.stderr,
            )
            code = EXIT_VERIFY
    _emit_record(fields, args.format)
    return code


def _cmd_octave(args: argparse.Namespace) -> int:
    params = ShapeScale(args.a, args.b)
    res = octave_bandwidth(params, args.y)
    _emit_record(
        [("octaves", res.octaves), ("high", res.high), ("low", res.low)],
        args.format,
    )
    return EXIT_OK


def _cmd_curve(args: argparse.Namespace) -> int:
    params = ShapeScale(args.a, args.b)
    if args.n < 2:
        raise ValueError(f"curve needs at least 2 grid points, got {args.n}")
    xmax = args.xmax
    if xmax is None:
        xmax = mode(params) + 8.0 * params.b * math.sqrt(params.a)
        if not math.isfinite(xmax):
            raise ValueError("default xmax mode + 8*b*sqrt(a) overflows double precision")
    if not math.isfinite(xmax):
        raise ValueError(f"xmax must be finite, got {xmax!r}")
    if not xmax > 0.0:
        raise ValueError(f"xmax must be positive, got {xmax!r}")
    xs = [xmax * (i / (args.n - 1)) for i in range(args.n)]
    ps = gamma_pdf_values(xs, params)
    res = fwhm(params)
    annotations = [
        ("fwhm_width", res.width),
        ("fwhm_x_low", res.x_low),
        ("fwhm_x_high", res.x_high),
        ("fwhm_mode", res.mode),
    ]
    _emit_table([("x", xs), ("pdf", ps)], annotations, args.format)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    a_min, a_max, n = args.a_min, args.a_max, args.points
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise ValueError(f"a_min and a_max must be finite, got {a_min!r}, {a_max!r}")
    if not (1.0 < a_min < a_max):
        raise ValueError(f"need 1 < a_min < a_max, got {a_min!r}, {a_max!r}")
    if n < 2:
        raise ValueError(f"compare needs at least 2 points, got {n}")
    log_lo, log_hi = math.log(a_min), math.log(a_max)
    shapes = [math.exp(log_lo + (log_hi - log_lo) * (i / (n - 1))) for i in range(n)]
    shapes[0], shapes[-1] = a_min, a_max
    widths, gaussians, errors = gaussian_comparison(shapes)
    _emit_table(
        [
            ("a", shapes),
            ("fwhm", widths),
            ("gaussian_fwhm", gaussians),
            ("proportional_error", errors),
        ],
        [],
        args.format,
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gammabw",
        description="Exact widths of gamma-shaped functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shape_scale_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, required=True, help="shape parameter")
        p.add_argument("--b", type=float, required=True, help="scale parameter")

    def format_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=_FORMATS, default="plain", help="output format"
        )

    p = sub.add_parser("fwhm", help="full width at a proportion of the maximum")
    shape_scale_args(p)
    p.add_argument(
        "--y", type=float, default=0.5, help="proportion of the maximum (default 0.5)"
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the width against the crossing oracle",
    )
    format_arg(p)
    p.set_defaults(func=_cmd_fwhm)

    p = sub.add_parser("octave", help="crossing ratio in octaves")
    shape_scale_args(p)
    p.add_argument(
        "--y", type=float, default=0.5, help="proportion of the maximum (default 0.5)"
    )
    format_arg(p)
    p.set_defaults(func=_cmd_octave)

    p = sub.add_parser("curve", help="sampled density with width annotations")
    shape_scale_args(p)
    p.add_argument("--n", type=int, default=512, help="number of grid points")
    p.add_argument(
        "--xmax",
        type=float,
        default=None,
        help="grid upper end (default: mode + 8*b*sqrt(a))",
    )
    format_arg(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("compare", help="exact width versus normal-curve estimate")
    p.add_argument("--a-min", type=float, required=True, help="smallest shape (> 1)")
    p.add_argument("--a-max", type=float, required=True, help="largest shape")
    p.add_argument(
        "--points", type=int, default=200, help="number of log-spaced shapes"
    )
    format_arg(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv: Sequence[str]) -> list[str]:
    """argv with "--opt", "-inf" written as "--opt=-inf" for each float option.

    argparse takes a separate value that starts with "-" and is not a plain
    decimal (-inf, -nan, -1e5) for a flag and fails with "expected one
    argument"; joined, the value reaches the option's own range check.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _FLOAT_OPTIONS and arg.startswith("-") and _is_float(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(
        _join_float_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
