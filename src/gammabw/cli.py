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

import functools
import math
import sys
from collections.abc import Sequence
from types import SimpleNamespace

# approx_proportional_error, gamma_pdf and oracle_crossings are not called
# here; they stay importable from this module, where benchmarks/tracing.py
# wraps them.
from .bandwidth import (  # noqa: F401
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
from .oracle import oracle_crossings, oracle_offsets  # noqa: F401

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

_FORMATS = ("csv", "json", "plain")
_VERIFY_REL_TOL = 1e-8
# Rows of a csv or plain table formatted by one %-operation and written
# with one write. Larger blocks run no faster, and from about 4096 rows
# their strings raise the peak RSS of a large table.
_BLOCK_ROWS = 1024


def _json_line(obj: dict) -> str:
    # json is imported here, not at the top: most runs write csv or plain,
    # and loading it costs about a third of the import of this module.
    import json

    return json.dumps(obj) + "\n"


def _row(fmt: str, k: int) -> str:
    """The %-template of one csv or plain row of k floats: "%.16e" % v is
    format(v, ".16e") and "%r" % v is repr(v)."""
    return ",".join(["%.16e"] * k) + "\n" if fmt == "csv" else "%r\n" * k


def _emit_record(fields: list[tuple[str, float]], fmt: str) -> None:
    """One row, written as _emit_table writes a table of one row, by one
    %-operation and one write."""
    if fmt == "json":
        # json.dumps writes inf and nan as Infinity and NaN; formatting the
        # record by hand would need a second encoder for them
        sys.stdout.write(_json_line(dict(fields)))
        return
    names, values = zip(*fields)
    header = ",".join(names) + "\n" if fmt == "csv" else ""
    sys.stdout.write(header + _row(fmt, len(values)) % values)


def _emit_table(
    columns: list[tuple[str, list[float]]],
    annotations: list[tuple[str, float]],
    fmt: str,
) -> None:
    out = sys.stdout
    if fmt == "json":
        obj: dict[str, object] = {name: values for name, values in columns}
        obj.update(annotations)
        out.write(_json_line(obj))
        return
    k = len(columns)
    if fmt == "csv":
        out.write(",".join(name for name, _ in columns) + "\n")
    row = _row(fmt, k)
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
    a = params.a
    if a == 1.0:
        # Exponential case: the level equation exp(-x/b) = y is solved
        # algebraically; the bracketing oracle needs an interior maximum.
        return -params.b * math.log(y)
    # Solved at unit scale, where the mode a-1 cannot underflow as (a-1)*b
    # can, and scaled by b once. Shifted by the mode, the crossings are the
    # mode times the two offsets from it, of opposite signs, so their
    # difference does not cancel.
    a1 = a - 1.0
    u_low, u_high = oracle_offsets(a, y)
    return (a1 * u_high - a1 * u_low) * params.b


def _cmd_fwhm(args: SimpleNamespace) -> int:
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
        rel = abs(res.width - ow) / ow if 0.0 < ow < math.inf else math.inf
        if res.width == ow:  # a zero width also matches a zero oracle width
            rel = 0.0
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


def _cmd_octave(args: SimpleNamespace) -> int:
    params = ShapeScale(args.a, args.b)
    res = octave_bandwidth(params, args.y)
    _emit_record(
        [("octaves", res.octaves), ("high", res.high), ("low", res.low)],
        args.format,
    )
    return EXIT_OK


def _cmd_curve(args: SimpleNamespace) -> int:
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


def _cmd_compare(args: SimpleNamespace) -> int:
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


# The options of the subcommands, as (flag, dest, type, default, required,
# choices, help). The type is float or int for a value that it converts,
# None for a string from choices, or bool for a flag that takes no value
# and stores True. _build_parser and _plain_args both read _COMMANDS.
_A = ("--a", "a", float, None, True, None, "shape parameter")
_B = ("--b", "b", float, None, True, None, "scale parameter")
_Y = ("--y", "y", float, 0.5, False, None, "proportion of the maximum (default 0.5)")
_VERIFY = (
    "--verify", "verify", bool, False, False, None,
    "cross-check the width against the crossing oracle",
)
_N = ("--n", "n", int, 512, False, None, "number of grid points")
_XMAX = ("--xmax", "xmax", float, None, False, None, "grid upper end (default: mode + 8*b*sqrt(a))")
_A_MIN = ("--a-min", "a_min", float, None, True, None, "smallest shape (> 1)")
_A_MAX = ("--a-max", "a_max", float, None, True, None, "largest shape")
_POINTS = ("--points", "points", int, 200, False, None, "number of log-spaced shapes")
_FORMAT = ("--format", "format", None, "plain", False, _FORMATS, "output format")
# subcommand: (handler, help, options in the order its help lists them)
_COMMANDS = {
    "fwhm": (
        _cmd_fwhm, "full width at a proportion of the maximum", (_A, _B, _Y, _VERIFY, _FORMAT)
    ),
    "octave": (_cmd_octave, "crossing ratio in octaves", (_A, _B, _Y, _FORMAT)),
    "curve": (_cmd_curve, "sampled density with width annotations", (_A, _B, _N, _XMAX, _FORMAT)),
    "compare": (
        _cmd_compare, "exact width versus normal-curve estimate", (_A_MIN, _A_MAX, _POINTS, _FORMAT)
    ),
}
# subcommand: (handler, {flag: option}), for _plain_args
_PLAIN = {
    command: (func, {option[0]: option for option in options})
    for command, (func, _, options) in _COMMANDS.items()
}
# Options whose value is a float: a value after one of them that starts
# with "-" and parses as a float is joined to it (see _join_float_values).
_FLOAT_OPTIONS = frozenset(
    option[0]
    for _, _, options in _COMMANDS.values()
    for option in options
    if option[2] is float
)


@functools.cache
def _build_parser():
    """The argparse.ArgumentParser, built once per process: parse_args
    keeps no state in it. Only argv that _plain_args leaves reach it, so
    argparse is imported here, not at the top."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gammabw",
        description="Exact widths of gamma-shaped functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, dest, kind, default, required, choices, text in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(
                    flag, dest=dest, type=kind, default=default, required=required,
                    choices=choices, help=text,
                )
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes argparse gives a plainly spelled argv, or None.

    Plain is: the subcommand exactly, then each of its own options spelled
    in full and given once, as "--opt value" or "--opt=value", with every
    required one present. A float value is one float() takes, "-inf" too,
    which argparse gets joined to its option (see _join_float_values). An
    int value is one int() takes that does not start with "-": argparse
    reads "-1_0" as a flag. A choice is one of its choices, and a flag
    carries no "=value". Anything else, help and every usage error among
    it, is left to argparse.
    """
    plain = _PLAIN.get(argv[0]) if argv else None
    if plain is None:
        return None
    func, options = plain
    given: dict[str, object] = {}
    i, n = 1, len(argv)
    while i < n:
        flag, eq, value = argv[i].partition("=")
        i += 1
        option = options.get(flag)
        if option is None:
            return None
        _, dest, kind, _, _, choices, _ = option
        if dest in given:
            return None
        if kind is bool:
            if eq:
                return None
            given[dest] = True
            continue
        if not eq:
            if i == n:
                return None
            value = argv[i]
            i += 1
        if kind is None:
            if value not in choices:
                return None
        elif kind is int and value.startswith("-"):
            return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        given[dest] = value
    for _, dest, _, default, required, _, _ in options.values():
        if dest not in given:
            if required:
                return None
            given[dest] = default
    return SimpleNamespace(command=argv[0], func=func, **given)


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
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = _build_parser().parse_args(_join_float_values(argv), SimpleNamespace())
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
