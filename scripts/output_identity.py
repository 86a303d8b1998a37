"""Print every public output of gammabw, one line per call of a fixed sweep.

    python3 -S scripts/output_identity.py --sweep SRC
        print the sweep's lines for the package under the directory SRC;
        `--sweep src > tests/sweep.txt` regenerates the committed sweep,
        which tests/test_output_identity.py holds the working tree to.
        To compare with a git revision REV, run it on src/ of a
        `git worktree add` checkout of REV and diff the two outputs.

The sweep is one fixed, seeded list of calls over every public function of
gammabw.bandwidth, gammabw.lambertw, gammabw.gamma2 and gammabw.oracle.
Cuts, with r = ln(y)/(a-1), fall on each piece of the Lambert kernel: the
polynomial in s (_offsets, r above 1/2 + ln 1/2), the v form (r down to
ln 1/2), the fitted starts and one step from q = 1/2 on (r down to -7), de
Bruijn's tail below r = -7, and the log form at r - 1 <= -690; also y = 1,
a = 1 and the error paths. Each call is written as the expression that
makes it, so its line reads `expr = repr(value)`, or `expr ! Type: message`
when it raises. Standard library only.
"""

import importlib
import math
import random
import sys

SEED = 21
MODULES = ("bandwidth", "lambertw", "gamma2", "oracle")

# r = ln(y)/(a-1) on each piece of the kernel: (name, r_min, r_max). The
# sweep states its own bands, so that it does not depend on the tree it
# tests; tests/test_output_identity.py checks them against the kernel's map.
_V_FORM_R = 0.5 + math.log(0.5)
R_BANDS = (
    ("offsets", -0.19, -1e-12),
    ("v-form", math.log(0.5), _V_FORM_R),
    ("step", -7.0, math.log(0.5)),
    ("de-bruijn", -600.0, -7.0),
)
# r of the log-form cuts, drawn uniform: r - 1 <= -690
LOG_FORM_R = (-3000.0, -689.5)


def _each(template: str, rows) -> list[str]:
    """template filled in from each row of its arguments, written as source."""
    return [template.format(*([row] if isinstance(row, str) else row)) for row in rows]


# Inputs of the edges and error paths, written out.
FIXED = [
    # y outside (0, 1], at the branch point y = 1 and at a = 1
    *_each("{}(ShapeScale({}, 2.0), {})", [
        (fn, a, y)
        for fn in ("fwym", "octave_bandwidth")
        for a in ("3.0", "1.0")
        for y in ("0.0", "-0.5", "1.5", "nan", "inf", "1.0", "0.5", "1e-300", "5e-324")
    ]),
    *_each("fwym_shifted(GammaShapeSpec(ShapeScale({}, 2.0), 3.0, -1.5), {})", [
        (a, y) for a in ("1.0", "3.0") for y in ("0.25", "1.0", "0.0", "2.0")
    ]),
    # y = 1 at the smallest a - 1, through the kernel's branch point
    "fwym_shifted(GammaShapeSpec(ShapeScale(1.0000000000000002, 2.0), 3.0, -1.5), 1.0)",
    "octave_bandwidth(ShapeScale(1.0000000000000002, 2.0), 1.0)",
    "fwhm(ShapeScale(1.0, 1.0))",
    "fwhm(ShapeScale(2.0, 1.0))",
    # overflow of the mode, of a crossing and of the width
    *_each("{}(ShapeScale({}, {}), {})", [
        (fn, a, b, y)
        for fn in ("fwym", "octave_bandwidth")
        for a, b, y in (
            ("1e300", "1e300", "0.5"),
            ("2.0", "1e308", "0.5"),
            ("1.0", "1e308", "1e-300"),
            ("1.0001", "5e-324", "0.5"),
            ("1.0000000000000002", "1.0", "1e-300"),
        )
    ]),
    "fwym_shifted(GammaShapeSpec(ShapeScale(2.0, 1e307), s=-1.7e308), 0.5)",
    "fwym_shifted(GammaShapeSpec(ShapeScale(2.0, 1e308)), 0.5)",
    # the value classes and their checks
    *_each("ShapeScale({}, {})", [
        ("2", "1"), ("0.5", "1.0"), ("nan", "1.0"), ("inf", "1.0"),
        ("2.0", "0.0"), ("2.0", "-1.0"), ("2.0", "inf"), ("2.0", "nan"),
    ]),
    *_each("GammaShapeSpec(ShapeScale(2.0, 1.0), {}, {})", [
        ("1.0", "0.0"), ("0.0", "0.0"), ("-2.0", "0.0"), ("nan", "0.0"), ("1.0", "inf"), ("1.0", "nan"),
    ]),
    *_each("WidthResult({})", [
        "0.25, 2.75, 2.5, 1.0, 0.5", "0.0, inf, 1.0, 0.5, 0.5", "0.0, 1.0, inf, 0.5, 0.5",
        "0.0, 1.0, nan, 0.5, 0.5", "0.0, 1.0, 1.0, 2.0, 0.5", "0.0, 1.0, -1.0, 0.5, 0.5",
        "-inf, -inf, 1.0, -inf, 0.5",
    ]),
    *_each("OctaveResult({})", [
        "8.0, 0.5, 4.0", "inf, 1.0, 2.0", "1.0, 2.0, 1.0",
        "1.0, -1.0, 1.0", "2.0, 1.0, -1.0", "2.0, 1.0, nan",
    ]),
    # densities
    *_each("gamma_pdf({}, ShapeScale({}, {}))", [
        ("0.0", "1.0", "2.0"), ("0.0", "3.0", "2.0"), ("0.0", "1.0", "1e-309"), ("-1.0", "3.0", "2.0"),
        ("inf", "3.0", "2.0"), ("nan", "3.0", "2.0"), ("1.0", "3e305", "1.0"), ("1e-300", "1.0", "1e-300"),
        ("1e300", "1e10", "1e300"),
        # (a - 1)*ln(x) overflows where the density underflows
        ("1.7e308", "2.55e305", "0.5"), ("1.7e308", "2.55e305", "1.0"),
    ]),
    *_each("gamma_pdf_values({}, ShapeScale({}))", [
        ("[0.0, 1.0, 4.0, 1e300]", "3.0, 2.0"), ("iter([0.5, 2.0])", "1.0, 0.5"),
        ("[1.0, -1.0]", "3.0, 2.0"), ("[0.0, 1.0]", "3e305, 1.0"),
    ]),
    *_each("gamma_shaped({}, GammaShapeSpec(ShapeScale({}, {}), {}, {}))", [
        ("0.0", "1.0", "2.0", "3.0", "0.0"), ("1.0", "1.0", "2.0", "3.0", "-1.0"),
        ("0.0", "3.0", "2.0", "1.0", "0.0"), ("-1.0", "3.0", "2.0", "1.0", "0.0"),
        ("1e300", "100.0", "1e300", "1e300", "0.0"), ("1e-300", "2.0", "1.0", "1e300", "0.0"),
        ("1000.0", "1.0", "1.0", "1e300", "0.0"), ("1e308", "1e300", "1e300", "1.0", "0.0"),
    ]),
    *_each("mode(ShapeScale({}))", ["3.0, 2.0", "1.0, 5.0", "1e300, 1e300"]),
    # the inverse density and its errors
    *_each("inverse_pdf({}, ShapeScale({}), {})", [
        ("0.1", "3.0, 2.0", "0"), ("0.1", "1.0, 2.0", "Branch.PRINCIPAL"),
        ("0.0", "3.0, 2.0", "Branch.PRINCIPAL"), ("nan", "3.0, 2.0", "Branch.SECONDARY"),
        ("1.0", "3.0, 2.0", "Branch.SECONDARY"), ("1e-300", "1.0001, 5e-324", "Branch.PRINCIPAL"),
        ("1e-300", "2.0, 1e300", "Branch.SECONDARY"),
        ("1e-10", "1e306, 1.0", "Branch.PRINCIPAL"), ("1.0", "3e20, 3.0", "Branch.SECONDARY"),
        ("1e-300", "1e300, 1e300", "Branch.PRINCIPAL"),
    ]),
    # huge shapes, whose ln p_max once came from terms near a*ln(a) that cancel
    *_each("inverse_pdf({}, ShapeScale({}), Branch.{})", [
        (p, params, branch)
        for p, params in (
            ("4.3562990121086776e-242", "2.635049670822412e+89, 1.389e-320"),
            ("1e-30", "1e19, 0.7"), ("1e-30", "1e18, 3.0"), ("1e-30", "1e18, 0.7"),
            ("1e-160", "1e306, 1.0"), ("1e-30", "3e20, 3.0"), ("1e-30", "1e50, 3.0"),
        )
        for branch in ("PRINCIPAL", "SECONDARY")
    ]),
    # the normal-curve comparison
    *_each("gaussian_fwhm_approx(ShapeScale({}))", ["1.0, 1.0", "1e300, 1e300"]),
    *_each("approx_proportional_error(ShapeScale({}, 1.0))", [
        "1.0", "2.0", "1e4", "1.0000000001e4", "1e300",
    ]),
    *_each("gaussian_comparison({})", [
        "[1.0, 2.0, 3.0, 1e4, 2e4, 1e300]", "iter([2.0, 0.5])", "[2.0, nan]", "[]",
    ]),
    # Lambert W
    *_each("w0({})", [
        "0.0", "-0.0", "-0.36787944117144233", "-0.3678794411714424", "-0.36787944117144245", "-0.368", "-0.1",
        "-1e-300", "5e-324", "1.0", "2.718281828459045", "10.0", "1e300", "inf", "nan",
        # the seam q = 1/2 at -1/(2e) and its neighbours, and -DBL_MIN
        "-0.1839397205857212", "-0.18393972058572117", "-0.18393972058572114", "-2.2250738585072014e-308",
        # z > 0: e and 1e300 with their neighbours, where Halley's method in
        # z once switched its start and its scaling; where its terms would
        # overflow unscaled; near 0.066, once 2.2 ulps off; the largest double
        "2.7182818284590446", "2.7182818284590455", "9.999999999999999e+299", "1.0000000000000002e+300",
        "2.76e307", "0.066", "1.7976931348623157e+308",
    ]),
    *_each("wm1({})", [
        "-0.36787944117144233", "-0.36787944117144245", "-0.368", "-0.2", "-1e-300", "-5e-324", "-2e-310",
        "0.0", "1.0", "-inf", "nan",
        # the seam q = 1/2 and its neighbours, -DBL_MIN, and each side of
        # z ~ -1.6e-305, where exp(w) turns subnormal and the Newton step stops
        "-0.1839397205857212", "-0.18393972058572117", "-0.18393972058572114", "-2.2250738585072014e-308",
        "-1e-305", "-2e-305",
    ]),
    *_each("wm1_from_log({})", [
        "-1.0", "-0.9999999999999996", "-0.999", "-1e-300", "-2.5", "-1e6", "-1e300", "-inf", "nan",
    ]),
    *_each("branch_difference_from_log_ratio({})", [
        "0.0", "-0.0", "-5e-324", "1e-300", "-1e300", "-inf", "nan",
    ]),
    # the Gamma(2, b) helpers
    *_each("cdf_a2({}, {})", [
        ("0.0", "1.0"), ("1e-10", "1.0"), ("3.0", "2.0"), ("1e300", "1e-300"),
        ("-1.0", "1.0"), ("1.0", "0.0"), ("1.0", "nan"), ("1.0", "inf"),
    ]),
    *_each("quantile_a2({}, {})", [
        ("0.5", "1.0"), ("1e-300", "1.0"), ("0.999999", "1e306"), ("0.0", "1.0"), ("1.0", "1.0"),
        ("0.5", "-1.0"), ("0.5", "nan"),
    ]),
    *_each("median_a2({})", ["1.0", "1e-300", "1e308", "0.0", "inf"]),
    *_each("check_transform_identity({}, {})", [
        ("0.5", "1.0"), ("0.001", "1e-3"), ("0.999", "1e3"), ("0.0", "1.0"), ("0.5", "0.0"), ("0.5", "nan"),
    ]),
    # the oracle
    *_each("oracle_lambert_w({}, {})", [
        ("-0.36787944117144233", "Branch.PRINCIPAL"), ("-0.2", "Branch.PRINCIPAL"),
        ("5.0", "Branch.PRINCIPAL"), ("-0.5", "Branch.PRINCIPAL"), ("nan", "Branch.PRINCIPAL"),
        ("-0.2", "Branch.SECONDARY"), ("-1e-300", "Branch.SECONDARY"), ("0.1", "Branch.SECONDARY"),
        ("-0.2", "-1"),
        # q = 1 + e*z near 1e-12, the smallest subnormal and the largest double
        ("-0.36787944117107446", "Branch.PRINCIPAL"), ("-0.36787944117107446", "Branch.SECONDARY"),
        ("-5e-324", "Branch.PRINCIPAL"), ("-5e-324", "Branch.SECONDARY"),
        ("1.7976931348623157e+308", "Branch.PRINCIPAL"),
    ]),
    *_each("oracle_offsets({}, {})", [
        ("3.0", "0.5"), ("1e6", "0.999"), ("1.001", "1e-300"),
        ("1.0", "0.5"), ("3.0", "1.0"), ("3.0", "0.0"),
    ]),
    *_each("oracle_crossings(GammaShapeSpec(ShapeScale({}, {}), 1.0, {}), {})", [
        ("3.0", "2.0", "0.0", "0.5"), ("3.0", "2.0", "-1.0", "0.25"), ("2.0", "1e308", "0.0", "1e-300"),
        ("1.0", "2.0", "0.0", "0.5"),
    ]),
    *_each("oracle_median_a2({})", ["1.0", "1e-300", "1e300", "1.07e308", "1.7e308", "0.0"]),
]


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cut_inputs(rng: random.Random) -> list[tuple[float, float, float]]:
    """Seeded (a, b, y), 30 with r = ln(y)/(a-1) on each piece of the kernel."""
    cuts = []
    for _, r_lo, r_hi in R_BANDS:
        for _ in range(30):
            r = -_loguniform(rng, -r_hi, -r_lo)
            # a - 1 <= 700/-r keeps y = exp(r*(a - 1)) a normal double
            a = _loguniform(rng, 1.01, min(1e6, 1.0 - 700.0 / r))
            cuts.append((a, _loguniform(rng, 1e-9, 1e9), math.exp(r * (a - 1.0))))
    # the log form: a is then just above 1
    for _ in range(30):
        y = math.exp(rng.uniform(-700.0, -1.0))
        a = 1.0 + math.log(y) / rng.uniform(*LOG_FORM_R)
        cuts.append((a, _loguniform(rng, 1e-9, 1e9), y))
    return cuts


def calls() -> list[str]:
    """The sweep's calls, as expressions over the public names."""
    rng = random.Random(SEED)
    out = list(FIXED)
    for a, b, y in _cut_inputs(rng):
        params = f"ShapeScale({a!r}, {b!r})"
        spec = f"GammaShapeSpec({params}, {rng.uniform(0.1, 10.0)!r}, {rng.uniform(-5.0, 5.0)!r})"
        r = math.log(y) / (a - 1.0)
        out += [
            f"fwym({params}, {y!r})",
            f"octave_bandwidth({params}, {y!r})",
            f"fwym_shifted({spec}, {y!r})",
            f"fwhm({params})",
            f"branch_difference_from_log_ratio({r!r})",
            f"w0({-math.exp(r - 1.0)!r})",
            f"wm1({-math.exp(r - 1.0)!r})",
            f"wm1_from_log({r - 1.0!r})",
        ]
        # the density level at proportion y of the maximum, on both sides
        m = (a - 1.0) * b
        log_p = (a - 1.0) * math.log(m) - m / b - math.lgamma(a) - a * math.log(b) + math.log(y)
        if -700.0 < log_p < 700.0:
            for branch in ("PRINCIPAL", "SECONDARY"):
                out.append(f"inverse_pdf({math.exp(log_p)!r}, {params}, Branch.{branch})")
        out.append(f"gamma_pdf({rng.choice((0.5, 1.0, 2.0)) * m!r}, {params})")
    for _ in range(40):
        p, b = rng.uniform(0.001, 0.999), _loguniform(rng, 1e-9, 1e9)
        out += [
            f"quantile_a2({p!r}, {b!r})",
            f"cdf_a2({p * b!r}, {b!r})",
            f"check_transform_identity({p!r}, {b!r})",
        ]
    for _ in range(30):
        a, b, y = _loguniform(rng, 1.01, 1e6), _loguniform(rng, 1e-2, 1e2), rng.choice((0.1, 0.5, 0.9))
        out.append(f"oracle_crossings(GammaShapeSpec(ShapeScale({a!r}, {b!r})), {y!r})")
    for _ in range(30):
        z = -math.exp(rng.uniform(-700.0, -1.0))
        out += [f"w0({z!r})", f"wm1({z!r})", f"w0({-z * rng.uniform(0.5, 1e3)!r})"]
    shapes = [_loguniform(rng, 1.0, 1e17) for _ in range(40)]
    out.append(f"gaussian_comparison({shapes!r})")
    return out


def sweep(src: str) -> list[str]:
    """One line per call of the sweep, run on the package under src."""
    sys.path.insert(0, src)
    names = {"inf": math.inf, "nan": math.nan}
    for name in MODULES:
        module = importlib.import_module(f"gammabw.{name}")
        names.update({key: getattr(module, key) for key in module.__all__})
    lines = []
    for expr in calls():
        try:
            value = eval(expr, names)
        except Exception as exc:  # an error is an output to compare
            lines.append(f"{expr} ! {type(exc).__name__}: {exc}")
        else:
            lines.append(f"{expr} = {value!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--sweep":
        sys.stdout.write("".join(f"{line}\n" for line in sweep(argv[1])))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
