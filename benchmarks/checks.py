"""Checks of program outputs against the mpmath references and the method.

All checks here run in plain floats on double-double references (see
reference.py). Each tolerance is stated with the reason it has that size:

- widths: 1e-12 relative. The branch-point series that gives widths near
  the peak is truncated at ~1e-13 (lambertw.py); everywhere else widths
  are exact to ~1e-16.
- crossings: 1e-12 half-widths beyond ulp(mode), the crossing bound of
  ROADMAP aim 3. The mode itself is only known to an ulp.
- values read through one Lambert W solve (inverse, quantile): the 1e-12
  round-trip bound of the acceptance suite, carried through the
  derivative of W, plus the rounding of the program's own log-space
  argument, bounded term by term.
- density values: the rounding of each term of the log-density, carried
  through exp.

A result perturbed by 1e-10 relative fails each of these on the inputs
the workloads generate (test_checks.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

EPS = 2.0**-52
WIDTH_REL = 1e-12
CROSS_HW = 1e-12
LAMBERT_REL = 1e-12
ORACLE_ATOL_REL = 1e-12  # oracle.py bisects each crossing to 1e-12*(m + b)

FWHM_FIELDS = ("width", "x_low", "x_high", "mode")
VERIFY_FIELDS = FWHM_FIELDS + ("oracle_width", "relative_discrepancy")
COMPARE_COLUMNS = ("a", "fwhm", "gaussian_fwhm", "proportional_error")
CURVE_COLUMNS = ("x", "pdf")
CURVE_ANNOTATIONS = ("fwhm_width", "fwhm_x_low", "fwhm_x_high", "fwhm_mode")
GAUSS_UNIT_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass
class Verdict:
    """Outcome of checking one operation, with its accuracy readings."""

    problems: list[str] = field(default_factory=list)
    width_err: float = 0.0
    cross_err_hw: float = 0.0
    numbers: object = None  # parsed CLI output, compared across formats
    level: list[tuple] = field(default_factory=list)  # reference.level_brackets arguments

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, msg: str) -> None:
        self.problems.append(msg)


def err(x: float, ref: list[float]) -> float:
    """|x - ref| for a double-double reference [hi, lo]."""
    return abs((x - ref[0]) - ref[1])


def check_width(v: Verdict, width: float, ref: list[float]) -> None:
    if ref[0] == 0.0:
        if width != 0.0:
            v.fail(f"width {width!r} where the reference is 0")
        return
    rel = err(width, ref) / ref[0]
    v.width_err = max(v.width_err, rel)
    if not rel <= WIDTH_REL:
        v.fail(f"width {width!r} off by {rel:.3e} relative")


def check_crossing(v: Verdict, name: str, x: float, ref: list[float], mode: float, hw: float) -> None:
    beyond = max(0.0, err(x, ref) - math.ulp(mode))
    if beyond == 0.0:
        return
    hw_err = beyond / hw if hw > 0.0 else math.inf
    v.cross_err_hw = max(v.cross_err_hw, hw_err)
    if not hw_err <= CROSS_HW:
        v.fail(f"{name} {x!r} off by {hw_err:.3e} half-widths beyond ulp(mode)")


def check_cut(v: Verdict, got: dict, ref: dict, a: float, b: float, y: float) -> None:
    """Width, crossings and mode of one cut, plus the properties of the method."""
    mode_ref = ref["mode"][0]
    if not err(got["mode"], ref["mode"]) <= 2.0 * math.ulp(mode_ref):
        v.fail(f"mode {got['mode']!r} is not (a-1)*b = {mode_ref!r}")
    check_width(v, got["width"], ref["width"])
    hw = 0.5 * ref["width"][0]
    check_crossing(v, "x_low", got["x_low"], ref["x_low"], mode_ref, hw)
    check_crossing(v, "x_high", got["x_high"], ref["x_high"], mode_ref, hw)
    if not got["x_low"] <= got["mode"] <= got["x_high"]:
        v.fail("crossings do not straddle the mode")
    if a > 1.0 and y < 1.0:
        tol = math.ulp(mode_ref) + CROSS_HW * hw
        v.level.append((a, b, y, got["x_low"], tol, True))
        v.level.append((a, b, y, got["x_high"], tol, False))
    if a == 1.0:
        span = -b * math.log(y)
        if got["x_low"] != 0.0 or not abs(got["width"] - span) <= WIDTH_REL * span:
            v.fail(f"a = 1 must give x_low = 0 and width -b*ln(y) = {span!r}")


def check_octave(v: Verdict, res, ref: dict) -> None:
    """Octave count and its two crossings. Near the peak the count is about
    2*hw/(m ln 2), so a crossing error of 1e-12 half-widths is 1e-12 of it;
    farther out the count is larger and the same errors matter less."""
    mode_ref = ref["mode"][0]
    hw = 0.5 * ref["width"][0]
    check_crossing(v, "low", res.low, ref["x_low"], mode_ref, hw)
    check_crossing(v, "high", res.high, ref["x_high"], mode_ref, hw)
    rel = err(res.octaves, ref["octaves"]) / ref["octaves"][0]
    if not rel <= CROSS_HW:
        v.fail(f"octaves {res.octaves!r} off by {rel:.3e} relative")


def inverse_tol(a: float, b: float, p: float, x_ref: float) -> float:
    """Allowed error of the density inverse at level p.

    The program forms t = (ln p + lgamma(a) + a ln b)/(a-1) - ln m and
    returns -m*W(-exp(t)); dx/dt = x*m/|x - m|, and W carries its
    round-trip error through the same factor.
    """
    m = (a - 1.0) * b
    terms = abs(math.log(p)) + abs(math.lgamma(a)) + abs(a * math.log(b)) + abs((a - 1.0) * math.log(m))
    dt = 4.0 * EPS * terms / (a - 1.0) + LAMBERT_REL
    return dt * x_ref * m / abs(x_ref - m) + 2.0 * math.ulp(x_ref)


def check_inverse(v: Verdict, x: float, ref: dict, a: float, b: float, p: float) -> None:
    x_ref = ref["x"][0]
    if not err(x, ref["x"]) <= inverse_tol(a, b, p, x_ref):
        v.fail(f"inverse_pdf {x!r} off by {err(x, ref['x']):.3e}")


def check_quantile(v: Verdict, x: float, ref: dict, b: float) -> None:
    """x = -b*(1 + W): W's round-trip error scales by |W|/|1 + W| = (b + x)/x."""
    x_ref = ref["x"][0]
    tol = LAMBERT_REL * b * (b + x_ref) / x_ref + 2.0 * math.ulp(x_ref)
    if not err(x, ref["x"]) <= tol:
        v.fail(f"quantile {x!r} off by {err(x, ref['x']):.3e}")


def pdf_tol(x: float, a: float, b: float, p_ref: float) -> float:
    """Rounding of each term of the log-density, carried through exp."""
    if x == 0.0:
        return 0.0
    terms = 1.0 + abs((a - 1.0) * math.log(x)) + x / b + abs(math.lgamma(a)) + abs(a * math.log(b))
    return 4.0 * EPS * terms * p_ref + 4.0 * math.ulp(p_ref)


# ---- CLI output parsing ---------------------------------------------------


def parse_record(out: bytes, fmt: str, names: tuple[str, ...]) -> dict[str, float]:
    text = out.decode("utf-8")
    if fmt == "json":
        obj = json.loads(text)
        return {name: float(obj[name]) for name in names}
    lines = text.splitlines()
    if fmt == "csv":
        if tuple(lines[0].split(",")) != names:
            raise ValueError(f"csv header {lines[0]!r}")
        return dict(zip(names, map(float, lines[1].split(","))))
    if len(lines) != len(names):
        raise ValueError(f"{len(lines)} plain lines for {len(names)} fields")
    return dict(zip(names, map(float, lines)))


def parse_table(
    out: bytes, fmt: str, columns: tuple[str, ...], n: int, annotations: tuple[str, ...]
) -> dict[str, object]:
    """Columns as lists of floats and annotations as floats, in one dict."""
    text = out.decode("utf-8")
    if fmt == "json":
        obj = json.loads(text)
        if set(obj) != set(columns) | set(annotations):
            raise ValueError(f"json keys {sorted(obj)}")
        return obj
    lines = text.splitlines()
    k = len(columns)
    if fmt == "csv":
        if tuple(lines[0].split(",")) != columns:
            raise ValueError(f"csv header {lines[0]!r}")
        rows = [tuple(map(float, line.split(","))) for line in lines[1 : n + 1]]
        parsed: dict[str, object] = {c: [r[j] for r in rows] for j, c in enumerate(columns)}
        for line, name in zip(lines[n + 1 :], annotations):
            key, value = line[2:].split("=")
            if not line.startswith("# ") or key != name:
                raise ValueError(f"csv annotation {line!r}")
            parsed[name] = float(value)
        tail = len(lines) - n - 1
    else:
        values = list(map(float, lines))
        parsed = {c: values[j : n * k : k] for j, c in enumerate(columns)}
        parsed.update(zip(annotations, values[n * k :]))
        tail = len(lines) - n * k
    if tail != len(annotations) or any(len(parsed[c]) != n for c in columns):
        raise ValueError("table has the wrong number of rows")
    return parsed


# ---- CLI checks -----------------------------------------------------------


def check_verify(v: Verdict, got: dict, ref: dict, a: float, b: float, y: float) -> None:
    check_cut(v, got, ref, a, b, y)
    m = (a - 1.0) * b
    width_ref = ref["width"][0]
    if a > 1.0:
        tol = 2.0 * ORACLE_ATOL_REL * (m + b) * (1.0 + 1e-6) + 4.0 * math.ulp(width_ref)
        if not err(got["oracle_width"], ref["width"]) <= tol:
            v.fail(f"oracle_width {got['oracle_width']!r} off by more than its bracket")
    w, ow = got["width"], got["oracle_width"]
    rel = 0.0 if w == ow else abs(w - ow) / abs(ow)
    if not abs(got["relative_discrepancy"] - rel) <= 4.0 * EPS * rel:
        v.fail(f"relative_discrepancy {got['relative_discrepancy']!r} is not |w - ow|/ow = {rel!r}")


def compare_shapes(a_min: float, a_max: float, n: int) -> list[float]:
    """The documented sweep: n log-spaced shapes from a_min to a_max."""
    lo, hi = math.log(a_min), math.log(a_max)
    shapes = [math.exp(lo + (hi - lo) * (i / (n - 1))) for i in range(n)]
    shapes[0], shapes[-1] = a_min, a_max
    return shapes


def check_compare(v: Verdict, got: dict, ref: dict, shapes: list[float]) -> None:
    for i, a in enumerate(shapes):
        a_out, w, g, pe = (got[c][i] for c in COMPARE_COLUMNS)
        if not abs(a_out - a) <= 2.0 * math.ulp(a):
            v.fail(f"row {i}: shape {a_out!r} is not the log-spaced {a!r}")
        check_width(v, w, ref["fwhm"][i])
        if not err(g, ref["gaussian_fwhm"][i]) <= 4.0 * EPS * g:
            v.fail(f"row {i}: gaussian_fwhm {g!r} is not 2*sqrt(2 ln 2)*sqrt(a)")
        if not abs(g - GAUSS_UNIT_SIGMA * math.sqrt(a_out)) <= 4.0 * EPS * g:
            v.fail(f"row {i}: gaussian_fwhm {g!r} does not follow from its shape")
        # pe = g/w - 1 inherits the width error, relative to g/w = 1 + pe
        if not err(pe, ref["proportional_error"][i]) <= (1.0 + pe) * (WIDTH_REL + 4.0 * EPS):
            v.fail(f"row {i}: proportional_error {pe!r} off by {err(pe, ref['proportional_error'][i]):.3e}")
        if not abs(pe - (g / w - 1.0)) <= 4.0 * EPS * (1.0 + pe):
            v.fail(f"row {i}: proportional_error {pe!r} is not gaussian/fwhm - 1")
        if v.problems:
            return


def curve_grid(a: float, b: float, n: int) -> list[float]:
    """The documented grid: n points from 0 to mode + 8*b*sqrt(a)."""
    xmax = (a - 1.0) * b + 8.0 * b * math.sqrt(a)
    return [xmax * (i / (n - 1)) for i in range(n)]


def check_curve(v: Verdict, got: dict, ref: dict, a: float, b: float, xs: list[float]) -> None:
    for i, x in enumerate(xs):
        x_out, p = got["x"][i], got["pdf"][i]
        if not abs(x_out - x) <= math.ulp(x):
            v.fail(f"point {i}: x {x_out!r} is not xmax*i/(n-1) = {x!r}")
            return
        p_ref = ref["pdf"][i]
        if not err(p, p_ref) <= pdf_tol(x, a, b, p_ref[0]):
            v.fail(f"point {i}: pdf({x!r}) = {p!r} off by {err(p, p_ref):.3e}")
            return
    annotated = {name: got["fwhm_" + name] for name in FWHM_FIELDS}
    check_cut(v, annotated, ref["fwhm"], a, b, 0.5)
