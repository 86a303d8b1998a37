"""Fit every Lambert table of gammabw.lambertw at 60 digits, and check them.

At z = -exp(r - 1) the offsets d = W + 1 of the two real branches solve
d + log1p(-d) = r, and d is analytic in s = +-sqrt(-2r) (the principal
branch for s > 0, the secondary for s < 0) out to |s| = sqrt(4*pi). Each
table is interpolated with mpmath at the Chebyshev nodes of its interval,
and its coefficients are rounded to doubles:

- `_offsets`, for q = -expm1(r) <= 1/2 (|s| <= sqrt(2 ln 2) = 1.1774; nodes
  on |s| <= 1.2): both offsets as W + 1 = s - u/3 + s*u*ODD(u) +
  u**2*EVEN(u) in the exact u = s**2. No step follows: each offset is
  within an ulp.
- `_secondary`, for r in [_TAIL_R, ln 1/2] = [-7, ln 1/2] (s in [1.1774,
  3.7417]): Wm1 + 1 as a polynomial in h = s - 5/2. Start error 1.2e-6
  relative.
- `_principal_v`, for x in [0, 1/(2e)], that is q >= 1/2: G = exp(-W0) - 1
  = x*P(x), with W0 = W0(-x) = -x*(1 + G). `_principal` calls it at x =
  exp(r - 1) down to the log form, and `w0` at x = -z. Start error 1.2e-6
  relative in 1 + G.

The secondary branch below r = _TAIL_R is not fitted. There w = -Wm1
solves w - ln w = L = 1 - r, and de Bruijn's series in lam = ln L through
1/L**5 starts it: w = L + lam + lam/L + lam*(1 - lam/2)/L**2 +
lam*(1 - 3*lam/2 + lam**2/3)/L**3 + lam*(1 - 3*lam + 11*lam**2/6 -
lam**3/4)/L**4 + lam*(1 - 5*lam + 35*lam**2/6 - 25*lam**3/12 +
lam**4/5)/L**5. Its error falls as L grows; in Wm1 + 1 it is at most
1.2e-6 relative, at L = 8. The script evaluates the series as lambertw.py
writes it, and reads _TAIL_R and the centre 5/2 from there too.

Each start takes one third-order (Chebyshev) step. For a start within e
of a root of f its error is (2*c2**2 - c3)*e**3 to leading order, with
c_k = f^(k)/(k! f') at the root. In relative terms that is
(1/2 + D/3)/(1 + D)**2 for the secondary branch's f(d) = d + log1p(-d) - r
at d = -D <= -1.678, at most 0.15, and 1/(2(1 - v)**2) - 1/(3(1 - v)) for
the principal branch's f(E) = ln E - x*E at v = -W0 <= 0.232, at most
0.42. The script measures the step's error at 60 digits from starts off
by +-STEP_BOUND = 2e-6 on each interval's grid and checks it against
STEP_CONSTANT*e**3 = 0.42*e**3: below 4e-18, a few hundredths of an ulp.
The start errors above are the largest on a grid of each interval, with
the rounded coefficients evaluated exactly.

`w0` on z >= 0 takes no table: Winitzki's start ln(1+z)*(1 - ln(1 +
ln(1+z))/(2 + ln(1+z))) and a fixed number of Halley steps on f(w) = w -
z*exp(-w). The script runs both as lambertw.py writes them, at 60 digits,
on z log-uniform in [5e-324, DBL_MAX] and uniform in [0, 5]. Its start
error is taken in units of min(W0, 1): relative where W0 <= 1 (1.97e-2 at
most, near z = 2) and absolute above (7.7e-2 at most, near W0 = 12). A
step takes an absolute error e to about |w(w - 2)|/(12(1 + w)**2)*e**3,
at most e**3/12, while a relative start error of 2e-2 at W0 = 700 would be
14 absolute, outside the steps' reach. From starts off by +-W0_START_BOUND
= 8e-2 in those units the steps must leave below
STEP_CONSTANT*STEP_BOUND**3 relative, the kernel steps' own bound: three
leave 1.6e-46, two 1.5e-16, so a dropped step fails the check.

The script prints the tables with their measured start and step errors;
with --check it exits 1 instead if the coefficients committed in
lambertw.py differ from a fresh fit, a start error exceeds STEP_BOUND (for
w0, W0_START_BOUND) or a step's exceeds STEP_CONSTANT*STEP_BOUND**3.

Run from anywhere: python scripts/fit_offsets.py [--check]
"""

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

from mpmath import cos, exp, lambertw, log, log1p, lu_solve, matrix, mp, mpf, pi, sqrt

_SOURCE = Path(__file__).resolve().parents[1] / "src" / "gammabw" / "lambertw.py"
STEP_BOUND = 2e-6
STEP_CONSTANT = 0.42
W0_START_BOUND = 8e-2  # in units of min(W0, 1)
GRID = 400  # grid points per interval for the start and step errors

S_OFFSETS = "1.2"
OFFSET_TERMS = 10  # coefficients per part: W + 1 through s**22

SECONDARY_TERMS = 6
PRINCIPAL_TERMS = 6
L_MAX = mpf("1e300")  # the tail's grid ends here; its errors fall as L grows


def _functions() -> dict[str, ast.AST]:
    """The function definitions of lambertw.py by name, and "" for the module."""
    tree = ast.parse(_SOURCE.read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    functions[""] = tree
    return functions


FUNCTIONS = _functions()


def assignment(function: str, name: str) -> ast.expr:
    """The value of the first assignment to name in function ("" for the module)."""
    nodes = FUNCTIONS[function].body if function == "" else ast.walk(FUNCTIONS[function])
    for node in nodes:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return node.value
    raise LookupError(f"{_SOURCE.name}: no assignment to {name} in {function or 'the module'}")


TAIL_R = ast.literal_eval(assignment("", "_TAIL_R"))
S_CENTRE = ast.literal_eval(assignment("_secondary", "h").right)  # h = sqrt(-2r) - S_CENTRE
ETA = compile(ast.Expression(assignment("_secondary", "eta")), _SOURCE.name, "eval")
W0_LN1Z = compile(ast.Expression(assignment("w0", "ln1z")), _SOURCE.name, "eval")
W0_START = compile(ast.Expression(assignment("w0", "w")), _SOURCE.name, "eval")
W0_STEPS = compile(  # w0's loop of Halley steps, its count included
    ast.Module([next(n for n in ast.walk(FUNCTIONS["w0"]) if isinstance(n, ast.For))], []),
    _SOURCE.name,
    "exec",
)


def offset(s):
    """W + 1 at z = -exp(-s**2/2 - 1), on the branch the sign of s selects."""
    return lambertw(-exp(-s * s / 2 - 1), 0 if s > 0 else -1).real + 1


def parts(u):
    """(EVEN(u), ODD(u)) from the offsets at s = +-sqrt(u)."""
    s = sqrt(u)
    hi, lo = offset(s), offset(-s)
    return ((hi + lo) / (2 * u) + mpf(1) / 3) / u, ((hi - lo) / (2 * s) - 1) / u


def principal_p(x):
    """P(x) = (exp(-W0(-x)) - 1)/x, from the series 1 + 3x/2 + ... at 0."""
    if x == 0:
        return mpf(1)
    return (-lambertw(-x, 0).real / x - 1) / x


def chebyshev_nodes(lo, hi, n):
    return [(lo + hi) / 2 + (hi - lo) / 2 * cos((2 * j + 1) * pi / (2 * n)) for j in range(n)]


def interpolate(nodes, values, centre=0):
    """Monomial coefficients in (t - centre), lowest first, through the points."""
    vandermonde = matrix([[(t - centre) ** k for k in range(len(nodes))] for t in nodes])
    return list(lu_solve(vandermonde, matrix(values)))


def horner_exact(coefficients, t):
    """The polynomial with the given double coefficients, evaluated exactly."""
    acc = mpf(0)
    for c in reversed(coefficients):
        acc = acc * t + mpf(c)
    return acc


def grid(lo, hi):
    return [lo + (hi - lo) * k / GRID for k in range(GRID + 1)]


def secondary_step(d, r):
    """_secondary's step on d + log1p(-d) = r from d."""
    c = 1 - d
    k = (d + log1p(-d) - r) * c / d
    return d + k * (1 - k / (2 * d * c))


def principal_step(g, x):
    """_principal_v's step on log1p(G) = x*(1 + G) from G = g, as v = -W0."""
    v = x * (1 + g)
    c = 1 - v
    k = (log1p(g) - v) / c
    return v - x * k * (1 + g) * (1 - k / (2 * c))


def step_error(roots) -> float:
    """Largest relative error of a step from starts off by +-STEP_BOUND, in
    units of STEP_BOUND**3; roots yields (root, step from a relative start
    error e)."""
    e = mpf(STEP_BOUND)
    worst = max(abs(step(sign * e) / root - 1) for root, step in roots for sign in (1, -1))
    return float(worst / e**3)


def fit() -> dict[str, tuple[list[float], str, float | None, float | None]]:
    """Each table by its assignment name: its coefficients, lowest power
    first, rounded to doubles; its interval; its measured start error and
    step error (in units of STEP_BOUND**3), None where no step follows."""
    tables = {}
    with mp.workdps(60):
        u_max = mpf(S_OFFSETS) ** 2
        nodes = chebyshev_nodes(0, u_max, OFFSET_TERMS)
        values = [parts(u) for u in nodes]
        for i, name in ((0, "even"), (1, "odd")):
            coefficients = [float(c) for c in interpolate(nodes, [v[i] for v in values])]
            tables[name] = (coefficients, f"|s| <= {S_OFFSETS}, no step", None, None)

        s_lo, s_hi = sqrt(2 * log(2)), sqrt(-2 * mpf(TAIL_R))
        nodes = chebyshev_nodes(s_lo, s_hi, SECONDARY_TERMS)
        values = [offset(-s) for s in nodes]
        coefficients = [float(c) for c in interpolate(nodes, values, S_CENTRE)]
        roots = [(offset(-s), -s * s / 2) for s in grid(s_lo, s_hi)]
        start = max(
            abs(horner_exact(coefficients, s - S_CENTRE) / d - 1)
            for s, (d, _) in zip(grid(s_lo, s_hi), roots)
        )
        step = step_error((d, lambda e, d=d, r=r: secondary_step(d * (1 + e), r)) for d, r in roots)
        interval = f"s in [{float(s_lo):.5g}, {float(s_hi):.5g}]"
        tables["d"] = (coefficients, interval, float(start), step)

        x_hi = exp(log(mpf(1) / 2) - 1)
        nodes = chebyshev_nodes(0, x_hi, PRINCIPAL_TERMS)
        coefficients = [float(c) for c in interpolate(nodes, [principal_p(x) for x in nodes])]
        start = max(
            abs((1 + x * horner_exact(coefficients, x)) / (1 + x * principal_p(x)) - 1)
            for x in grid(0, x_hi)
        )
        roots = [(x, 1 + x * principal_p(x)) for x in grid(0, x_hi)[1:]]  # (x, exp(v))
        step = step_error(
            (x * ev, lambda e, x=x, ev=ev: principal_step(ev * (1 + e) - 1, x)) for x, ev in roots
        )
        tables["g"] = (coefficients, f"x in [0, {float(x_hi):.5g}]", float(start), step)
    return tables


def tail_errors() -> tuple[float, float]:
    """The start and step errors of the secondary branch below r = TAIL_R,
    on L = 1 - r from 1 - TAIL_R to L_MAX, uniform in ln ln L: de Bruijn's
    series as lambertw.py evaluates it, eta from lam = ln L and t = 1/L."""
    with mp.workdps(60):
        starts, roots = [], []
        for big in (exp(exp(t)) for t in grid(log(log(mpf(1 - TAIL_R))), log(log(L_MAX)))):
            lam = log(big)
            w = big + lam  # -Wm1 solves w - ln w = big; Newton's method from here
            for _ in range(12):
                w -= (w - log(w) - big) / (1 - 1 / w)
            d, r = 1 - w, 1 - big
            starts.append(abs((r - (lam + eval(ETA, {"lam": lam, "t": 1 / big}))) / d - 1))
            roots.append((d, lambda e, d=d, r=r: secondary_step(d * (1 + e), r)))
        return float(max(starts)), step_error(roots)


def w0_errors() -> tuple[float, float]:
    """w0's start on z >= 0, in units of min(W0, 1), and the relative
    error of its steps from starts off by +-W0_START_BOUND in those units:
    the worst of each on z log-uniform in [5e-324, DBL_MAX] and uniform in
    [0, 5], with the start and the steps as lambertw.py writes them."""
    with mp.workdps(60):
        exact = SimpleNamespace(exp=exp, log1p=log1p)
        lo, hi = log(mpf(5e-324)), log(mpf(sys.float_info.max))
        starts, steps = [], []
        for z in [exp(t) for t in grid(lo, hi)] + grid(mpf(0), mpf(5))[1:]:
            w = lambertw(z).real
            unit = min(w, 1)
            names = {"math": exact, "z": z}
            names["ln1z"] = eval(W0_LN1Z, names)
            starts.append(abs(eval(W0_START, names) - w) / unit)
            for sign in (1, -1):
                names["w"] = w + sign * W0_START_BOUND * unit
                exec(W0_STEPS, names)
                steps.append(abs(names["w"] / w - 1))
        return float(max(starts)), float(max(steps))


def horner(name: str, prefix: str, variable: str, coefficients: list[float]) -> str:
    """`name = prefix(c0 + v * (c1 + ...))`, one coefficient per line."""
    lines = [f"    {name} = {prefix}("]
    for i, c in enumerate(coefficients):
        tail = f" + {variable} * (" if i < len(coefficients) - 1 else ")" * len(coefficients)
        lines.append(f"        {c!r}{tail}")
    return "\n".join(lines)


# (function in lambertw.py, assignment, prefix, Horner variable) per table
LAYOUT = (
    ("_offsets", "odd", "s * u * ", "u"),
    ("_offsets", "even", "u * u * ", "u"),
    ("_secondary", "d", "", "h"),
    ("_principal_v", "g", "x * ", "x"),
)


def committed() -> dict[str, list[float]]:
    """The coefficients of each Horner assignment of LAYOUT in lambertw.py,
    the first assignment to its name in its function."""
    found = {}
    for function, name, _, _ in LAYOUT:
        term, coefficients = assignment(function, name), []
        if isinstance(term.op, ast.Mult):  # prefix * (c0 + v * (c1 + ...))
            term = term.right
        while isinstance(term, ast.BinOp) and isinstance(term.op, ast.Add):
            coefficients.append(ast.literal_eval(term.left))
            term = term.right.right
        found[name] = [*coefficients, ast.literal_eval(term)]
    return found


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: fit_offsets.py [--check]", file=sys.stderr)
        return 2
    tables = fit()
    tail_start, tail_step = tail_errors()
    w0_start, w0_step = w0_errors()
    measured = [(a, b) for _, _, a, b in tables.values() if a is not None]
    starts = [tail_start] + [a for a, _ in measured]
    steps = [tail_step] + [b for _, b in measured]
    if argv:
        fresh = {name: coefficients for name, (coefficients, _, _, _) in tables.items()}
        if committed() != fresh:
            print(f"{_SOURCE.name}: coefficients differ from the fit", file=sys.stderr)
            return 1
        if max(starts) > STEP_BOUND:
            print(f"a start error {max(starts):.2g} exceeds {STEP_BOUND:g}", file=sys.stderr)
            return 1
        if max(steps) > STEP_CONSTANT:
            print(f"a step error {max(steps):.3g}*e**3 exceeds {STEP_CONSTANT:g}*e**3",
                  file=sys.stderr)
            return 1
        if w0_start > W0_START_BOUND:
            print(f"w0's start error {w0_start:.2g} exceeds {W0_START_BOUND:g}", file=sys.stderr)
            return 1
        if w0_step > STEP_CONSTANT * STEP_BOUND**3:
            print(f"w0's steps leave {w0_step:.2g}, above {STEP_CONSTANT * STEP_BOUND**3:.2g}",
                  file=sys.stderr)
            return 1
        return 0
    for function, name, prefix, variable in LAYOUT:
        coefficients, interval, start, step = tables[name]
        errors = "" if start is None else f", start error {start:.2g}, step error {step:.3f}*e**3"
        print(f"# {function}: {interval}{errors}")
        print(horner(name, prefix, variable, coefficients))
    print(f"# _secondary below r = {TAIL_R}: de Bruijn's series through 1/L**5, "
          f"start error {tail_start:.2g}, step error {tail_step:.3f}*e**3")
    print(f"# w0 on z >= 0: Winitzki's start, error {w0_start:.2g} in units of min(W0, 1); "
          f"its steps from +-{W0_START_BOUND:g} leave {w0_step:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
