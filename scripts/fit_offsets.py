"""Fit the polynomial that gives both Lambert offsets below q = 1/2.

At z = -exp(r - 1) the offsets d = W + 1 of the two real branches solve
d + log1p(-d) = r, and d is analytic in s = +-sqrt(-2r) (the principal
branch for s > 0, the secondary for s < 0) out to |s| = sqrt(4*pi). Split
into odd and even parts in u = s**2, with the exact term -u/3 apart,

    W + 1 = s - u/3 + s*u*ODD(u) + u**2*EVEN(u),

ODD and EVEN are polynomials in u, interpolated at 60 digits (mpmath) at
the Chebyshev nodes of |s| <= 1.2, which covers q = -expm1(r) <= 1/2
(|s| <= sqrt(2 ln 2) = 1.1774). The script prints the two assignments that
gammabw.lambertw._offsets evaluates; with --check it exits 1 instead if the
coefficients committed there differ from a fresh fit.

Run from anywhere: python scripts/fit_offsets.py [--check]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from mpmath import cos, exp, lambertw, lu_solve, matrix, mp, mpf, pi, sqrt

_SOURCE = Path(__file__).resolve().parents[1] / "src" / "gammabw" / "lambertw.py"
S_MAX = "1.2"
TERMS = 10  # coefficients per part: W + 1 through s**22


def offset(s):
    """W + 1 at z = -exp(-s**2/2 - 1), on the branch the sign of s selects."""
    return lambertw(-exp(-s * s / 2 - 1), 0 if s > 0 else -1).real + 1


def parts(u):
    """(EVEN(u), ODD(u)) from the offsets at s = +-sqrt(u)."""
    s = sqrt(u)
    hi, lo = offset(s), offset(-s)
    return ((hi + lo) / (2 * u) + mpf(1) / 3) / u, ((hi - lo) / (2 * s) - 1) / u


def fit() -> tuple[list[float], list[float]]:
    """The (ODD, EVEN) coefficients, lowest power first, rounded to doubles."""
    with mp.workdps(60):
        u_max = mpf(S_MAX) ** 2
        nodes = [u_max * (1 + cos((2 * j + 1) * pi / (2 * TERMS))) / 2 for j in range(TERMS)]
        values = [parts(u) for u in nodes]
        vandermonde = matrix([[u**k for k in range(TERMS)] for u in nodes])
        even, odd = (lu_solve(vandermonde, matrix([v[i] for v in values])) for i in (0, 1))
        return [float(c) for c in odd], [float(c) for c in even]


def horner(name: str, prefix: str, coefficients: list[float]) -> str:
    """`name = prefix(c0 + u * (c1 + ...))`, one coefficient per line."""
    lines = [f"    {name} = {prefix}("]
    for i, c in enumerate(coefficients):
        tail = " + u * (" if i < len(coefficients) - 1 else ")" * len(coefficients)
        lines.append(f"        {c!r}{tail}")
    return "\n".join(lines)


def committed() -> dict[str, list[float]]:
    """The coefficients of each Horner assignment in lambertw._offsets."""
    tree = ast.parse(_SOURCE.read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_offsets")
    found = {}
    for node in fn.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("odd", "even"):
            term, coefficients = node.value.right, []  # prefix * (c0 + u * (c1 + ...))
            while isinstance(term, ast.BinOp) and isinstance(term.op, ast.Add):
                coefficients.append(ast.literal_eval(term.left))
                term = term.right.right
            found[node.targets[0].id] = [*coefficients, ast.literal_eval(term)]
    return found


def main(argv: list[str]) -> int:
    odd, even = fit()
    if argv == ["--check"]:
        if committed() != {"odd": odd, "even": even}:
            print(f"{_SOURCE.name}: _offsets coefficients differ from the fit", file=sys.stderr)
            return 1
        return 0
    if argv:
        print("usage: fit_offsets.py [--check]", file=sys.stderr)
        return 2
    print(horner("odd", "s * u * ", odd))
    print(horner("even", "u * u * ", even))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
