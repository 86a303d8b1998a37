"""50-digit mpmath references for the benchmark's inputs.

Run as a child process before timing, so that mpmath never enters the
measured process:

    python3 benchmarks/reference.py OUT.json < requests.json

Each request is a JSON list whose first element names its kind; the reply
is a JSON list with one object per request, in order. Every reference value
is a double-double pair [hi, lo] with hi = float(v) and lo = float(v - hi),
so the checks can form |x - v| in plain floats without losing the digits
that a single rounded float would drop.

`level_brackets` is the Lambert-free property check, used after timing.
"""

from __future__ import annotations

import json
import sys

import mpmath

from checks import compare_shapes, curve_grid

mpmath.mp.dps = 50
mpf = mpmath.mpf


def dd(v) -> list[float]:
    hi = float(v)
    return [hi, float(v - hi)]


def _branches(a, y):
    r = mpmath.log(y) / (a - 1)
    z = -mpmath.exp(r - 1)
    return mpmath.lambertw(z, 0).real, mpmath.lambertw(z, -1).real


def cut(a: float, b: float, y: float) -> dict:
    """Crossings, width, mode and octave count of Gamma(a, b) cut at y."""
    a, b, y = mpf(a), mpf(b), mpf(y)
    m = (a - 1) * b
    if a == 1:
        span = -b * mpmath.log(y)
        return {"x_low": dd(0), "x_high": dd(span), "width": dd(span), "mode": dd(0)}
    if y == 1:
        return {"x_low": dd(m), "x_high": dd(m), "width": dd(0), "mode": dd(m)}
    w_lo, w_hi = _branches(a, y)
    return {
        "x_low": dd(-m * w_lo),
        "x_high": dd(-m * w_hi),
        "width": dd(m * (w_lo - w_hi)),
        "mode": dd(m),
        "octaves": dd(mpmath.log(w_hi / w_lo, 2)),
    }


def inverse(a: float, b: float, p: float, principal: bool) -> dict:
    """Abscissa where the Gamma(a, b) density equals p, on one side."""
    a, b, p = mpf(a), mpf(b), mpf(p)
    m = (a - 1) * b
    t = (mpmath.log(p) + mpmath.loggamma(a) + a * mpmath.log(b)) / (a - 1) - mpmath.log(m)
    w = mpmath.lambertw(-mpmath.exp(t), 0 if principal else -1).real
    return {"x": dd(-m * w), "mode": dd(m)}


def quantile(p: float, b: float) -> dict:
    """Quantile of Gamma(2, b) at level p."""
    w = mpmath.lambertw((mpf(p) - 1) / mpmath.e, -1).real
    return {"x": dd(-mpf(b) * (1 + w))}


def compare(a_min: float, a_max: float, n: int) -> dict:
    """Exact FWHM, normal-curve FWHM and their ratio minus one, at unit
    scale, for each shape of the sweep."""
    fwhm, gauss, pe = [], [], []
    unit_sigma = 2 * mpmath.sqrt(2 * mpmath.log(2))
    for a in compare_shapes(a_min, a_max, n):
        a = mpf(a)
        w_lo, w_hi = _branches(a, mpf(0.5))
        w = (a - 1) * (w_lo - w_hi)
        g = unit_sigma * mpmath.sqrt(a)
        fwhm.append(dd(w))
        gauss.append(dd(g))
        pe.append(dd(g / w - 1))
    return {"fwhm": fwhm, "gaussian_fwhm": gauss, "proportional_error": pe}


def curve(a: float, b: float, n: int) -> dict:
    """Density at each grid abscissa, plus the FWHM cut for the annotations."""
    a_, b_ = mpf(a), mpf(b)
    log_norm = mpmath.loggamma(a_) + a_ * mpmath.log(b_)
    pdf = []
    for x in curve_grid(a, b, n):
        if x == 0.0:
            pdf.append(dd(1 / b_ if a_ == 1 else 0))
            continue
        x = mpf(x)
        pdf.append(dd(mpmath.exp((a_ - 1) * mpmath.log(x) - x / b_ - log_norm)))
    return {"pdf": pdf, "fwhm": cut(a, b, 0.5)}


_KINDS = {"cut": cut, "inverse": inverse, "quantile": quantile, "compare": compare, "curve": curve}


def answer(requests: list[list]) -> list[dict]:
    return [_KINDS[kind](*args) for kind, *args in requests]


def level_brackets(a: float, b: float, y: float, x: float, tol: float, left: bool) -> bool:
    """True if a root of the level equation lies within tol of x.

    The level equation (a-1)*ln(x/m) - (x-m)/b = ln(y) defines both
    crossings without the Lambert W function. Its left side rises below
    the mode and falls above it, so the crossing lies in [x - tol, x + tol]
    exactly when the side's sign changes across that interval.
    """
    a_, b_ = mpf(a), mpf(b)
    m = (a_ - 1) * b_
    log_y = mpmath.log(mpf(y))

    def level(t):
        t = mpf(t)
        if t <= 0:
            return -mpmath.inf
        return (a_ - 1) * mpmath.log(t / m) - (t - m) / b_ - log_y

    lo, hi = level(x - tol), level(x + tol)
    return (lo <= 0 <= hi) if left else (hi <= 0 <= lo)


if __name__ == "__main__":
    reply = answer(json.load(sys.stdin))
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(reply, fh)
