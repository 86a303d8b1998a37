"""Shared fixtures and helpers: the golden-file manifest used by the CLI
tests, the acceptance gate, and scripts/make_goldens.py; a call counter for
machine-independent work counts; the relative error; and the mpmath
reference for a cut, which the test modules import from here."""

import pytest


def rel_err(got, want):
    return abs(got - want) / abs(want)


def mp_branches(mp, a, b, y):
    """(mode, W0, Wm1) of the cut at proportion y of the peak of shape a and
    scale b, at z = -exp(ln(y)/(a-1) - 1), in mpmath at its working
    precision."""
    am1 = mp.mpf(a) - 1
    z = -mp.exp(mp.log(mp.mpf(y)) / am1 - 1)
    return am1 * mp.mpf(b), mp.lambertw(z, 0).real, mp.lambertw(z, -1).real


def mp_cut(mp, a, b, y):
    """(x_low, x_high, width) of the cut at proportion y, in mpmath at its
    working precision."""
    m, w_lo, w_hi = mp_branches(mp, a, b, y)
    return -m * w_lo, -m * w_hi, m * (w_lo - w_hi)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(modules, names) wraps each name in every module that has
    it with one shared counter per name, so calls are counted whichever
    module a caller looks the name up in; returns the counts."""

    def install(modules, names):
        counts = dict.fromkeys(names, 0)
        for module in modules:
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def counted(*args, _name=name, _fn=fn):
                    counts[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
        return counts

    return install


GOLDEN_INVOCATIONS = [
    ("fwhm_a2_b1.plain", ["fwhm", "--a", "2", "--b", "1"]),
    ("fwhm_a2_b1.csv", ["fwhm", "--a", "2", "--b", "1", "--format", "csv"]),
    ("fwhm_a2_b1.json", ["fwhm", "--a", "2", "--b", "1", "--format", "json"]),
    ("fwhm_a3_b2_y025.plain", ["fwhm", "--a", "3", "--b", "2", "--y", "0.25"]),
    ("fwhm_a1_b1.json", ["fwhm", "--a", "1", "--b", "1", "--format", "json"]),
    (
        "fwhm_verify_a2_b1.csv",
        ["fwhm", "--a", "2", "--b", "1", "--verify", "--format", "csv"],
    ),
    ("octave_a2_b1.csv", ["octave", "--a", "2", "--b", "1", "--format", "csv"]),
    ("octave_a2_b1.json", ["octave", "--a", "2", "--b", "1", "--format", "json"]),
    ("octave_a2_b1.plain", ["octave", "--a", "2", "--b", "1"]),
    (
        "curve_a3_b2_n5.csv",
        ["curve", "--a", "3", "--b", "2", "--n", "5", "--xmax", "8", "--format", "csv"],
    ),
    (
        "curve_a3_b2_n5.json",
        ["curve", "--a", "3", "--b", "2", "--n", "5", "--xmax", "8", "--format", "json"],
    ),
    (
        "compare_2_100_p5.csv",
        ["compare", "--a-min", "2", "--a-max", "100", "--points", "5", "--format", "csv"],
    ),
    (
        "compare_2_100_p5.json",
        ["compare", "--a-min", "2", "--a-max", "100", "--points", "5", "--format", "json"],
    ),
]
