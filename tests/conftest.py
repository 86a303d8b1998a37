"""Shared fixtures and helpers: call counters for machine-independent work
counts, the relative error, the mpmath reference for a cut and the Lambert
kernel's seams, which the test modules import from here. The golden-file
manifest is in goldens.py."""

import math

import pytest

from gammabw import lambertw
from gammabw.lambertw import Branch


def low_end(branch, piece):
    """r at the low end of a piece of a branch, from the Lambert kernel's
    map of the pieces of a cut."""
    return next(low for name, low, _ in lambertw._PIECES[branch] if name == piece)


# The kernel's seams in r = ln(y)/(a-1), read from its map, and in
# q = -expm1(r): W0 = -1/2, from which the polynomial in s gives v = -W0;
# q = 1/2, from which the principal branch takes a fitted start and one
# step; the secondary branch's de Bruijn tail; the principal branch's log
# form, r - 1 <= -690
R_V_FORM = low_end(Branch.PRINCIPAL, "offsets")
R_HALF = low_end(Branch.PRINCIPAL, "v-form")
R_TAIL = low_end(Branch.SECONDARY, "step")
R_LOG_FORM = low_end(Branch.PRINCIPAL, "step")
Q_V_FORM = -math.expm1(R_V_FORM)
Q_HALF = -math.expm1(R_HALF)
Q_TAIL = -math.expm1(R_TAIL)
# Every seam in r, from the branch point down
SEAMS = tuple(sorted(
    {low for pieces in lambertw._PIECES.values() for _, low, _ in pieces} - {-math.inf},
    reverse=True,
))


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


@pytest.fixture
def math_calls(monkeypatch):
    """Calls of each math function from lambertw, by name, counted through
    a stand-in for its math module."""
    counts = {}

    class Counting:
        def __getattr__(self, name):
            attr = getattr(math, name)
            if not callable(attr):
                return attr

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return attr(*args)

            return counted

    monkeypatch.setattr(lambertw, "math", Counting())
    return counts
