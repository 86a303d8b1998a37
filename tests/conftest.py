"""Shared fixtures and helpers: a call counter for machine-independent work
counts, the relative error, and the mpmath reference for a cut, which the
test modules import from here. The golden-file manifest is in goldens.py."""

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
