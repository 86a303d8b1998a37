"""Shared fixtures and helpers: call counters for machine-independent work
counts, the relative error, values with their signs, the mpmath references
for a cut and for the density inverse, and the Lambert kernel's seams,
which the test modules import from here. The golden-file manifest is in
goldens.py."""

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


def signed(*xs):
    """Each value with the sign of its sign bit, so that +0.0 and -0.0
    compare unequal."""
    return [(x, math.copysign(1.0, x)) for x in xs]


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


def mp_log_p_max(mp, a, b):
    """ln of the gamma density at its mode, n*(ln n - 1) - lgamma(a) - ln b
    with n = a - 1, in mpmath at its working precision. Its terms, about
    n*ln(n) in size, cancel to about -ln(2*pi*n)/2 - ln b."""
    a, b = mp.mpf(a), mp.mpf(b)
    n = a - 1
    return n * (mp.log(n) - 1) - mp.loggamma(a) - mp.log(b)


def mp_inverse_pdf(mp, p, params, branch):
    """inverse_pdf in mpmath, to its working precision: the crossing
    -(a-1)*b*W(z) at z = -exp(r - 1), r = ln(p/p_max)/(a-1), with digits
    added for the cancellation in ln p_max and for the nearness of z to
    the branch point -1/e, where r is small."""
    a, b = params.a, params.b
    extra = 10 + int(math.log10(a) + math.log10(1.0 + math.log(a)))
    with mp.workdps(mp.mp.dps + extra):
        r = (mp.log(mp.mpf(p)) - mp_log_p_max(mp, a, b)) / (mp.mpf(a) - 1)
    if r < 0:
        extra += max(0, int(-mp.log10(-r)))
    with mp.workdps(mp.mp.dps + extra):
        n = mp.mpf(a) - 1
        r = min((mp.log(mp.mpf(p)) - mp_log_p_max(mp, a, b)) / n, 0)
        k = 0 if branch is Branch.PRINCIPAL else -1
        return -n * mp.mpf(b) * mp.lambertw(-mp.exp(r - 1), k).real


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
