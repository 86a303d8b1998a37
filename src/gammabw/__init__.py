"""Exact bandwidths of gamma-distribution-shaped functions.

Closed-form full widths at any proportion of the maximum (FWHM and
friends) and octave bandwidths for functions shaped like gamma densities,
built on a self-contained evaluation of the two real Lambert W branches.
Independent oracles validate them: bracketed bisection for Lambert W and
the Gamma(2, b) median, and a certified Newton solve of the level
equation in the offset from the peak for the crossings.
"""

from . import bandwidth, gamma2, lambertw, oracle
from .bandwidth import *  # noqa: F403
from .gamma2 import *  # noqa: F403
from .lambertw import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*lambertw.__all__, *bandwidth.__all__, *gamma2.__all__, *oracle.__all__, "__version__"]
