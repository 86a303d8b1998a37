"""Exact bandwidths of gamma-distribution-shaped functions.

Closed-form full widths at any proportion of the maximum (FWHM and
friends) and octave bandwidths for functions shaped like gamma densities,
built on a self-contained evaluation of the two real Lambert W branches,
with brute-force bisection oracles for independent validation.
"""

from .bandwidth import (
    GammaShapeSpec,
    OctaveResult,
    ShapeScale,
    WidthResult,
    approx_proportional_error,
    fwhm,
    fwym,
    fwym_shifted,
    gamma_pdf,
    gamma_shaped,
    gaussian_fwhm_approx,
    inverse_pdf,
    mode,
    octave_bandwidth,
)
from .gamma2 import cdf_a2, check_transform_identity, median_a2, quantile_a2
from .lambertw import Branch, branch_difference_from_log_ratio, w0, wm1, wm1_from_log
from .oracle import BracketError, oracle_crossings, oracle_lambert_w, oracle_median_a2

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "w0",
    "wm1",
    "wm1_from_log",
    "branch_difference_from_log_ratio",
    "ShapeScale",
    "GammaShapeSpec",
    "WidthResult",
    "OctaveResult",
    "gamma_pdf",
    "gamma_shaped",
    "mode",
    "inverse_pdf",
    "fwym",
    "fwhm",
    "fwym_shifted",
    "gaussian_fwhm_approx",
    "approx_proportional_error",
    "octave_bandwidth",
    "cdf_a2",
    "quantile_a2",
    "median_a2",
    "check_transform_identity",
    "BracketError",
    "oracle_lambert_w",
    "oracle_crossings",
    "oracle_median_a2",
    "__version__",
]
