"""Numerics for the figure-eight colored Jones polynomial on the unit
circle: stable signed-log evaluation, Lobachevsky-function limit curves,
Mahler measures, branched-cover homology orders, and color profiles."""

from .special_functions import ThetaVariant, fig8_volume, lobachevsky, theta_r
from .jones_fig8 import (
    CriticalIndices,
    EvaluationPoint,
    SignedLogValue,
    colored_jones,
    critical_indices,
    f_max,
    normalized_log,
    partial_product_f,
    term_g,
)
from .limits import (
    ConvergenceRecord,
    LimitBranch,
    PiecewiseLimitSpec,
    V_SPEC,
    W_SPEC,
    convergence_table,
    limit_theorem3,
    limit_V,
    limit_W,
    mahler_growth_integral,
)
from .mahler import (
    FIG8_ALEXANDER,
    LaurentPolynomialZ,
    homology_order,
    jones_mahler_growth,
    jones_on_circle,
    log_mahler_quadrature,
    mahler_from_roots,
    silver_williams_convergence,
)
from .satellite import ColorProfile, ProfileRow, argmax_color, cable_profile
from ._kernels import current_backend

__version__ = "0.1.0"

__all__ = [
    "ThetaVariant", "fig8_volume", "lobachevsky", "theta_r",
    "CriticalIndices", "EvaluationPoint", "SignedLogValue",
    "colored_jones", "critical_indices", "f_max", "normalized_log",
    "partial_product_f", "term_g",
    "ConvergenceRecord", "LimitBranch", "PiecewiseLimitSpec",
    "V_SPEC", "W_SPEC", "convergence_table", "limit_theorem3",
    "limit_V", "limit_W", "mahler_growth_integral",
    "FIG8_ALEXANDER", "LaurentPolynomialZ", "homology_order",
    "jones_mahler_growth", "jones_on_circle",
    "log_mahler_quadrature", "mahler_from_roots",
    "silver_williams_convergence",
    "ColorProfile", "ProfileRow", "argmax_color", "cable_profile",
    "current_backend",
]
