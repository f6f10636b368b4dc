"""Numerics for the figure-eight colored Jones polynomial on the unit
circle: stable signed-log evaluation, Lobachevsky-function limit curves,
Mahler measures, branched-cover homology orders, and color profiles.

The public names below resolve on first access (PEP 562), so a bare
``import fig8jones`` imports no submodule and not numpy."""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in (
    ("special_functions", "ThetaVariant fig8_volume lobachevsky theta_r"),
    ("jones_fig8", "CriticalIndices EvaluationPoint SignedLogValue colored_jones "
                   "critical_indices f_max normalized_log partial_product_f term_g"),
    ("limits", "ConvergenceRecord LimitBranch PiecewiseLimitSpec V_SPEC W_SPEC "
               "convergence_table limit_theorem3 limit_V limit_W mahler_growth_integral"),
    ("mahler", "FIG8_ALEXANDER LaurentPolynomialZ const_on_circle homology_order "
               "jones_mahler_growth jones_on_circle log_mahler_quadrature mahler_from_roots "
               "silver_williams_convergence"),
    ("satellite", "ColorProfile ProfileRow argmax_color cable_profile"),
) for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
