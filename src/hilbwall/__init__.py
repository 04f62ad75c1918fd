"""Exact equivariant tautological integrals on Hilbert schemes of points of
the affine plane, and their wall-crossing to Fulton-MacPherson spaces.

All arithmetic is exact (arbitrary-precision rationals); see the module
docstrings of :mod:`hilbwall.exact`, :mod:`hilbwall.hilb`,
:mod:`hilbwall.ifun`, :mod:`hilbwall.fmcalc` and :mod:`hilbwall.wallx` for
the conventions in force.
"""

__version__ = "0.1.0"

from .exact import (BivarPoly, ExactError, Monomial, euler_inverse_series,
                    macmahon_series, qs_exp, qs_log, qs_pow_int)
from .fmcalc import reduce_pure_tilde, tn_integral
from .hilb import (FixedPointData, LocalizationError, ch_value,
                   enumerate_partitions, fixed_point_data, hilb_integral,
                   hilb_integral_via_limit, tangent_weights, taut_weights)
from .ifun import nonpolar_ifunction
from .wallx import (FullCrossingTerm, WallTerm, ch_series, dt_identity_check,
                    euler_series_closed, euler_series_wc, expand_full_crossing,
                    expand_wall_terms)

__all__ = [
    "__version__",
    "BivarPoly", "ExactError", "Monomial",
    "euler_inverse_series", "macmahon_series",
    "qs_exp", "qs_log", "qs_pow_int",
    "reduce_pure_tilde", "tn_integral",
    "FixedPointData", "LocalizationError", "ch_value",
    "enumerate_partitions", "fixed_point_data", "hilb_integral",
    "hilb_integral_via_limit", "tangent_weights", "taut_weights",
    "nonpolar_ifunction",
    "FullCrossingTerm", "WallTerm", "ch_series",
    "dt_identity_check", "euler_series_closed", "euler_series_wc",
    "expand_full_crossing", "expand_wall_terms",
]
