"""Exact equivariant tautological integrals on Hilbert schemes of points of
the affine plane, and their wall-crossing to Fulton-MacPherson spaces.

All arithmetic is exact (arbitrary-precision rationals); see the module
docstrings of :mod:`hilbwall.exact`, :mod:`hilbwall.hilb`,
:mod:`hilbwall.ifun`, :mod:`hilbwall.fmcalc` and :mod:`hilbwall.wallx` for
the conventions in force.
"""

__version__ = "0.1.0"

from .exact import ExactError, Monomial
from .fmcalc import pure_tilde_closures, tn_integral
from .hilb import (FixedPointData, LocalizationError, enumerate_partitions,
                   fixed_point_data, hilb_integral, tangent_weights, taut_weights)
from .ifun import nonpolar_ifunction
from .wallx import (ch_series, euler_series_closed, euler_series_wc,
                    expand_full_crossing, expand_wall_terms)

__all__ = [
    "__version__",
    "ExactError", "Monomial",
    "pure_tilde_closures", "tn_integral",
    "FixedPointData", "LocalizationError",
    "enumerate_partitions", "fixed_point_data", "hilb_integral",
    "tangent_weights", "taut_weights",
    "nonpolar_ifunction",
    "ch_series", "euler_series_closed", "euler_series_wc",
    "expand_full_crossing", "expand_wall_terms",
]
