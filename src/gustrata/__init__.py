"""Exact Dieudonne-display computations for unitary-type moduli.

Construct the standard quasipolarized displays (N, M(m), direct sums, the
supersingular module, and residue-field specializations of its universal
deformation), compute their Newton polygons two independent ways (p-adic
characteristic polynomial vs. cycle slopes of the successor graph), and
verify the admissible-polygon catalog and local stratum equations
exhaustively at desk scale.
"""

from ._version import __version__
from .wittring import (CapacityError, FieldElement, NonInvertibleError,
                       PadicScalar, RingContext, context_from_json,
                       default_precision, make_context)
from .fcrystal import (BasisLabel, DieudonneDisplay, NewtonPolygon,
                       PrecisionError, ValidationReport, a_number,
                       display_from_json, newton_slopes, p_rank,
                       polarization_check, signature, validate_display)
from .displayzoo import (DeformationPoint, ModuleSpec, deformation_display,
                         direct_sum, expected_module, module_M, module_N,
                         parse_module_spec, supersingular_module)
from .slopegraph import (CycleSummary, SlopeGraph, build_graph,
                         cycle_decomposition, cycles_through,
                         karp_min_cycle_mean, least_slope_cycle,
                         min_cycle_slope, to_dot)
from .strata import (BudgetError, StrataReport, StratumDescriptor, catalog,
                     classify, lambda_min, predicted_stratum,
                     verify_local_strata)

__all__ = [
    "__version__",
    "CapacityError", "FieldElement", "NonInvertibleError", "PadicScalar",
    "RingContext", "context_from_json", "default_precision", "make_context",
    "BasisLabel", "DieudonneDisplay", "NewtonPolygon", "PrecisionError",
    "ValidationReport", "a_number", "display_from_json", "newton_slopes",
    "p_rank", "polarization_check", "signature", "validate_display",
    "DeformationPoint", "ModuleSpec", "deformation_display", "direct_sum",
    "expected_module", "module_M", "module_N", "parse_module_spec",
    "supersingular_module",
    "CycleSummary", "SlopeGraph", "build_graph", "cycle_decomposition",
    "cycles_through", "karp_min_cycle_mean", "least_slope_cycle",
    "min_cycle_slope", "to_dot",
    "BudgetError", "StrataReport", "StratumDescriptor", "catalog",
    "classify", "lambda_min", "predicted_stratum", "verify_local_strata",
]
