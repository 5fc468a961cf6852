"""coverfit: fit constant-width bodies into circumscribed symmetric polytopes.

The package searches the rotation group for placements of a constant-width-1
convex body inside a centrally symmetric polytope circumscribed about the
ball of diameter one, and computes the exact integer bounds that say when
such a placement must exist.
"""

__version__ = "0.1.0"

from .bodies import (
    ConvexBody,
    ValidationReport,
    load_body,
    make_ball,
    make_perturbed_ball,
    make_reuleaux_polygon,
    save_body,
    validate_support_function,
)
from .circumscribe import FitResult, containment_margin, fit_translation, residual_map, residuals, strip_residual
from .errors import CoverfitError, DegeneracyError, GenerationError, InputError
from .polytopes import (
    ReferenceFrame,
    SymmetricPolytope,
    facet_normals,
    load_polytope,
    make_polytope,
    preset,
    save_polytope,
)
from .rotations import Rotation, exp_chart, negate, random_rotation
from .search import ScanBracket, SearchConfig, SearchOutcome, minimize, scan_2d, scan_residual_2d
from .topology import (
    BettiSequence,
    IndexBounds,
    bounds_report,
    facet_bound,
    index_bounds,
    largest_power_two,
    partial_sum_check,
    poincare_pso4,
    poincare_so,
    poly_multiply,
)

__all__ = [
    "ConvexBody",
    "ValidationReport",
    "load_body",
    "make_ball",
    "make_perturbed_ball",
    "make_reuleaux_polygon",
    "save_body",
    "validate_support_function",
    "FitResult",
    "containment_margin",
    "fit_translation",
    "residual_map",
    "residuals",
    "strip_residual",
    "CoverfitError",
    "DegeneracyError",
    "GenerationError",
    "InputError",
    "ReferenceFrame",
    "SymmetricPolytope",
    "facet_normals",
    "load_polytope",
    "make_polytope",
    "preset",
    "save_polytope",
    "Rotation",
    "exp_chart",
    "negate",
    "random_rotation",
    "ScanBracket",
    "SearchConfig",
    "SearchOutcome",
    "minimize",
    "scan_2d",
    "scan_residual_2d",
    "BettiSequence",
    "IndexBounds",
    "bounds_report",
    "facet_bound",
    "index_bounds",
    "largest_power_two",
    "partial_sum_check",
    "poincare_pso4",
    "poincare_so",
    "poly_multiply",
]
