"""Exact width theory for regular simplices.

Closed-form widths, inradii, and circumradii, the optimal direction
families achieving them, an energy monotonicity property, and
independent numerical routes (subgradient descent, exact enumeration)
that cross-check the formulas.
"""

from .closed_form import (
    SimplexKind,
    alpha_beta,
    alpha_beta_squared,
    center,
    circumdistance_squared,
    circumradius_squared,
    indistance_squared,
    inradius_squared,
    optimal_t,
    width,
    width_for_t,
    width_squared,
)
from .directions import (
    ENUMERATION_CAP,
    MEMBERSHIP_TOL,
    enumerate_optimal_directions,
    is_optimal_direction,
    make_two_value_direction,
)
from .energy import ENERGY_REL_TOL, energy_push
from .geometry import (
    MAX_ORDER,
    SUM_ZERO_TOL,
    UNIT_NORM_TOL,
    VERTEX_MAX_ORDER,
    DimensionError,
    Direction,
    PointSet,
    PreconditionError,
    Vector,
    distance,
    projection_width,
    regular_simplex_vertices,
    standard_simplex_vertices,
)
from .optimizer import (
    OptimizerConfig,
    WidthResult,
    minimize_width,
    two_value_enumeration_width,
)
from .verification import CheckResult, derive_seed, energy_fuzz, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DimensionError",
    "Direction",
    "ENERGY_REL_TOL",
    "ENUMERATION_CAP",
    "MAX_ORDER",
    "MEMBERSHIP_TOL",
    "OptimizerConfig",
    "PointSet",
    "PreconditionError",
    "SUM_ZERO_TOL",
    "SimplexKind",
    "UNIT_NORM_TOL",
    "VERTEX_MAX_ORDER",
    "Vector",
    "WidthResult",
    "alpha_beta",
    "alpha_beta_squared",
    "center",
    "circumdistance_squared",
    "circumradius_squared",
    "derive_seed",
    "distance",
    "energy_fuzz",
    "energy_push",
    "enumerate_optimal_directions",
    "indistance_squared",
    "inradius_squared",
    "is_optimal_direction",
    "make_two_value_direction",
    "minimize_width",
    "optimal_t",
    "projection_width",
    "regular_simplex_vertices",
    "run_all_checks",
    "standard_simplex_vertices",
    "two_value_enumeration_width",
    "width",
    "width_for_t",
    "width_squared",
]
