"""Maximal Blaschke products: prescribed critical sets, maximal conformal
pseudometrics, and verification suites for the associated extremal problem."""

from .blaschke import (
    CriticalSet,
    FiniteBlaschke,
    compose,
    critical_numerator_coeffs,
    critical_points,
    derivative,
    derivative_at_origin_order,
    evaluate,
)
from .disk import (
    DiskAutomorphism,
    RiemannMapSpec,
    hyperbolic_density,
    pseudo_hyperbolic_distance,
)
from .errors import InputError, NumericalError
from .metrics import (
    CurvatureField,
    DensityField,
    PolarGrid,
    ahlfors_check,
    discrete_curvature,
    dominance_check,
    hyperbolic_field,
    product_density,
    pullback_density,
    refinement_contraction,
    union_metric,
)
from .solver import (
    HomotopyConfig,
    SolveReport,
    TransplantResult,
    TruncationResult,
    solve_maximal,
    solve_maximal_normalized,
    transplant,
    truncation_sequence,
)
from .verify import (
    BoundaryProbe,
    CompetitorSpec,
    boundary_probes,
    boundary_quotient,
    default_competitor_specs,
    extremality_suite,
    fit_automorphism,
    left_factor_check,
    phi_boundary_bound,
    semigroup_check,
    union_suite,
)

__all__ = [
    "CriticalSet",
    "FiniteBlaschke",
    "compose",
    "critical_numerator_coeffs",
    "critical_points",
    "derivative",
    "derivative_at_origin_order",
    "evaluate",
    "DiskAutomorphism",
    "RiemannMapSpec",
    "hyperbolic_density",
    "pseudo_hyperbolic_distance",
    "InputError",
    "NumericalError",
    "CurvatureField",
    "DensityField",
    "PolarGrid",
    "ahlfors_check",
    "discrete_curvature",
    "dominance_check",
    "hyperbolic_field",
    "product_density",
    "pullback_density",
    "refinement_contraction",
    "union_metric",
    "PdeProblem",
    "PdeSolution",
    "constant_curvature_problem",
    "divisor_reduced_problem",
    "oracle_validate",
    "solve_dirichlet",
    "HomotopyConfig",
    "SolveReport",
    "TransplantResult",
    "TruncationResult",
    "solve_maximal",
    "solve_maximal_normalized",
    "transplant",
    "truncation_sequence",
    "BoundaryProbe",
    "CompetitorSpec",
    "boundary_probes",
    "boundary_quotient",
    "default_competitor_specs",
    "extremality_suite",
    "fit_automorphism",
    "left_factor_check",
    "phi_boundary_bound",
    "semigroup_check",
    "union_suite",
]

__version__ = "0.1.0"

#: Served from ``maxblaschke.pde`` on first use: the PDE oracle is the only
#: layer that needs scipy, whose import would otherwise dominate every
#: command-line run.
_PDE_NAMES = frozenset((
    "PdeProblem",
    "PdeSolution",
    "constant_curvature_problem",
    "divisor_reduced_problem",
    "oracle_validate",
    "solve_dirichlet",
))


def __getattr__(name):
    if name in _PDE_NAMES:
        from . import pde

        return getattr(pde, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
