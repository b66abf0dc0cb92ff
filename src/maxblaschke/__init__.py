"""Maximal Blaschke products: prescribed critical sets, maximal conformal
pseudometrics, and verification suites for the associated extremal problem."""

from importlib import import_module as _import_module

#: Public names by the module that defines them.  The ``pde`` names are
#: served on first use: the PDE oracle is the only layer that needs scipy,
#: whose import would otherwise dominate every command-line run.
_EXPORTS = {
    "blaschke": (
        "CriticalSet",
        "FiniteBlaschke",
        "compose",
        "critical_points",
        "derivative",
        "derivative_at_origin_order",
        "evaluate",
    ),
    "disk": (
        "DiskAutomorphism",
        "RiemannMapSpec",
        "hyperbolic_density",
        "pseudo_hyperbolic_distance",
    ),
    "errors": ("InputError", "NumericalError"),
    "metrics": (
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
    ),
    "pde": (
        "PdeProblem",
        "PdeSolution",
        "constant_curvature_problem",
        "divisor_reduced_problem",
        "oracle_validate",
        "solve_dirichlet",
    ),
    "solver": (
        "HomotopyConfig",
        "SolveReport",
        "TransplantResult",
        "TruncationResult",
        "solve_maximal",
        "transplant",
        "truncation_sequence",
    ),
    "verify": (
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
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"

for _module, _names in _EXPORTS.items():
    if _module != "pde":
        _source = _import_module(f".{_module}", __name__)
        globals().update({name: getattr(_source, name) for name in _names})
del _module, _names, _source


def __getattr__(name):
    if name in _EXPORTS["pde"]:
        return getattr(_import_module(".pde", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
