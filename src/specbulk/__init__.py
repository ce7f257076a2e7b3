"""Deterministic spectral equivalents for Gram matrices of Gaussian mixtures.

Solves the coupled fixed-point system for the class resolvent functions,
computes the limiting spectral density with support detection, builds
first- and second-order deterministic equivalents of the resolvents, and
ships a Monte Carlo harness that checks every prediction at finite size.
"""

from .equivalents import (
    EquivalentSet,
    SecondOrderSet,
    class_trace_functional,
    first_order,
    log_det_functional,
    omega_radius_bound,
    q_da_q_equivalent,
    qt_ca_qt_equivalent,
    qt_w_da_wt_qt_equivalent,
    second_order,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    NearSupportError,
    NonConvergenceError,
    NumericalSingularityError,
    SpecbulkError,
    ValidationError,
)
from .fixed_point import (
    ResolventPoint,
    SolverOptions,
    g_derivative,
    solve_g,
    solve_grid,
)
from .model import (
    CovarianceSpec,
    ModelParams,
    ModelSpec,
    build_covariance,
    validate_model,
)
from .montecarlo import (
    EnsembleSample,
    McMetric,
    McReport,
    convergence_report,
    histogram_report,
    norm_bound_report,
    outlier_report,
    sample_w,
    variance_scaling_report,
)
from .nonneg import (
    check_cs_radius,
    perron_left_vector,
    spectral_radius,
)
from .spectrum import (
    DensityGrid,
    atom_at_zero,
    density_at,
    density_grid,
    support_detect,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceSpec",
    "ModelParams",
    "ModelSpec",
    "build_covariance",
    "validate_model",
    "SolverOptions",
    "ResolventPoint",
    "solve_g",
    "solve_grid",
    "g_derivative",
    "DensityGrid",
    "density_at",
    "density_grid",
    "support_detect",
    "atom_at_zero",
    "EquivalentSet",
    "SecondOrderSet",
    "first_order",
    "second_order",
    "q_da_q_equivalent",
    "qt_ca_qt_equivalent",
    "qt_w_da_wt_qt_equivalent",
    "class_trace_functional",
    "log_det_functional",
    "omega_radius_bound",
    "EnsembleSample",
    "McMetric",
    "McReport",
    "sample_w",
    "convergence_report",
    "outlier_report",
    "histogram_report",
    "variance_scaling_report",
    "norm_bound_report",
    "spectral_radius",
    "perron_left_vector",
    "check_cs_radius",
    "SpecbulkError",
    "ValidationError",
    "ConfigError",
    "NonConvergenceError",
    "NumericalSingularityError",
    "ConsistencyError",
    "NearSupportError",
]
