"""Curvature-flow laboratory: pinching-sign certification for homogeneous
speed functions on convex surfaces, plus an axisymmetric support-function
flow integrator."""

from .errors import (
    BracketError,
    ConfigError,
    ConvexityLossError,
    DomainError,
    PoleError,
    ResolutionError,
    SignBudgetError,
    StepRejectedError,
    UmbilicError,
)
from .speeds import (
    FAMILIES,
    FDerivs,
    RadiiPoint,
    SpeedFunction,
    eval_f_derivs,
)
from .pinching import gradient_terms_gauss_closed, gradient_terms_general
from .certificates import (
    QReport,
    ThresholdResult,
    certify_nonpositive,
    find_threshold,
    log_ratio_grid,
    sign_scan,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    SupportProfile,
    adaptive_dt,
    diagnostics,
    ellipsoid_support,
    extinction_estimate,
    radii_from_support,
    rescale_deviation,
    run,
    sphere_extinction_time,
    sphere_support,
    step,
)
from .identities import closed_agreement_suite, reduction_suite, z_residual_suite
from .reports import canonical_json, render_report, strip_timestamp, write_report

__version__ = "0.1.0"
