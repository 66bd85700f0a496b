"""The package's public names."""

import inspect

import pinchflow

PUBLIC = [
    "BracketError",
    "ConfigError",
    "ConvexityLossError",
    "DomainError",
    "FAMILIES",
    "FDerivs",
    "FlowConfig",
    "FlowTrace",
    "PoleError",
    "QReport",
    "RadiiPoint",
    "ResolutionError",
    "SignBudgetError",
    "SpeedFunction",
    "StepRejectedError",
    "SupportProfile",
    "ThresholdResult",
    "UmbilicError",
    "adaptive_dt",
    "canonical_json",
    "certify_nonpositive",
    "closed_agreement_suite",
    "diagnostics",
    "ellipsoid_support",
    "eval_f_derivs",
    "extinction_estimate",
    "find_threshold",
    "gradient_terms_gauss_closed",
    "gradient_terms_general",
    "log_ratio_grid",
    "radii_from_support",
    "reduction_suite",
    "render_report",
    "rescale_deviation",
    "run",
    "sign_scan",
    "sphere_extinction_time",
    "sphere_support",
    "step",
    "strip_timestamp",
    "write_report",
    "z_residual_suite",
]


def test_public_names():
    # every export change shows up here as a one-line edit; submodules, which
    # appear as attributes once imported, are not exports
    names = sorted(
        name
        for name, value in vars(pinchflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC
