"""The package's public names, and the ones the benchmark tracer wraps."""

import importlib.util
import inspect
from pathlib import Path

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


def test_trace_points_exist(monkeypatch):
    # perfbench's tracer wraps these attributes by name when it installs, so
    # one that is deleted or renamed breaks a traced benchmark run although
    # no other caller reads it
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # tracing imports its summary
    spec = importlib.util.spec_from_file_location("tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.trace_points():
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
