"""End-to-end acceptance checks.

Each check prints a single PASS/FAIL line with its measured numbers and
enforces its runtime budget.  The ellipsoid flows used by the last two
checks are shared through a module-scoped fixture.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from pinchflow import (
    FlowConfig,
    RadiiPoint,
    SpeedFunction,
    certify_nonpositive,
    find_threshold,
    gradient_terms_gauss_closed,
    gradient_terms_general,
    run,
)
from pinchflow.flow import pinching_drift
from pinchflow.identities import (
    closed_agreement_suite,
    reduction_suite,
    z_residual_suite,
)

import oracles


def _verdict(capfd, num, name, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
        f" ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    with capfd.disabled():  # verdict lines must reach the terminal either way
        print(line)
    assert ok and elapsed < budget, line


def test_criterion_1_zero_order_identity(capfd):
    t0 = time.perf_counter()
    res = z_residual_suite(draws=10000, seed=0)
    elapsed = time.perf_counter() - t0
    _verdict(
        capfd,
        1,
        "zero-order identity",
        res["pass"],
        f"worst {res['worst_ratio']:.2e} vs bound {res['bound']:.0e} over {res['draws']} draws",
        elapsed,
        5.0,
    )


def test_criterion_2_closed_vs_general(capfd):
    t0 = time.perf_counter()
    res = closed_agreement_suite(n_t=64, n_alpha=64)
    closed = gradient_terms_gauss_closed(RadiiPoint(1, 2), 2.0)
    general = gradient_terms_general(SpeedFunction("gauss_power", 2.0), RadiiPoint(1, 2))
    exact_ok = (
        closed == (Fraction(-1), Fraction(-8))
        and general == (Fraction(-1), Fraction(-8))
        and all(isinstance(q, Fraction) for q in closed + general)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        capfd,
        2,
        "closed-form vs general Q",
        res["pass"] and exact_ok,
        f"grid worst {res['worst_ratio']:.2e} vs 1e-10; exact point (-1,-8): {exact_ok}",
        elapsed,
        5.0,
    )


def test_criterion_3_gauss_sign_range(capfd):
    t0 = time.perf_counter()
    certified = {}
    for alpha in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0):
        rep = certify_nonpositive("gauss_power", alpha=alpha)
        certified[alpha] = rep.verdict == "nonpositive_certified" and rep.tail == "certified"
    witnesses = {}
    for alpha in (0.4, 2.1):
        rep = certify_nonpositive("gauss_power", alpha=alpha)
        witnesses[alpha] = (
            rep.verdict == "violated" and rep.witness_t is not None and rep.witness_q > 0
        )
    elapsed = time.perf_counter() - t0
    ok = all(certified.values()) and all(witnesses.values())
    _verdict(
        capfd,
        3,
        "gauss sign range",
        ok,
        f"certified {sorted(a for a, v in certified.items() if v)}, "
        f"violations with witness at {sorted(a for a, v in witnesses.items() if v)}",
        elapsed,
        30.0,
    )


def test_criterion_4_thresholds_and_sum_power(capfd):
    t0 = time.perf_counter()
    mean = find_threshold("mean_power", (4.0, 6.0), 0.05)
    norm = find_threshold("norm_power", (7.0, 9.0), 0.05)
    gauss = find_threshold("gauss_power", (1.5, 3.0), 0.01)
    brackets_ok = (
        mean.alpha_lo <= 5.16 <= mean.alpha_hi
        and mean.width <= 0.05
        and norm.alpha_lo <= 8.15 <= norm.alpha_hi
        and norm.width <= 0.05
        and gauss.alpha_lo <= 2.0 <= gauss.alpha_hi
        and gauss.width <= 0.01
    )
    sum_ok = {}
    for alpha in (1.5, 3.0, 10.0, 50.0, 100.0):
        rep = certify_nonpositive("sum_power", alpha=alpha, t_max=1e4)
        sum_ok[alpha] = rep.verdict.startswith("nonpositive")
    elapsed = time.perf_counter() - t0
    _verdict(
        capfd,
        4,
        "thresholds",
        brackets_ok and all(sum_ok.values()),
        f"mean [{mean.alpha_lo:.4g},{mean.alpha_hi:.4g}], "
        f"norm [{norm.alpha_lo:.4g},{norm.alpha_hi:.4g}], "
        f"gauss [{gauss.alpha_lo:.5g},{gauss.alpha_hi:.5g}], "
        f"sum passes at {sorted(a for a, v in sum_ok.items() if v)}",
        elapsed,
        300.0,
    )


def test_criterion_5_reduction_identity(capfd):
    t0 = time.perf_counter()
    res = reduction_suite(draws=1000, seed=0)
    elapsed = time.perf_counter() - t0
    _verdict(
        capfd,
        5,
        "reduction identity",
        res["pass"],
        f"worst {res['worst_ratio']:.2e} vs bound {res['bound']:.0e} over {res['draws']} draws",
        elapsed,
        5.0,
    )


def test_criterion_6_sphere_oracle(capfd):
    t0 = time.perf_counter()
    worst_law = 0.0
    worst_T = 0.0
    for alpha in (1.0, 1.5, 2.0):
        cfg = FlowConfig(
            "gauss_power", alpha, a=1.0, b=1.0, n_nodes=201, stop_fraction=0.1
        )
        trace = run(cfg)
        for rec in trace.records:
            rho = oracles.sphere_radius_oracle(1.0, alpha, rec.t)
            worst_law = max(
                worst_law,
                abs(rec.min_support - rho) / rho,
                abs(rec.max_support - rho) / rho,
            )
        worst_T = max(
            worst_T, abs(trace.t_extinct - oracles.sphere_time_oracle(1.0, alpha))
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        capfd,
        6,
        "sphere oracle",
        worst_law <= 1e-3 and worst_T <= 1e-3,
        f"radius-law err {worst_law:.2e} (tol 1e-3), T err {worst_T:.2e} (tol 1e-3)",
        elapsed,
        120.0,
    )


@pytest.fixture(scope="module")
def ellipsoid_runs():
    t0 = time.perf_counter()
    traces = {}
    for alpha in (1.0, 1.5, 2.0):
        for n in (201, 401):
            cfg = FlowConfig(
                "gauss_power",
                alpha,
                a=2.0,
                b=1.0,
                n_nodes=n,
                stop_fraction=0.1,
                record_every=100,
            )
            traces[(alpha, n)] = run(cfg)
    return traces, time.perf_counter() - t0


def test_criterion_7_pinching_monotonicity(ellipsoid_runs, capfd):
    traces, elapsed = ellipsoid_runs
    details = []
    ok = True
    for alpha in (1.0, 1.5, 2.0):
        for col in ("pinch_sup", "max_radius", "max_ratio"):
            drifts = {
                n: pinching_drift([getattr(r, col) for r in traces[(alpha, n)].records])
                for n in (201, 401)
            }
            coarse_ok = drifts[201] <= 1e-3
            # refinement: halve, below a floor where the drift is pure noise
            refine_ok = drifts[401] <= max(drifts[201] / 2.0, 1e-8)
            ok = ok and coarse_ok and refine_ok
            details.append(f"a={alpha:g} {col}: {drifts[201]:.1e}/{drifts[401]:.1e}")
    _verdict(
        capfd,
        7,
        "pinching monotonicity",
        ok,
        "; ".join(details),
        elapsed,
        600.0,
    )


def test_criterion_8_roundness_under_rescaling(ellipsoid_runs, capfd):
    traces, elapsed = ellipsoid_runs
    details = []
    ok = True
    for alpha in (1.0, 1.5, 2.0):
        devs = {n: traces[(alpha, n)].deviation for n in (201, 401)}
        small = all(d is not None and d <= 0.02 for d in devs.values())
        # refinement must not degrade the deviation (slack: near the
        # converged value the two resolutions differ only in the 4th digit)
        improves = devs[401] <= devs[201] + 1e-3
        ok = ok and small and improves
        details.append(
            f"a={alpha:g}: dev {devs[201]:.4f}/{devs[401]:.4f}"
            + ("" if small else " exceeds 0.02")
        )
    _verdict(
        capfd,
        8,
        "roundness under rescaling",
        ok,
        "; ".join(details) + " (tol 0.02 at 10% stop)",
        elapsed,
        600.0,
    )
