"""Randomized and grid-based identity suites.

These back both the CLI `verify-identities` command and the acceptance
tests: the zero-order cancellation, the agreement of two independent
gradient-term routes for every family, and the reduction of the full
quadratic form to the (Q1, Q2) combination.

What each suite can catch: Z and the reduction are algebraic identities in
the derivative values (Z expands to 0 for any f, f1, f2), so they measure
floating-point rounding only; a wrong derivative passes them.
`closed_agreement` compares the raw assembly from the chain-rule
derivatives of k against a route that does not use k: the closed gauss
polynomial, or the power-sum table of the other three families.  It is the
suite that catches derivative errors.
"""

import numpy as np

from .pinching import (
    _raw_arrays,
    gradient_terms_general,
    gradient_terms_general_arrays,
    q_full_reduction_check,
    zero_order_term,
)
from .speeds import FAMILIES, RadiiPoint, SpeedFunction, eval_f_derivs

Z_BOUND = 1e-12
AGREEMENT_BOUND = 1e-10
REDUCTION_BOUND = 1e-12


def _draw_radii(rng):
    # t-1 >= 1e-3: Z is assembled naively per its definition, and the
    # g1+g2 sum cancels catastrophically in the umbilic limit, so draws
    # stay out of the region the analyzer itself excludes.
    r1 = 10.0 ** rng.uniform(-3, 3)
    t = 1.0 + 10.0 ** rng.uniform(-3, 3)
    return RadiiPoint(r1, r1 * t)


def z_residual_suite(draws=10000, seed=0):
    """|Z| <= 1e-12 x (|f| + f1 r1 + f2 r2)(f1 + f2)(r2 - r1) over random
    (family, alpha, radii) draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for i in range(draws):
        family = FAMILIES[i % len(FAMILIES)]
        alpha = rng.uniform(0.5, 10.0)
        r = _draw_radii(rng)
        speed = SpeedFunction(family, alpha)
        fd = eval_f_derivs(speed, r)
        scale = (abs(fd.f) + fd.f1 * r.r1 + fd.f2 * r.r2) * (fd.f1 + fd.f2) * (
            r.r2 - r.r1
        )
        ratio = abs(zero_order_term(speed, r)) / scale
        if ratio > worst:
            worst = ratio
            worst_case = {"family": family, "alpha": alpha, "r1": r.r1, "r2": r.r2}
    return {
        "suite": "zero_order",
        "draws": draws,
        "seed": seed,
        "worst_ratio": worst,
        "bound": Z_BOUND,
        "worst_case": worst_case,
        "pass": worst <= Z_BOUND,
    }


def closed_agreement_suite(n_t=64, n_alpha=64):
    """Raw-assembly vs closed-route (gradient_terms_general_arrays) (Q1, Q2)
    for every family on a (t, alpha) grid, t in (1, 1e3], alpha in [0.5, 2]."""
    t = np.geomspace(1e3 ** (1.0 / n_t), 1e3, n_t)
    worst = 0.0
    worst_case = None
    for family in FAMILIES:
        for alpha in np.linspace(0.5, 2.0, n_alpha):
            speed = SpeedFunction(family, float(alpha))
            q1r, q2r = _raw_arrays(speed, t)
            q1c, q2c = gradient_terms_general_arrays(speed, t)
            for raw, closed, tag in ((q1r, q1c, "q1"), (q2r, q2c, "q2")):
                rel = np.abs(raw - closed) / np.abs(closed)
                i = int(np.argmax(rel))
                if rel[i] > worst:
                    worst = float(rel[i])
                    worst_case = dict(family=family, alpha=float(alpha), t=float(t[i]), side=tag)
    return {
        "suite": "closed_agreement",
        "grid": [n_t, n_alpha],
        "worst_rel": worst,
        "bound": AGREEMENT_BOUND,
        "worst_case": worst_case,
        "pass": worst <= AGREEMENT_BOUND,
    }


def reduction_suite(draws=1000, seed=0):
    """Full quadratic form minus (Q1 T1^2 + Q2 T2^2), relative to
    max(|Q1 T1^2|, |Q2 T2^2|, 1), over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for i in range(draws):
        family = FAMILIES[i % len(FAMILIES)]
        alpha = rng.uniform(0.5, 10.0)
        r = _draw_radii(rng)
        t1, t2 = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
        speed = SpeedFunction(family, alpha)
        residual = q_full_reduction_check(speed, r, t1, t2)
        q1, q2 = gradient_terms_general(speed, r)
        scale = max(abs(q1 * t1 * t1), abs(q2 * t2 * t2), 1.0)
        ratio = abs(residual) / scale
        if ratio > worst:
            worst = ratio
            worst_case = {"family": family, "alpha": alpha, "r1": r.r1, "r2": r.r2}
    return {
        "suite": "reduction",
        "draws": draws,
        "seed": seed,
        "worst_ratio": worst,
        "bound": REDUCTION_BOUND,
        "worst_case": worst_case,
        "pass": worst <= REDUCTION_BOUND,
    }


def run_all(draws=10000, seed=0):
    suites = [
        z_residual_suite(draws=draws, seed=seed),
        closed_agreement_suite(),
        reduction_suite(draws=max(1000, draws // 10), seed=seed),
    ]
    return {"suites": suites, "pass": all(s["pass"] for s in suites)}
