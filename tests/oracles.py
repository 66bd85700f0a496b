"""Independent oracles for the test suite.

Speeds are re-derived here straight from their curvature-variable
definitions (kappa_i = 1/r_i) and differentiated by central finite
differences or sympy, with no reference to the package's analytic
derivative code — agreement is a genuine cross-check rather than a
tautology.  Frozen reference values carry their derivations as comments.

The slow references (`reference_flow` and the per-draw identity suites) are
the code paths the package's fast paths replaced, kept here so the tests
can require the same results from both.
"""

import math
from fractions import Fraction

import numpy as np

from pinchflow.identities import REDUCTION_BOUND, Z_BOUND
from pinchflow.pinching import (
    gradient_terms_general,
    q_full_reduction_check,
    zero_order_term,
)
from pinchflow.speeds import RadiiPoint, SpeedFunction, eval_f_derivs

FAMILIES = ("gauss_power", "mean_power", "norm_power", "sum_power")


def speed_value(family, alpha, r1, r2):
    """Direct curvature-variable speed: -K^{a/2}, -H^a, -|A|^a, -(k1^a+k2^a)."""
    k1 = 1.0 / r1
    k2 = 1.0 / r2
    if family == "gauss_power":
        return -((k1 * k2) ** (alpha / 2.0))
    if family == "mean_power":
        return -((k1 + k2) ** alpha)
    if family == "norm_power":
        return -((k1 * k1 + k2 * k2) ** (alpha / 2.0))
    if family == "sum_power":
        return -(k1**alpha + k2**alpha)
    raise ValueError(family)


def fd_f_derivs(family, alpha, r1, r2, h1st=1e-6, h2nd=1e-4):
    """(f, f1, f2, f11, f12, f22) by central differences on speed_value;
    steps scale with the coordinate.  Second differences use a larger step
    (eps^(1/4) territory) since they are roundoff-limited."""
    g = lambda a, b: speed_value(family, alpha, a, b)
    h1, h2 = h1st * r1, h1st * r2
    f = g(r1, r2)
    f1 = (g(r1 + h1, r2) - g(r1 - h1, r2)) / (2 * h1)
    f2 = (g(r1, r2 + h2) - g(r1, r2 - h2)) / (2 * h2)
    h1, h2 = h2nd * r1, h2nd * r2
    f11 = (g(r1 + h1, r2) - 2 * f + g(r1 - h1, r2)) / (h1 * h1)
    f22 = (g(r1, r2 + h2) - 2 * f + g(r1, r2 - h2)) / (h2 * h2)
    f12 = (
        g(r1 + h1, r2 + h2)
        - g(r1 + h1, r2 - h2)
        - g(r1 - h1, r2 + h2)
        + g(r1 - h1, r2 - h2)
    ) / (4 * h1 * h2)
    return f, f1, f2, f11, f12, f22


_SYMPY_CACHE = {}


def sympy_f_derivs(family, alpha, r1v, r2v, convert=float):
    """Exact symbolic derivatives of the curvature-variable speed, evaluated
    at 50 digits and passed through `convert`.  alpha must be exactly
    representable (dyadic test values)."""
    import sympy as sp

    key = (family, Fraction(alpha))
    if key not in _SYMPY_CACHE:
        r1, r2 = sp.symbols("r1 r2", positive=True)
        a = sp.Rational(Fraction(alpha))
        k1, k2 = 1 / r1, 1 / r2
        expr = {
            "gauss_power": -((k1 * k2) ** (a / 2)),
            "mean_power": -((k1 + k2) ** a),
            "norm_power": -((k1**2 + k2**2) ** (a / 2)),
            "sum_power": -(k1**a + k2**a),
        }[family]
        derivs = (
            expr,
            sp.diff(expr, r1),
            sp.diff(expr, r2),
            sp.diff(expr, r1, 2),
            sp.diff(expr, r1, r2),
            sp.diff(expr, r2, 2),
        )
        _SYMPY_CACHE[key] = (derivs, (r1, r2))
    derivs, (r1, r2) = _SYMPY_CACHE[key]
    subs = {r1: sp.Rational(Fraction(r1v)), r2: sp.Rational(Fraction(r2v))}
    return tuple(convert(d.subs(subs).evalf(50)) for d in derivs)


# --- geometry oracles ------------------------------------------------------


def ellipsoid_support_value(a, b, theta):
    return math.sqrt(a * a * math.cos(theta) ** 2 + b * b * math.sin(theta) ** 2)


def ellipsoid_radii_closed(a, b, theta):
    """Principal radii of the spheroid with polar semi-axis a, equatorial b:
    meridional a^2 b^2 / s^3, rotational b^2 / s."""
    s = ellipsoid_support_value(a, b, theta)
    return (a * a * b * b) / s**3, (b * b) / s


def sphere_radius_oracle(rho0, alpha, t):
    return (rho0 ** (alpha + 1.0) - (alpha + 1.0) * t) ** (1.0 / (alpha + 1.0))


def sphere_time_oracle(rho0, alpha):
    return rho0 ** (alpha + 1.0) / (alpha + 1.0)


def cfl_dt(dtheta, safety, fdot_sum_max):
    """The explicit parabolic step safety * dtheta^2 / max(fdot1 + fdot2)."""
    return safety * dtheta * dtheta / fdot_sum_max


def reference_flow(profile, speed, t_end, safety=0.25):
    """Explicit midpoint steps at the CFL step, clipped to land on t_end:
    the slow reference for the flow's stepper.  It shares the package's
    stencil and cap, so only the time integration differs; the rates come
    from `speed_value`.  Returns (s, t)."""
    from pinchflow.flow import _cot_table, _radii, _rate_and_cap

    fam, alpha = speed.family, float(speed.alpha)
    d, cot = profile.dtheta, _cot_table(profile.theta)
    s, t = profile.s, profile.time
    while t < t_end:
        r1, r2, _ = _radii(s, d, cot)
        rate0, cap = _rate_and_cap(fam, alpha, r1, r2)
        dt = min(cfl_dt(d, safety, cap), t_end - t)
        rm1, rm2, _ = _radii(s + (0.5 * dt) * rate0, d, cot)
        s = s + dt * speed_value(fam, alpha, rm1, rm2)
        t = t + dt
    return s, t


def numerator_coeffs_oracle(alpha):
    """Descending (t^3 .. t^0) coefficients of the first closed numerator."""
    a = Fraction(alpha)
    return (
        2 * a * a - 5 * a + 2,
        -(4 * a * a - 7 * a + 6),
        2 * a * a - 3 * a - 2,
        a - 2,
    )


def pinch_21_alpha2(s2):
    """Pinching value of the 2:1 spheroid at support s (alpha = 2), as a
    function of u = s^2: (4 - u)^2 u / 16 on u in [1, 4]."""
    return (4.0 - s2) ** 2 * s2 / 16.0


# --- frozen reference values ----------------------------------------------

# gauss, alpha=2 at (1, 2): k = sqrt(2); f = -1/k^2 = -1/2;
# fdot_i = 2 k^-3 kdot_i with kdot = (k/(2 r1), k/(2 r2)) -> (1/2, 1/4)
GAUSS_A2_12 = {"f": -0.5, "f1": 0.5, "f2": 0.25}
# gdot1 = f - fdot1 (r2-r1) = -1/2 - 1/2 = -1; gdot2 = -f - fdot2 = 1/2 - 1/4
GAUSS_A2_12_G = {"g1": -1.0, "g2": 0.25}
# closed numerators at alpha=2: (0, -8, 0, 0) -> N1(2) = -32, common factor
# 2a/((r1 r2)^(a/2+2) (r2-r1)) = 4/16, denominators d1^2 = 16, d2^2 = 4
# -> Q1 = 4/16 * (-32)/ ... exact evaluation gives (-1, -8)
GAUSS_A2_12_Q = (Fraction(-1), Fraction(-8))
# alpha=1 at (1, 2): N1 coeffs (-1,-3,-3,-1) give N1(2) = -27; prefactor
# 2a/((r1 r2)^(a/2+2)(r2-r1)) = 2/2^(5/2), d1^2 = 9 -> -27/(9 * 2^{3/2})
GAUSS_A1_12_Q1 = -27.0 / (9.0 * 2.0**1.5)
# convexity margin, gauss at (1,4): LHS 2*1*.25*1.25 = 0.625, RHS 0.375
CONVEXITY_14 = 0.25
# gauss at (1,100): quarter-expressions (10 + 0.1)/4 - (10 - 0.1)/4
CONVEXITY_1_100 = 0.05
# pinching examples: (1,2) alpha 2 -> 1/4; (2,4) alpha 1 -> 4/8
PINCH_12_A2 = 0.25
PINCH_24_A1 = 0.5
# 2:1 spheroid, alpha 2: equator value 9/16; true sup 16/27 at s^2 = 4/3
PINCH_21_EQUATOR = 9.0 / 16.0
PINCH_21_SUP = 16.0 / 27.0
# k-table examples
K_GAUSS_14 = (2.0, 1.0, 0.25)
K_MEAN_11 = 0.5
# 2:1 spheroid radii at the equator and poles
EQUATOR_RADII_21 = (4.0, 1.0)
POLE_RADII_21 = 0.5


# --- per-draw identity suites ----------------------------------------------


def _draw_radii(rng):
    r1 = 10.0 ** rng.uniform(-3, 3)
    t = 1.0 + 10.0 ** rng.uniform(-3, 3)
    return RadiiPoint(r1, r1 * t)


def z_residual_suite_loop(draws=10000, seed=0):
    """identities.z_residual_suite one draw at a time through the package's
    per-point API: the slow reference for its array evaluation."""
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


def reduction_suite_loop(draws=1000, seed=0):
    """identities.reduction_suite one draw at a time: the slow reference for
    its array evaluation."""
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
