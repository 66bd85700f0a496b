"""Pinching algebra for the test function G = -f(r2 - r1) - const.

Provides the G-derivatives, the zero-order term Z (identically zero for any
surface speed, returned as a residual), the gradient-term coefficients Q1/Q2
in general and gauss closed form, the full-Q reduction self check, and the
alpha^3-convexity margin.

Normalization convention: the coefficients of T1^2 and T2^2 in the gradient
reduction are only determined up to positive point-dependent factors (the
slack variables T_i can be rescaled).  This module fixes the convention in
which the gauss closed rational forms come out, i.e. the raw coefficients are
multiplied by nu_i = (-2/f)/(gdot_i)^2 > 0.  Signs, certificates and
thresholds are unaffected; the two evaluation routes become directly
comparable.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .errors import DomainError, PoleError, UmbilicError
from .speeds import (
    RadiiPoint,
    SpeedFunction,
    _f_derivs,
    _gauss_f_derivs_exact,
    _k_derivs,
    _wants_exact,
    eval_f_derivs,
)


@dataclass(frozen=True)
class GDerivs:
    g1: float
    g2: float
    g11: float
    g12: float
    g22: float


def _require_ordered(r: RadiiPoint):
    if r.r2 == r.r1:
        raise UmbilicError(f"r1 = r2 = {r.r1}: G is not smooth at umbilic points")
    if r.r2 < r.r1:
        raise DomainError(f"requires r2 > r1, got ({r.r1}, {r.r2})")


def g_derivs(speed: SpeedFunction, r: RadiiPoint) -> GDerivs:
    """First and second radii-derivatives of G (the additive constant drops)."""
    _require_ordered(r)
    f, f1, f2, f11, f12, f22 = eval_f_derivs(speed, r)
    w = r.r2 - r.r1
    return GDerivs(
        g1=f - f1 * w,
        g2=-f - f2 * w,
        g11=2 * f1 - f11 * w,
        g12=f2 - f1 - f12 * w,
        g22=-2 * f2 - f22 * w,
    )


def zero_order_term(speed: SpeedFunction, r: RadiiPoint):
    """Reaction-term combination Z; identically zero for every speed, so the
    returned value is a pure floating-point residual (a built-in self test).

    Z expands to 0 for any values (f, f1, f2), right or wrong, so it measures
    rounding only; identities.closed_agreement_suite catches derivative errors.
    """
    _require_ordered(r)
    f, f1, f2 = eval_f_derivs(speed, r)[:3]
    w = r.r2 - r.r1
    g1 = f - f1 * w
    g2 = -f - f2 * w
    return (f + f1 * r.r1 + f2 * r.r2) * (g1 + g2) - (f1 + f2) * (g1 * r.r1 + g2 * r.r2)


def _gradient_terms_raw(fd, w):
    """Raw T1^2/T2^2 coefficients after the fddot cancellations.

    Generic in the scalar type: floats, numpy arrays, Fractions and mpmath
    intervals all work (w must be positive, or an interval within [0, inf)).
    """
    f, f1, f2, f11, f12, f22 = fd
    g1 = f - f1 * w
    g2 = -f - f2 * w
    fvv = f11 * g2 * g2 - 2 * f12 * g1 * g2 + f22 * g1 * g1
    common = 2 * f * (f1 + f2)
    q1 = f * fvv + common * (f * f / w - 2 * f * f1 - f1 * f2 * w)
    q2 = -f * fvv + common * (f * f / w + 2 * f * f2 - f1 * f2 * w)
    return q1, q2, g1, g2


def gradient_terms_general(speed: SpeedFunction, r: RadiiPoint):
    """(Q1, Q2) for any family, in the closed-form normalization.

    Exact Fractions come back on the gauss even-alpha rational path; floats
    otherwise.
    """
    _require_ordered(r)
    fd = eval_f_derivs(speed, r)
    q1, q2, g1, g2 = _gradient_terms_raw(fd, r.r2 - r.r1)
    nu = -2 / fd.f
    if g1 == 0 or g2 == 0:
        # gdot2 can only vanish where the closed-form denominator does
        raise PoleError("normalization pole: gdot vanishes", t=r.r2 / r.r1)
    return q1 * nu / (g1 * g1), q2 * nu / (g2 * g2)


def closed_numerator_coeffs(alpha):
    """Exact coefficients (t^3, t^2, t^1, t^0) of the first closed-form
    numerator at r1=1, r2=t; the second numerator is the t^5-reversal.

    Any binary float alpha is a dyadic rational, so this is always exact.
    """
    a = Fraction(alpha)
    return (
        2 * a * a - 5 * a + 2,
        -(4 * a * a - 7 * a + 6),
        2 * a * a - 3 * a - 2,
        a - 2,
    )


def gradient_terms_gauss_closed(r: RadiiPoint, alpha):
    """(Q1, Q2) for gauss_power via the closed rational expressions.

    Exact Fractions when r1, r2 are rational and alpha is an even integer
    (the only case where the (r1 r2)^(alpha/2 + 2) prefactor is rational);
    floats otherwise.  Raises PoleError where a denominator linear factor
    vanishes, which can happen only for alpha > 2.
    """
    _require_ordered(r)
    c3, c2, c1, c0 = closed_numerator_coeffs(alpha)
    exact = _wants_exact(SpeedFunction("gauss_power", alpha), r)
    if exact:
        a = Fraction(alpha)
        r1, r2 = Fraction(r.r1), Fraction(r.r2)
        pref = (r1 * r2) ** (int(a) // 2 + 2) * (r2 - r1)
    else:
        a = float(alpha)
        c3, c2, c1, c0 = (float(c) for c in (c3, c2, c1, c0))
        r1, r2 = float(r.r1), float(r.r2)
        pref = (r1 * r2) ** (a / 2 + 2) * (r2 - r1)
    d1 = a * r2 + (2 - a) * r1
    d2 = a * r1 + (2 - a) * r2
    if d1 == 0 or d2 == 0:
        raise PoleError(
            "denominator factor vanishes (alpha > 2)",
            t=r.r2 / r.r1,
            factor="alpha*r2+(2-alpha)*r1" if d1 == 0 else "alpha*r1+(2-alpha)*r2",
        )
    n1 = c3 * r1**2 * r2**3 + c2 * r1**3 * r2**2 + c1 * r1**4 * r2 + c0 * r1**5
    n2 = c3 * r2**2 * r1**3 + c2 * r2**3 * r1**2 + c1 * r2**4 * r1 + c0 * r2**5
    return 2 * a * n1 / (pref * d1 * d1), 2 * a * n2 / (pref * d2 * d2)


def q_full_reduction_check(speed: SpeedFunction, r: RadiiPoint, T1, T2):
    """Residual of the eight-term Q against Q1*T1^2 + Q2*T2^2.

    The gradient components are synthesized from the two first-derivative
    constraints and the Codazzi symmetries, with the slack directions scaled
    by lambda_i = sqrt(-2/f)/|gdot_i| so the reduction lands in the same
    normalization as gradient_terms_general.  Contract: residual ~ 0.

    Both sides are built from the same derivative values and agree
    algebraically for any of them, so the residual measures rounding only;
    identities.closed_agreement_suite catches derivative errors.
    """
    q_full, combo = _q_full_and_combo(speed, r, T1, T2)
    return q_full - combo


def _q_full_and_combo(speed, r, T1, T2):
    _require_ordered(r)
    f, f1, f2, f11, f12, f22 = (float(v) for v in eval_f_derivs(speed, r))
    w = float(r.r2 - r.r1)
    g1 = f - f1 * w
    g2 = -f - f2 * w
    g11 = 2 * f1 - f11 * w
    g12 = f2 - f1 - f12 * w
    g22 = -2 * f2 - f22 * w
    lam1 = sqrt(-2 / f) / abs(g1)
    lam2 = sqrt(-2 / f) / abs(g2)
    d1r11 = lam1 * g2 * T1
    d1r22 = -lam1 * g1 * T1
    d2r22 = lam2 * g1 * T2
    d2r11 = -lam2 * g2 * T2
    d1r12 = d2r11  # Codazzi
    d2r12 = d1r22
    cross = (g1 * f2 - g2 * f1) / w
    q_full = (
        (g1 * f11 - f1 * g11) * d1r11**2
        + (g1 * f22 - f1 * g22) * d1r22**2
        + 2 * (g1 * f12 - f1 * g12) * d1r11 * d1r22
        + 2 * cross * d1r12**2
        + (g2 * f11 - f2 * g11) * d2r11**2
        + (g2 * f22 - f2 * g22) * d2r22**2
        + 2 * (g2 * f12 - f2 * g12) * d2r11 * d2r22
        + 2 * cross * d2r12**2
    )
    rp = RadiiPoint(float(r.r1), float(r.r2))
    q1, q2 = gradient_terms_general(SpeedFunction(speed.family, float(speed.alpha)), rp)
    return q_full, q1 * T1 * T1 + q2 * T2 * T2


def convexity_condition(speed: SpeedFunction, r: RadiiPoint):
    """Margin (LHS - RHS) of the alpha^3-coefficient inequality

        2 kdot1 kdot2 (kdot1 + kdot2) >= (r2 - r1) |kddot(v, v)|,

    with v = kdot2 e1 - kdot1 e2.  Nonnegative margin means the cubic alpha
    coefficients of Q1 and Q2 are nonnegative (convexity of Q_i/alpha)."""
    _require_ordered(r)
    k, k1, k2, k11, k12, k22 = _k_derivs(speed.family, float(speed.alpha), float(r.r1), float(r.r2))
    lhs = 2 * k1 * k2 * (k1 + k2)
    kvv = k11 * k2 * k2 - 2 * k12 * k1 * k2 + k22 * k1 * k1
    return lhs - float(r.r2 - r.r1) * abs(kvv)


def pinching_quantity(r: RadiiPoint, alpha):
    """(r1 - r2)^2 / (r1 r2)^alpha; umbilic input allowed (gives 0)."""
    r1, r2 = float(r.r1), float(r.r2)
    return (r1 - r2) ** 2 / (r1 * r2) ** float(alpha)


def gradient_terms_general_arrays(speed: SpeedFunction, t, method="auto"):
    """Vectorized (Q1, Q2) at r = (1, t) for a numpy array t > 1, normalized
    like gradient_terms_general.  Used by the scanners.

    method "auto" sends the gauss family through the closed polynomial form:
    the raw assembly loses its sign to cancellation at large t when the
    second normalizing factor degenerates (alpha near 2), while the closed
    numerators evaluate cleanly.  "raw" forces the general assembly and
    "closed" the polynomial route (gauss only) — the agreement suite compares
    the two directly.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    if method not in ("auto", "raw", "closed"):
        raise DomainError(f"unknown evaluation method {method!r}")
    use_closed = (
        speed.family == "gauss_power" if method == "auto" else method == "closed"
    )
    if use_closed:
        if speed.family != "gauss_power":
            raise DomainError("closed evaluation exists only for gauss_power")
        a = float(speed.alpha)
        c3, c2, c1, c0 = (float(c) for c in closed_numerator_coeffs(a))
        n1 = ((c3 * t + c2) * t + c1) * t + c0
        n2 = ((((c0 * t + c1) * t + c2) * t + c3) * t) * t
        d1 = a * t + (2.0 - a)
        d2 = a + (2.0 - a) * t
        common = 2.0 * a / (t ** (a / 2.0 + 2.0) * (t - 1.0))
        return common * n1 / (d1 * d1), common * n2 / (d2 * d2)
    fd = _f_derivs(speed.family, float(speed.alpha), np.ones_like(t), t)
    q1, q2, g1, g2 = _gradient_terms_raw(fd, t - 1.0)
    nu = -2.0 / fd[0]
    return q1 * nu / (g1 * g1), q2 * nu / (g2 * g2)
