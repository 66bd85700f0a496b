"""Pinching algebra for the test function G = -f(r2 - r1) - const.

Provides the G-derivatives, the zero-order term Z (identically zero for any
surface speed, returned as a residual), the gradient-term coefficients Q1/Q2
in general and gauss closed form, the full-Q reduction self check, and the
alpha^3-convexity margin.

Each formula is written once, over + - * / so that Fractions, floats, numpy
arrays, mpmath numbers and the exact ring of the certificates run the same
code: `_gdot` and `_g_derivs` (G's derivatives), `_zero_order` (Z),
`_q_full` (the eight-term Q of the reduction check, floats or float arrays),
`_gradient_terms_raw` with `_normalize` (the raw Q1/Q2 assembly, any
family), `_gauss_closed` (the gauss_power closed form in t = r2/r1, its
numerators by `horner`, their coefficients the integer lists of
`_closed_numerator_ints`, that the exact certificates read as well) and
`_power_sum_table` (mean, norm and sum power derivatives straight from f,
not through k: the agreement suite's second route, and the certificates').

Normalization convention: the coefficients of T1^2 and T2^2 in the gradient
reduction are only determined up to positive point-dependent factors (the
slack variables T_i can be rescaled).  This module fixes the convention in
which the gauss closed rational forms come out, i.e. the raw coefficients are
multiplied by nu_i = (-2/f)/(gdot_i)^2 > 0.  Signs, certificates and
thresholds are unaffected; the two evaluation routes become directly
comparable.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError, UmbilicError
from .speeds import (
    RadiiPoint,
    SpeedFunction,
    _f_derivs,
    _k_derivs,
    _wants_exact,
    eval_f_derivs,
)


class GDerivs(NamedTuple):
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


def _gdot(fd, w):
    """First radii-derivatives (g1, g2) of G from (f, fdot); generic in the
    scalar type."""
    f, f1, f2 = fd[:3]
    return f - f1 * w, -f - f2 * w


def _g_derivs(fd, w) -> GDerivs:
    f, f1, f2, f11, f12, f22 = fd
    return GDerivs(*_gdot(fd, w), 2 * f1 - f11 * w, f2 - f1 - f12 * w, -2 * f2 - f22 * w)


def g_derivs(speed: SpeedFunction, r: RadiiPoint) -> GDerivs:
    """First and second radii-derivatives of G (the additive constant drops)."""
    _require_ordered(r)
    return _g_derivs(eval_f_derivs(speed, r), r.r2 - r.r1)


def zero_order_term(speed: SpeedFunction, r: RadiiPoint):
    """Reaction-term combination Z; identically zero for every speed, so the
    returned value is a pure floating-point residual (a built-in self test).

    Z expands to 0 for any values (f, f1, f2), right or wrong, so it measures
    rounding only; identities.closed_agreement_suite catches derivative errors.
    """
    _require_ordered(r)
    return _zero_order(eval_f_derivs(speed, r), r.r1, r.r2)


def _zero_order(fd, r1, r2):
    """Z from (f, fdot) at radii (r1, r2); generic in the scalar type."""
    f, f1, f2 = fd[:3]
    g1, g2 = _gdot(fd, r2 - r1)
    return (f + f1 * r1 + f2 * r2) * (g1 + g2) - (f1 + f2) * (g1 * r1 + g2 * r2)


def _gradient_terms_raw(fd, w):
    """Raw T1^2/T2^2 coefficients after the fddot cancellations.

    Generic in the scalar type: floats, numpy arrays, Fractions, mpmath
    numbers and the certificates' exact ring all work (w must be positive).
    """
    f, f1, f2, f11, f12, f22 = fd
    g1, g2 = _gdot(fd, w)
    fvv = f11 * g2 * g2 - 2 * f12 * g1 * g2 + f22 * g1 * g1
    common = 2 * f * (f1 + f2)
    q1 = f * fvv + common * (f * f / w - 2 * f * f1 - f1 * f2 * w)
    q2 = -f * fvv + common * (f * f / w + 2 * f * f2 - f1 * f2 * w)
    return q1, q2, g1, g2


def _normalize(q1, q2, g1, g2, f):
    """Raw (q1, q2) times nu_i = (-2/f)/gdot_i^2: the closed-form
    normalization of the module docstring."""
    nu = -2 / f
    return q1 * nu / (g1 * g1), q2 * nu / (g2 * g2)


def gradient_terms_general(speed: SpeedFunction, r: RadiiPoint):
    """(Q1, Q2) for any family, in the closed-form normalization.

    Exact Fractions come back on the gauss even-alpha rational path; floats
    otherwise.
    """
    _require_ordered(r)
    fd = eval_f_derivs(speed, r)
    q1, q2, g1, g2 = _gradient_terms_raw(fd, r.r2 - r.r1)
    if g1 == 0 or g2 == 0:
        # gdot2 can only vanish where the closed-form denominator does
        raise PoleError("normalization pole: gdot vanishes", t=r.r2 / r.r1)
    return _normalize(q1, q2, g1, g2, fd.f)


def _raw_arrays(family, alpha, t):
    """(Q1, Q2) at r = (1, t) from the raw assembly, for a float array t > 1
    and a float alpha or a column of them broadcast against t."""
    fd = _f_derivs(family, alpha, np.ones_like(t), t)
    return _normalize(*_gradient_terms_raw(fd, t - 1.0), fd[0])


def _power_sum_p(family, alpha):
    return {"mean_power": 1, "norm_power": 2, "sum_power": alpha}[family]


def _power_sum_table(alpha, p, a1, a2, c1, c2):
    """(f, fdot, fddot) of f = -S^(alpha/p), S = a1 + a2, a_i = k_i^p, c_i = k_i,
    times the scale S^(2 - alpha/p) > 0 (S^(1 - alpha/p) = 1 when alpha = p):
    with u_i = a_i c_i and v_i = u_i c_i, f -> -S^2, f_i -> alpha u_i S and
    f_ij -> -alpha (alpha - p) u_i u_j - delta_ij alpha (p + 1) v_i S.  The raw
    Q has degree 4 in (f, fdot, fddot), so the scale keeps its sign.  An
    alpha column must take one side of the alpha == p test in every row; the
    certificates' formal alpha takes the alpha != p side."""
    s = a1 + a2
    m = 1 if np.all(alpha == p) else s
    u1, u2 = a1 * c1, a2 * c2
    cross, diag = alpha * (alpha - p), alpha * (p + 1) * m
    f11 = -cross * u1 * u1 - diag * u1 * c1
    f22 = -cross * u2 * u2 - diag * u2 * c2
    return -s * m, alpha * u1 * m, alpha * u2 * m, f11, -cross * u1 * u2, f22


def _power_sum_q(family, alpha, t):
    """(Q1, Q2) at r = (1, t) from the power-sum table, its scale divided out,
    normalized like gradient_terms_general; t a float array or mpmath number,
    alpha a float or a column of them on one side of alpha == p."""
    p = _power_sum_p(family, alpha)
    c2 = 1 / t
    a2 = c2**p
    fd = _power_sum_table(alpha, p, 1, a2, 1, c2)
    q1, q2 = _normalize(*_gradient_terms_raw(fd, t - 1), fd[0])
    scale = 1 if np.all(alpha == p) else (1 + a2) ** (2 - alpha / p)
    return q1 / scale, q2 / scale


def _closed_numerator_ints(alpha):
    """(d^2, N1, N2) at alpha = n/d, a float, int or Fraction: d^2 times the
    descending coefficients in t of the first closed-form numerator N1 and
    of its t^5-reversal N2, as integer lists.  Any binary float is a dyadic
    rational, so this is always exact."""
    n, d = alpha.as_integer_ratio()
    n1 = [
        2 * n * n - 5 * n * d + 2 * d * d,
        -(4 * n * n - 7 * n * d + 6 * d * d),
        2 * n * n - 3 * n * d - 2 * d * d,
        (n - 2 * d) * d,
    ]
    return d * d, n1, n1[::-1] + [0, 0]


def closed_numerator_coeffs(alpha):
    """Exact coefficients (t^3, t^2, t^1, t^0) of the first closed-form
    numerator at r1=1, r2=t, as Fractions; the second numerator is the
    t^5-reversal."""
    scale, n1, _ = _closed_numerator_ints(Fraction(alpha))
    return tuple(Fraction(c, scale) for c in n1)


def _closed_numerator_columns(a):
    """`_closed_numerator_ints` as float columns for an alpha column a: each
    coefficient by integer true division, which rounds correctly, so it is
    bit-equal to float() of the exact coefficient, and no Fraction is
    built."""
    rows = []
    for alpha in a.ravel():
        scale, n1, n2 = _closed_numerator_ints(float(alpha))
        rows.append([c / scale for c in n1 + n2])
    columns = list(np.array(rows).T[..., None])
    return columns[:4], columns[4:]


def horner(coeffs, x):
    """Value at x of the polynomial with descending coefficients (at least
    one); generic in the scalar type."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _gauss_closed(a, t, scalar):
    """(Q1, Q2) of gauss_power at r = (1, t) from the closed rational forms
    Q_i = 2a N_i(t) / (t^(a/2+2) (t - 1) d_i^2), for any scalar type; `scalar`
    converts the exact numerator coefficients, Fractions.  An alpha column
    takes its coefficients as float columns from `_closed_numerator_columns`
    instead.
    d1 = a (t - 1) + 2 > 0 on t > 1, while d2 vanishes at t = a / (a - 2)
    when a > 2.
    """
    if np.ndim(a):
        n1, n2 = _closed_numerator_columns(a)
    else:
        scale, *numerators = _closed_numerator_ints(a)
        n1, n2 = ([scalar(Fraction(c, scale)) for c in n] for n in numerators)
    d1 = a * t + (2 - a)
    d2 = a + (2 - a) * t
    common = 2 * a / (t ** (a / 2 + 2) * (t - 1))
    return common * horner(n1, t) / (d1 * d1), common * horner(n2, t) / (d2 * d2)


def gradient_terms_gauss_closed(r: RadiiPoint, alpha):
    """(Q1, Q2) for gauss_power via the closed rational expressions.

    Exact Fractions when r1, r2 are rational and alpha is an even integer
    (the only case where the t^(alpha/2 + 2) prefactor is rational); floats
    otherwise.  Evaluated at t = r2/r1 and scaled by r1^-(alpha+2), since Q
    is homogeneous of that degree.  Raises PoleError where the second
    denominator factor vanishes, which can happen only for alpha > 2.
    """
    _require_ordered(r)
    if _wants_exact(SpeedFunction("gauss_power", alpha), r):
        a, r1, scalar = Fraction(alpha), Fraction(r.r1), Fraction
        t = Fraction(r.r2) / r1
    else:
        a, r1, scalar = float(alpha), float(r.r1), float
        t = float(r.r2) / r1
    try:
        q1, q2 = _gauss_closed(a, t, scalar)
    except ZeroDivisionError:
        msg = "denominator factor vanishes (alpha > 2)"
        raise PoleError(msg, t=r.r2 / r.r1, factor="alpha*r1+(2-alpha)*r2") from None
    scale = r1 ** -(a + 2)
    return q1 * scale, q2 * scale


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
    _require_ordered(r)
    fd = tuple(float(v) for v in eval_f_derivs(speed, r))
    q_full = _q_full(fd, float(r.r2 - r.r1), T1, T2)
    rp = RadiiPoint(float(r.r1), float(r.r2))
    q1, q2 = gradient_terms_general(SpeedFunction(speed.family, float(speed.alpha)), rp)
    return q_full - (q1 * T1 * T1 + q2 * T2 * T2)


def _q_full(fd, w, T1, T2):
    """The eight-term Q of q_full_reduction_check from (f, fdot, fddot),
    w = r2 - r1 and the slack components T1, T2; floats or float arrays."""
    f, f1, f2, f11, f12, f22 = fd
    g1, g2, g11, g12, g22 = _g_derivs(fd, w)
    lam1 = np.sqrt(-2 / f) / abs(g1)
    lam2 = np.sqrt(-2 / f) / abs(g2)
    d1r11 = lam1 * g2 * T1
    d1r22 = -lam1 * g1 * T1
    d2r22 = lam2 * g1 * T2
    d2r11 = -lam2 * g2 * T2
    d1r12 = d2r11  # Codazzi
    d2r12 = d1r22
    cross = (g1 * f2 - g2 * f1) / w
    return (
        (g1 * f11 - f1 * g11) * d1r11**2
        + (g1 * f22 - f1 * g22) * d1r22**2
        + 2 * (g1 * f12 - f1 * g12) * d1r11 * d1r22
        + 2 * cross * d1r12**2
        + (g2 * f11 - f2 * g11) * d2r11**2
        + (g2 * f22 - f2 * g22) * d2r22**2
        + 2 * (g2 * f12 - f2 * g12) * d2r11 * d2r22
        + 2 * cross * d2r12**2
    )


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


def gradient_terms_general_arrays(speed: SpeedFunction, t):
    """Vectorized (Q1, Q2) at r = (1, t) for a numpy array t > 1, normalized
    like gradient_terms_general.  Used by the scanners."""
    return _closed_q(speed.family, float(speed.alpha), np.asarray(t, dtype=float))


def _closed_q(family, alpha, t, scalar=float):
    """(Q1, Q2) at r = (1, t), t a float array or an mpmath number, through a
    route that does not use k: the closed gauss polynomial, its coefficients
    converted by `scalar` (the raw assembly loses its sign to cancellation at
    large t when the second normalizing factor degenerates, alpha near 2),
    or the power-sum table.  alpha is a float, or a float column broadcast
    against t.  The agreement suite compares them with `_raw_arrays`; the
    certificates' witnesses evaluate them at 150 bits."""
    if family == "gauss_power":
        return _gauss_closed(alpha, t, scalar)
    return _power_sum_q(family, alpha, t)
