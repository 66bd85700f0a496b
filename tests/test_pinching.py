"""Pinching algebra: G-derivatives, Z, gradient terms, reduction, convexity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow import (
    FAMILIES,
    PoleError,
    RadiiPoint,
    SpeedFunction,
    UmbilicError,
    eval_f_derivs,
    gradient_terms_gauss_closed,
    gradient_terms_general,
)
from pinchflow.pinching import (
    _closed_numerator_columns,
    _closed_numerator_ints,
    _g_derivs,
    _require_ordered,
)
from pinchflow.speeds import _k_derivs

import oracles
from oracles import q_full_reduction_check, zero_order_term

ordered_radii_st = st.tuples(
    st.floats(0.05, 10.0), st.floats(1.001, 50.0)
).map(lambda p: RadiiPoint(p[0], p[0] * p[1]))
alpha_st = st.floats(0.5, 10.0)
family_st = st.sampled_from(FAMILIES)


def closed_coeffs(alpha):
    """The package's first closed numerator, descending (t^3 .. t^0), as
    Fractions from the integer lists of `_closed_numerator_ints`."""
    scale, n1, _ = _closed_numerator_ints(Fraction(alpha))
    return tuple(Fraction(c, scale) for c in n1)


def convexity_condition(speed, r):
    """Margin (LHS - RHS) of the alpha^3-coefficient inequality

        2 kdot1 kdot2 (kdot1 + kdot2) >= (r2 - r1) |kddot(v, v)|,

    with v = kdot2 e1 - kdot1 e2.  Nonnegative margin means the cubic alpha
    coefficients of Q1 and Q2 are nonnegative (convexity of Q_i/alpha)."""
    _require_ordered(r)
    k, k1, k2, k11, k12, k22 = _k_derivs(speed.family, float(speed.alpha), float(r.r1), float(r.r2))
    lhs = 2 * k1 * k2 * (k1 + k2)
    kvv = k11 * k2 * k2 - 2 * k12 * k1 * k2 + k22 * k1 * k1
    return lhs - float(r.r2 - r.r1) * abs(kvv)


def test_g_derivs_frozen():
    r = RadiiPoint(1, 2)
    fd = eval_f_derivs(SpeedFunction("gauss_power", 2.0), r)
    g1, g2, *_ = _g_derivs(fd, r.r2 - r.r1)
    assert g1 == pytest.approx(oracles.GAUSS_A2_12_G["g1"], abs=1e-14)
    assert g2 == pytest.approx(oracles.GAUSS_A2_12_G["g2"], abs=1e-14)


def test_g_derivs_umbilic_limit():
    # as r2 -> r1+, the (r2-r1) terms vanish: g1 -> f, g2 -> -f
    speed = SpeedFunction("mean_power", 3.0)
    r = RadiiPoint(1.0, 1.0 + 1e-9)
    fd = eval_f_derivs(speed, r)
    g1, g2, *_ = _g_derivs(fd, r.r2 - r.r1)
    assert g1 == pytest.approx(fd.f, rel=1e-7)
    assert g2 == pytest.approx(-fd.f, rel=1e-7)


def test_umbilic_rejected():
    for op in (zero_order_term, convexity_condition, gradient_terms_general):
        with pytest.raises(UmbilicError):
            op(SpeedFunction("gauss_power", 2.0), RadiiPoint(2, 2))
    with pytest.raises(UmbilicError):
        gradient_terms_gauss_closed(RadiiPoint(2, 2), 2.0)


def test_zero_order_frozen_points():
    cases = [
        ("gauss_power", 2.0, RadiiPoint(1, 2)),
        ("mean_power", 3.0, RadiiPoint(1, 5)),
        ("sum_power", 7.0, RadiiPoint(0.3, 2.7)),
    ]
    for fam, alpha, r in cases:
        speed = SpeedFunction(fam, alpha)
        fd = eval_f_derivs(speed, r)
        scale = (
            (abs(fd.f) + fd.f1 * r.r1 + fd.f2 * r.r2)
            * (fd.f1 + fd.f2)
            * (r.r2 - r.r1)
        )
        assert abs(zero_order_term(speed, r)) <= 1e-14 * scale


@settings(derandomize=True, deadline=None, max_examples=300)
@given(family_st, alpha_st, ordered_radii_st)
def test_zero_order_bound_property(family, alpha, r):
    speed = SpeedFunction(family, alpha)
    fd = eval_f_derivs(speed, r)
    scale = (
        (abs(fd.f) + fd.f1 * r.r1 + fd.f2 * r.r2)
        * (fd.f1 + fd.f2)
        * (r.r2 - r.r1)
    )
    assert abs(zero_order_term(speed, r)) <= 1e-12 * scale


def test_gradient_terms_frozen_gauss():
    q1, q2 = gradient_terms_general(SpeedFunction("gauss_power", 2.0), RadiiPoint(1, 2))
    assert q1 == pytest.approx(-1.0, rel=1e-12)
    assert q2 == pytest.approx(-8.0, rel=1e-12)
    # alpha = 1 gives nonpositive Q for any speed at this point
    for fam in FAMILIES:
        q1, q2 = gradient_terms_general(SpeedFunction(fam, 1.0), RadiiPoint(1, 2))
        assert q1 <= 0 and q2 <= 0


def test_mean_power_alpha6_positive_somewhere():
    # threshold ~5.16, so alpha=6 must fail at some ratio below 1e4
    import numpy as np

    from pinchflow.pinching import gradient_terms_general_arrays

    t = np.geomspace(1.001, 1e4, 4096)
    q1, q2 = gradient_terms_general_arrays(SpeedFunction("mean_power", 6.0), t)
    assert max(np.nanmax(q1), np.nanmax(q2)) > 0


def test_closed_exact_at_alpha2():
    q1, q2 = gradient_terms_gauss_closed(RadiiPoint(1, 2), 2.0)
    assert isinstance(q1, Fraction) and isinstance(q2, Fraction)
    assert (q1, q2) == oracles.GAUSS_A2_12_Q


def test_closed_frozen_alpha1():
    q1, _ = gradient_terms_gauss_closed(RadiiPoint(1, 2), 1.0)
    assert q1 == pytest.approx(oracles.GAUSS_A1_12_Q1, rel=1e-12)


def test_closed_large_ratio_failure_above_two():
    _, q2 = gradient_terms_gauss_closed(RadiiPoint(1, 1000), 2.1)
    assert q2 > 0


def test_closed_pole_error():
    # d2 = alpha + (2 - alpha) t vanishes at t = 3 for alpha = 3
    with pytest.raises(PoleError, match="vanishes at t=3.0 "):
        gradient_terms_gauss_closed(RadiiPoint(1, 3), 3.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.1])
def test_closed_scalar_matches_arrays(alpha):
    # both routes run the one closed form in t; the scalar route at
    # r = (r1, r1 t) scales by homogeneity of degree -(alpha + 2)
    import numpy as np

    from pinchflow.pinching import gradient_terms_general_arrays

    t = np.geomspace(1.001, 1e4, 301)
    q1a, q2a = gradient_terms_general_arrays(SpeedFunction("gauss_power", alpha), t)
    for r1 in (1.0, 0.5, 3.0):
        for ti, want1, want2 in zip(t, q1a, q2a):
            q1, q2 = gradient_terms_gauss_closed(RadiiPoint(r1, r1 * float(ti)), alpha)
            scale = r1 ** (alpha + 2)
            assert q1 * scale == pytest.approx(want1, rel=1e-13), (r1, ti)
            assert q2 * scale == pytest.approx(want2, rel=1e-13), (r1, ti)


def test_numerator_coeffs_against_oracle():
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)):
        assert closed_coeffs(alpha) == oracles.numerator_coeffs_oracle(alpha)
        # the second numerator is the t^5-reversal of the first
        _, n1, n2 = _closed_numerator_ints(alpha)
        assert n2 == n1[::-1] + [0, 0]
    # the four coefficients always sum to -8 (value at t = 1)
    for alpha in (Fraction(1, 7), Fraction(5, 3), Fraction(11, 2), Fraction(42)):
        assert sum(closed_coeffs(alpha)) == -8


@pytest.mark.parametrize("grid", ["closed_agreement", "dyadic_2^-40"])
def test_gauss_column_coefficients_bit_equal(grid):
    # the alpha-column path divides integers; each entry must be float() of
    # the exact coefficient, on the agreement suite's 64 exponents and on
    # random dyadic exponents with large denominators
    if grid == "closed_agreement":
        alphas = np.linspace(0.5, 2.0, 64)
    else:
        alphas = np.random.default_rng(0).integers(1, 12 * 2**40, 500) / 2**40
    n1, n2 = _closed_numerator_columns(alphas[:, None])
    for i, alpha in enumerate(alphas):
        exact = oracles.numerator_coeffs_oracle(float(alpha))
        assert [float(c[i, 0]).hex() for c in n1] == [float(c).hex() for c in exact]
        assert [float(c[i, 0]).hex() for c in n2[:4]] == [float(c).hex() for c in exact[::-1]]
    assert len(n2) == 6 and not np.any(n2[4:])


def test_numerators_quadratic_in_alpha():
    # third difference in alpha of each coefficient vanishes exactly
    h = Fraction(3, 7)
    for base in (Fraction(1, 2), Fraction(2), Fraction(9, 4)):
        rows = [closed_coeffs(base + k * h) for k in range(4)]
        for j in range(4):
            third = rows[3][j] - 3 * rows[2][j] + 3 * rows[1][j] - rows[0][j]
            assert third == 0


def test_swap_antisymmetry_exact():
    # Swapping the radii exchanges the roles of the two gradient terms:
    # exactly, N2(t) = t^5 N1(1/t) and d1(1/t) t = d2(t), so the closed forms
    # satisfy Q2(r1, r2) = -Q1(r2, r1) as rational functions.
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)):
        c3, c2, c1, c0 = closed_coeffs(alpha)
        n1 = lambda t: c3 * t**3 + c2 * t**2 + c1 * t + c0
        for t in (Fraction(3, 2), Fraction(2), Fraction(17, 5), Fraction(100)):
            assert t**5 * n1(1 / t) == c0 * t**5 + c1 * t**4 + c2 * t**3 + c3 * t**2
            d2 = alpha + (2 - alpha) * t
            assert (alpha * (1 / t) + (2 - alpha)) * t == d2


def test_reduction_frozen():
    speed = SpeedFunction("gauss_power", 2.0)
    r = RadiiPoint(1, 2)
    q1, q2 = gradient_terms_gauss_closed(r, 2.0)
    for (t1, t2), want in (((1.0, 0.0), -1.0), ((0.0, 1.0), -8.0), ((0.0, 0.0), 0.0)):
        residual = q_full_reduction_check(speed, r, t1, t2)
        assert abs(residual) <= 1e-12
        q_full = residual + float(q1) * t1 * t1 + float(q2) * t2 * t2
        assert q_full == pytest.approx(want, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    family_st,
    alpha_st,
    ordered_radii_st,
    st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0),
)
def test_reduction_property(family, alpha, r, t1, t2):
    speed = SpeedFunction(family, alpha)
    residual = q_full_reduction_check(speed, r, t1, t2)
    q1, q2 = gradient_terms_general(speed, r)
    scale = max(abs(q1 * t1 * t1), abs(q2 * t2 * t2), 1.0)
    assert abs(residual) <= 1e-12 * scale


def test_convexity_frozen():
    speed = SpeedFunction("gauss_power", 2.0)
    assert convexity_condition(speed, RadiiPoint(1, 4)) == pytest.approx(
        oracles.CONVEXITY_14, rel=1e-12
    )
    assert convexity_condition(speed, RadiiPoint(1, 100)) == pytest.approx(
        oracles.CONVEXITY_1_100, rel=1e-10
    )
    near = convexity_condition(speed, RadiiPoint(1, 1 + 1e-9))
    assert near == pytest.approx(0.5, rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ordered_radii_st, alpha_st)
def test_convexity_nonnegative_gauss(r, alpha):
    assert convexity_condition(SpeedFunction("gauss_power", alpha), r) >= 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_st, st.floats(0.5, 6.0), ordered_radii_st, st.sampled_from([1e-3, 1.0, 1e3]))
def test_sign_scale_invariance(family, alpha, r, lam):
    speed = SpeedFunction(family, alpha)
    q1, q2 = gradient_terms_general(speed, r)
    p1, p2 = gradient_terms_general(speed, RadiiPoint(lam * r.r1, lam * r.r2))
    # normalized Q has fixed homogeneity; signs cannot flip under scaling
    eps = 1e-10 * max(abs(q1), abs(q2), abs(p1), abs(p2))
    assert (q1 <= eps) == (p1 <= eps) or min(abs(q1), abs(p1)) <= eps
    assert (q2 <= eps) == (p2 <= eps) or min(abs(q2), abs(p2)) <= eps
