"""Speed-family evaluation: frozen values, derivative oracles, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow import (
    FAMILIES,
    DomainError,
    RadiiPoint,
    SpeedFunction,
    eval_f_derivs,
)
from pinchflow.identities import _ScalarPow
from pinchflow.speeds import _f_derivs, _k_derivs

import oracles

ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.25)

radii_st = st.tuples(
    st.floats(0.05, 20.0), st.floats(0.05, 20.0)
).map(lambda p: RadiiPoint(*p))
alpha_st = st.floats(0.5, 10.0)
family_st = st.sampled_from(FAMILIES)


def k_derivs(speed, r):
    """(k, k1, k2, k11, k12, k22) at one point, floats."""
    return _k_derivs(speed.family, float(speed.alpha), float(r.r1), float(r.r2))


def test_eval_f_frozen():
    assert eval_f_derivs(SpeedFunction("gauss_power", 2.0), RadiiPoint(1, 1)).f == -1.0
    assert eval_f_derivs(SpeedFunction("gauss_power", 1.0), RadiiPoint(1, 4)).f == -0.5
    assert eval_f_derivs(SpeedFunction("mean_power", 1.0), RadiiPoint(1, 1)).f == -2.0


def test_eval_f_matches_curvature_definition():
    for fam in FAMILIES:
        for alpha in ALPHAS:
            for r1, r2 in ((0.3, 0.9), (1.0, 2.0), (4.0, 11.0)):
                got = eval_f_derivs(SpeedFunction(fam, alpha), RadiiPoint(r1, r2)).f
                want = oracles.speed_value(fam, alpha, r1, r2)
                assert got == pytest.approx(want, rel=1e-13)
                assert got < 0


def test_f_derivs_frozen_gauss():
    fd = eval_f_derivs(SpeedFunction("gauss_power", 2.0), RadiiPoint(1, 2))
    assert fd.f == pytest.approx(oracles.GAUSS_A2_12["f"], abs=1e-14)
    assert fd.f1 == pytest.approx(oracles.GAUSS_A2_12["f1"], abs=1e-14)
    assert fd.f2 == pytest.approx(oracles.GAUSS_A2_12["f2"], abs=1e-14)


def test_f_derivs_scalar_pow_arrays_match_points():
    # the identity suites evaluate their draws as _ScalarPow arrays and must
    # give the bits of the per-point evaluation
    rng = np.random.default_rng(5)
    r1, r2 = 10.0 ** rng.uniform(-3, 3, (2, 64))
    for fam in FAMILIES:
        for alpha in (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.25, 4.0, 5.7, 10.0):
            a = np.full_like(r1, alpha)
            got = _f_derivs(fam, *(x.view(_ScalarPow) for x in (a, r1, r2)))
            speed = SpeedFunction(fam, alpha)
            want = [eval_f_derivs(speed, RadiiPoint(*r)) for r in zip(r1, r2)]
            assert np.array_equal(np.array(got), np.array(want).T), (fam, alpha)


def test_k_derivs_frozen():
    kd = k_derivs(SpeedFunction("gauss_power", 1.0), RadiiPoint(1, 4))
    assert kd[:3] == pytest.approx(oracles.K_GAUSS_14, rel=1e-14)
    for c in (0.3, 1.0, 7.0):
        k, k1, k2, *_ = k_derivs(SpeedFunction("gauss_power", 2.0), RadiiPoint(c, c))
        assert k == pytest.approx(c, rel=1e-14)
        assert k1 == pytest.approx(0.5, rel=1e-14)
        assert k2 == pytest.approx(0.5, rel=1e-14)
    k = k_derivs(SpeedFunction("mean_power", 1.0), RadiiPoint(1, 1))[0]
    assert k == pytest.approx(oracles.K_MEAN_11, rel=1e-14)


def test_derivatives_match_finite_differences():
    # log grid 2^-4 .. 2^4; first derivs to 1e-6 rel, second to 1e-4 rel
    grid = [2.0**e for e in range(-4, 5, 2)]
    for fam in FAMILIES:
        for alpha in (0.5, 1.0, 2.0, 3.25):
            for r1 in grid:
                for r2 in grid:
                    fd = eval_f_derivs(SpeedFunction(fam, alpha), RadiiPoint(r1, r2))
                    ref = oracles.fd_f_derivs(fam, alpha, r1, r2)
                    got = (fd.f, fd.f1, fd.f2, fd.f11, fd.f12, fd.f22)
                    scale1 = max(abs(ref[1]), abs(ref[2]))
                    scale2 = max(abs(ref[3]), abs(ref[4]), abs(ref[5]))
                    assert got[0] == pytest.approx(ref[0], rel=1e-10)
                    for i in (1, 2):
                        assert abs(got[i] - ref[i]) <= 1e-6 * scale1
                    for i in (3, 4, 5):
                        assert abs(got[i] - ref[i]) <= 1e-4 * scale2


def test_derivatives_match_sympy_exactly():
    # tighter than the FD oracle: symbolic derivatives at 50 digits
    for fam in FAMILIES:
        for alpha in (0.5, 1.5, 2.0):
            for r1, r2 in ((0.25, 3.0), (1.0, 2.0)):
                fd = eval_f_derivs(SpeedFunction(fam, alpha), RadiiPoint(r1, r2))
                ref = oracles.sympy_f_derivs(fam, alpha, r1, r2)
                got = (fd.f, fd.f1, fd.f2, fd.f11, fd.f12, fd.f22)
                scale = max(abs(v) for v in ref)
                for g, w in zip(got, ref):
                    assert abs(g - w) <= 1e-13 * scale


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_st, alpha_st, radii_st, st.floats(0.01, 100.0))
def test_homogeneity(family, alpha, r, lam):
    speed = SpeedFunction(family, alpha)
    f = eval_f_derivs(speed, r).f
    fs = eval_f_derivs(speed, RadiiPoint(lam * r.r1, lam * r.r2)).f
    assert abs(fs - lam ** (-alpha) * f) <= 1e-12 * abs(f) * lam ** (-alpha)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_st, alpha_st, radii_st)
def test_euler_identities(family, alpha, r):
    speed = SpeedFunction(family, alpha)
    fd = eval_f_derivs(speed, r)
    k, k1, k2, *_ = k_derivs(speed, r)
    # f has degree -alpha, k degree 1
    assert fd.f1 * r.r1 + fd.f2 * r.r2 == pytest.approx(-alpha * fd.f, rel=1e-12)
    assert k1 * r.r1 + k2 * r.r2 == pytest.approx(k, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_st, alpha_st, radii_st)
def test_f_from_k_composition(family, alpha, r):
    # fdot = alpha k^-(1+alpha) kdot; fddot per the chain rule
    speed = SpeedFunction(family, alpha)
    fd = eval_f_derivs(speed, r)
    k, k1, k2, k11, k12, k22 = k_derivs(speed, r)
    ka = k ** (-alpha)
    scale1 = abs(fd.f1) + abs(fd.f2)
    for got, kdot in ((fd.f1, k1), (fd.f2, k2)):
        assert abs(got - alpha * ka / k * kdot) <= 1e-12 * scale1
    c2 = -alpha * (1 + alpha) * ka / k**2
    c1 = alpha * ka / k
    scale2 = abs(fd.f11) + abs(fd.f12) + abs(fd.f22) + 1e-300
    for got, kdi, kdj, kddot in (
        (fd.f11, k1, k1, k11),
        (fd.f12, k1, k2, k12),
        (fd.f22, k2, k2, k22),
    ):
        assert abs(got - (c2 * kdi * kdj + c1 * kddot)) <= 1e-12 * scale2


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family_st, alpha_st, radii_st)
def test_parabolicity_and_sign(family, alpha, r):
    fd = eval_f_derivs(SpeedFunction(family, alpha), r)
    assert fd.f < 0
    assert fd.f1 > 0 and fd.f2 > 0


def test_umbilic_symmetry():
    for fam in FAMILIES:
        fd = eval_f_derivs(SpeedFunction(fam, 1.7), RadiiPoint(1, 1))
        assert fd.f1 == pytest.approx(fd.f2, rel=1e-13)
    fd = eval_f_derivs(SpeedFunction("gauss_power", 1.0), RadiiPoint(1, 1))
    assert fd.f11 == pytest.approx(fd.f22, rel=1e-13)


def test_sum_power_k_consistency():
    # the sum family's k is pinned by f = -k^-alpha
    for alpha in (1.5, 3.0, 7.0):
        speed = SpeedFunction("sum_power", alpha)
        for r1, r2 in ((0.3, 2.7), (1.0, 5.0)):
            f = oracles.speed_value("sum_power", alpha, r1, r2)
            k = k_derivs(speed, RadiiPoint(r1, r2))[0]
            assert k == pytest.approx((-f) ** (-1.0 / alpha), rel=1e-13)


def test_domain_errors():
    speed = SpeedFunction("gauss_power", 2.0)
    for bad in ((0.0, 1.0), (1.0, -2.0), (-1.0, -1.0)):
        with pytest.raises(DomainError):
            eval_f_derivs(speed, RadiiPoint(*bad))
    with pytest.raises((DomainError, ValueError)):
        SpeedFunction("gauss_power", -1.0)
    with pytest.raises((DomainError, ValueError)):
        SpeedFunction("box_power", 2.0)


def test_k_derivs_orders_are_prefixes_of_order_two():
    # the flow asks for order 0 or 1; each must give the bits of order 2's
    # prefix, on arrays through both sides of sum_power's max/min and on the
    # diagonal, and on plain float scalars (the sphere law's path)
    r1 = np.array([0.3, 2.0, 1.25, 7.0, 0.05, 4.0])
    r2 = np.array([0.9, 0.5, 1.25, 7.0, 3.0, 1e-3])
    for fam in FAMILIES:
        for alpha in (0.5, 1.0, 1.75, 2.0, 7.3):
            full = _k_derivs(fam, alpha, r1, r2)
            assert len(full) == 6
            assert np.array_equal(_k_derivs(fam, alpha, r1, r2, order=0), full[0])
            first = _k_derivs(fam, alpha, r1, r2, order=1)
            assert len(first) == 3
            for got, want in zip(first, full):
                assert np.array_equal(got, want)
            for a, b in zip(r1.tolist(), r2.tolist()):
                full = _k_derivs(fam, alpha, a, b)
                assert _k_derivs(fam, alpha, a, b, order=0) == full[0]
                assert _k_derivs(fam, alpha, a, b, order=1) == full[:3]


def test_array_evaluation_matches_scalar():
    # the array path must agree with scalar calls elementwise
    from pinchflow.speeds import _f_derivs

    rng = np.random.default_rng(3)
    r1 = 10.0 ** rng.uniform(-2, 2, size=64)
    t = 1.0 + 10.0 ** rng.uniform(-3, 3, size=64)
    r2 = r1 * t
    for fam in FAMILIES:
        arr = _f_derivs(fam, 1.75, r1, r2)
        for i in (0, 17, 63):
            sc = eval_f_derivs(SpeedFunction(fam, 1.75), RadiiPoint(r1[i], r2[i]))
            assert arr[0][i] == pytest.approx(sc.f, rel=1e-14)
            assert arr[3][i] == pytest.approx(sc.f11, rel=1e-14)

