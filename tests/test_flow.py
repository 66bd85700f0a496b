"""Axisymmetric support-function flow: grids, radii, stepping, diagnostics."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from pinchflow import (
    ConvexityLossError,
    DomainError,
    FlowConfig,
    ResolutionError,
    SpeedFunction,
    StepRejectedError,
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
import pinchflow.flow as flowmod
from pinchflow.flow import TRACE_COLUMNS, SupportProfile, _grid, pinching_drift

import oracles
from oracles import sphere_radius_law


def hex_row(values):
    return tuple(float.hex(float(v)) for v in values)


def bumpy_profile(n=101, amp=0.4):
    """Positive but non-convex support profile (fails r1 > 0 at the poles)."""
    return SupportProfile(1.0 + amp * np.cos(4 * _grid(n).theta))


# --- grids and profiles ----------------------------------------------------


def test_grid_validation():
    for bad in (32, 31, 100):
        with pytest.raises(ResolutionError):
            ellipsoid_support(2.0, 1.0, n_nodes=bad)


def test_profile_validation():
    with pytest.raises(DomainError):
        SupportProfile(np.zeros(41))
    for bad in (40, 31):
        with pytest.raises(ResolutionError):
            SupportProfile(np.ones(bad))
    with pytest.raises(DomainError):
        SupportProfile(np.ones((2, 33)))


@pytest.mark.parametrize("n", [33, 101, 201])
def test_grid_cached_read_only_and_symmetric(n):
    g = _grid(n)
    assert g is _grid(n)
    assert hex_row(g.theta) == hex_row(np.linspace(0.0, math.pi, n))
    assert g.d == g.theta[1] - g.theta[0]
    # cot is odd about the equator bit for bit; the equator entry is 0
    h = n // 2
    assert hex_row(g.cot[h + 1 : n - 1]) == hex_row(-g.cot[1:h][::-1])
    assert g.cot[h] == 0.0
    assert list(g.pad) == [1, *range(n), n - 2]
    for name, table in g._asdict().items():
        if name == "d":
            continue
        assert not table.flags.writeable, name
        with pytest.raises(ValueError):
            table[0] = 1


def test_ellipsoid_support_frozen():
    p = ellipsoid_support(2.0, 1.0, n_nodes=201)
    assert p.s[0] == pytest.approx(2.0, rel=1e-14)  # pole theta=0
    assert p.s[100] == pytest.approx(1.0, rel=1e-14)  # equator on-grid
    assert p.s[-1] == pytest.approx(2.0, rel=1e-14)
    sphere = ellipsoid_support(1.5, 1.5, n_nodes=41)
    assert np.allclose(sphere.s, 1.5, rtol=1e-15)


def test_ellipsoid_support_matches_oracle():
    p = ellipsoid_support(2.0, 1.0, n_nodes=101)
    want = [oracles.ellipsoid_support_value(2.0, 1.0, th) for th in p.theta]
    assert np.allclose(p.s, want, rtol=1e-14)


# --- radii -----------------------------------------------------------------


def test_radii_sphere_exact():
    p = sphere_support(3.0, n_nodes=101)
    r1, r2 = radii_from_support(p)
    assert np.max(np.abs(r1 - 3.0)) <= 1e-10
    assert np.max(np.abs(r2 - 3.0)) <= 1e-10


def test_radii_from_support_is_the_stencil():
    p = ellipsoid_support(2.0, 1.0, n_nodes=101)
    r1, r2 = radii_from_support(p)
    want1, want2, _ = flowmod._radii(p.s, _grid(101))
    assert r1.tobytes() == want1.tobytes()
    assert r2.tobytes() == want2.tobytes()


def test_radii_ellipsoid_equator_and_pole():
    p = ellipsoid_support(2.0, 1.0, n_nodes=201)
    r1, r2 = radii_from_support(p)
    h2 = p.dtheta**2
    eq = 100
    assert abs(r1[eq] - oracles.EQUATOR_RADII_21[0]) <= 40 * h2
    assert abs(r2[eq] - oracles.EQUATOR_RADII_21[1]) <= 40 * h2
    for pole in (0, 200):
        assert r1[pole] == r2[pole]
        assert abs(r1[pole] - oracles.POLE_RADII_21) <= 40 * h2


def test_radii_second_order_convergence():
    errs = []
    for n in (201, 401):
        p = ellipsoid_support(2.0, 1.0, n_nodes=n)
        r1, r2 = radii_from_support(p)
        want1, want2 = zip(
            *(oracles.ellipsoid_radii_closed(2.0, 1.0, th) for th in p.theta)
        )
        errs.append(
            max(
                np.max(np.abs(r1 - np.array(want1))),
                np.max(np.abs(r2 - np.array(want2))),
            )
        )
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_radii_convexity_loss_error():
    with pytest.raises(ConvexityLossError) as exc:
        radii_from_support(bumpy_profile())
    assert exc.value.node is not None
    assert min(exc.value.r1, exc.value.r2) <= 0


def test_radii_match_padded_stencil_bitwise():
    # the cached gather index and s + s against a fresh padded array and
    # 2.0 * s, on the built-in profiles and a rough positive one per size
    rng = np.random.default_rng(5)
    for n in (33, 101, 201):
        g = _grid(n)
        for s in (
            ellipsoid_support(2.0, 1.0, n).s,
            sphere_support(0.7, n).s,
            rng.uniform(0.5, 2.0, n),
        ):
            got = flowmod._radii(s, g)
            want = oracles.padded_radii(s, g.d, g.cot)
            for x, y in zip(got, want):
                assert hex_row(x) == hex_row(y)


def _reduction_cases():
    """Length-33 arrays with NaN first/middle/last, +-inf, mixed +-0 and
    all-equal values."""
    base = np.linspace(-3.0, 5.0, 33)
    cases = []
    for at in (0, 16, 32):
        x = base.copy()
        x[at] = np.nan
        cases.append(x)
    x = base.copy()
    x[[3, 20]] = np.nan
    cases.append(x)
    x = base.copy()
    x[5], x[25] = np.inf, -np.inf
    cases.append(x)
    cases.append(np.full(33, np.inf))
    cases.append(np.full(33, -np.inf))
    cases.append(np.where(np.arange(33) % 2 == 0, 0.0, -0.0))
    cases.append(np.where(np.arange(33) % 3 == 0, -0.0, 0.0))
    cases.append(np.full(33, 1.25))
    cases.append(base)
    return cases


def test_min_max_helpers_match_ufunc_reductions():
    for x in _reduction_cases():
        for helper, ufunc in (
            (flowmod._min, np.minimum),
            (flowmod._max, np.maximum),
        ):
            got, want = helper(x), ufunc.reduce(x)
            assert np.isnan(got) == np.isnan(want)
            assert np.isnan(want) or got == want


def test_convex_rejects_nan_radius():
    ones = np.ones(33)
    assert flowmod._convex(ones, ones)
    for at in (0, 16, 32):
        bad = ones.copy()
        bad[at] = np.nan
        assert not flowmod._convex(bad, ones)
        assert not flowmod._convex(ones, bad)


# --- stepping --------------------------------------------------------------


def test_step_sphere_against_exact_law():
    p = sphere_support(1.0, n_nodes=101)
    out = step(p, SpeedFunction("gauss_power", 2.0), 1e-4)
    want = (1.0 - 3e-4) ** (1.0 / 3.0)
    assert np.max(np.abs(out.s - want)) <= 1e-8
    assert out.time == pytest.approx(1e-4)


def test_step_zero_dt_identity():
    p = ellipsoid_support(2.0, 1.0, n_nodes=101)
    out = step(p, SpeedFunction("mean_power", 1.5), 0.0)
    assert np.array_equal(out.s, p.s)


def test_step_contracts_everywhere():
    p = ellipsoid_support(2.0, 1.0, n_nodes=101)
    out = step(p, SpeedFunction("norm_power", 2.0), 1e-5)
    assert (out.s < p.s).all()


def test_step_rejects_bad_dt(monkeypatch):
    p = sphere_support(1.0, n_nodes=101)
    with pytest.raises(StepRejectedError):
        step(p, SpeedFunction("gauss_power", 2.0), 10.0)
    # a step past the stage limit is rejected before any stage is taken
    with pytest.raises(StepRejectedError):
        step(p, SpeedFunction("gauss_power", 2.0), 1e300)
    # one NaN stage rate, at the equator, makes that node's stages NaN, and
    # the reductions must carry it to the convexity and positivity tests
    real = flowmod._k_derivs

    def nan_at_order_0(family, alpha, r1, r2, order=2):
        out = real(family, alpha, r1, r2, order=order)
        if order == 0:
            out = out.copy()
            out[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(flowmod, "_k_derivs", nan_at_order_0)
    speed = SpeedFunction("gauss_power", 2.0)
    with pytest.raises(StepRejectedError):
        step(p, speed, adaptive_dt(p, speed))


def test_adaptive_dt_frozen():
    # unit sphere, gauss: the lifetime 1 / (alpha + 1), and the step is 0.008
    # of it at any node count, also at N = 33 and alpha = 0.25, where the
    # explicit parabolic step (fdot1 + fdot2 = 0.25), 9.6e-3, is longer
    assert flowmod._EPS == 0.008
    for alpha, n_nodes in ((2.0, 201), (0.5, 33), (0.25, 33)):
        speed = SpeedFunction("gauss_power", alpha)
        dt = adaptive_dt(sphere_support(1.0, n_nodes=n_nodes), speed)
        assert dt == pytest.approx(0.008 / (alpha + 1.0), rel=1e-12)


def test_adaptive_dt_scaling():
    speed = SpeedFunction("gauss_power", 2.0)
    dt1 = adaptive_dt(sphere_support(1.0, 201), speed)
    dt2 = adaptive_dt(sphere_support(1.0, 401), speed)
    assert dt1 == pytest.approx(dt2, rel=1e-12)  # accuracy, not the grid, sets it
    # shrinking sphere: the remaining lifetime shrinks, dt falls
    dts = [adaptive_dt(sphere_support(rho, 201), speed) for rho in (1.0, 0.5, 0.25)]
    assert dts[0] > dts[1] > dts[2]


@pytest.mark.parametrize("family", oracles.FAMILIES)
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_rkc_matches_explicit_reference(family, alpha):
    # both schemes from the 2:1 spheroid to 0.9 of the default stop time,
    # the RKC one by the steps `run` takes
    cfg = FlowConfig(family, alpha, a=2.0, b=1.0, n_nodes=51, record_every=1)
    trace = run(cfg)
    t_end = 0.9 * trace.t_final
    dts = (rec.dt for rec in trace.records[1:])
    speed = cfg.speed()
    p = cfg.initial_profile()
    while p.time < t_end:
        p = step(p, speed, min(next(dts), t_end - p.time))
    s_ref, t_ref = oracles.reference_flow(cfg.initial_profile(), speed, t_end)
    assert p.time == t_end and t_ref == t_end
    assert np.max(np.abs(p.s - s_ref)) / np.max(s_ref) <= 1e-5


def stage_recurrence(coefficients, f, y0, h):
    """One step of h of y' = f(y) from y0 through `_rkc`'s stage update, with
    coefficients in `_rkc_coefficients`'s form."""
    mu_t1, stages = coefficients
    f0 = f(y0)
    y_prev, y = y0, y0 + mu_t1 * h * f0
    for mu, nu, mu_t, gamma_t in stages:
        y_prev, y = y, (
            (1.0 - mu - nu) * y0
            + mu * y
            + nu * y_prev
            + gamma_t * h * f0
            + mu_t * h * f(y)
        )
    return y


def stability(n_stages, z):
    """R(z) of `_rkc_coefficients(n_stages)`: one step of y' = lambda y from
    y = 1, z = lambda dt (an array or a Polynomial)."""
    return stage_recurrence(flowmod._rkc_coefficients(n_stages), lambda y: z * y, 1.0, 1.0)


def test_rkc_stability_polynomial_is_second_order():
    z = np.polynomial.Polynomial([0.0, 1.0])
    # two stages: exactly 1 + z + z^2/2, as for every explicit two-stage
    # second-order method
    assert np.allclose(stability(2, z).coef, [1.0, 1.0, 0.5], rtol=0, atol=1e-15)
    for n in range(3, 11):
        coef = stability(n, z).coef
        assert len(coef) == n + 1
        assert np.allclose(coef[:3], [1.0, 1.0, 0.5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [*range(2, 41), 64, 200, flowmod._MAX_STAGES])
def test_rkc_stable_wherever_stage_count_picks_it(n):
    # `_stage_count` picks n for dt * rho below (n^2 - 1) / 1.54; with d = 2
    # and cap 1, rho = (4 / d^2 + 1) cap = 2
    x_hi = (n * n - 1) / 1.54
    assert flowmod._stage_count(x_hi * (1 - 1e-9) / 2.0, 1.0, 2.0) == n
    assert flowmod._stage_count(x_hi * (1 + 1e-9) / 2.0, 1.0, 2.0) == n + 1
    r = stability(n, np.linspace(-x_hi, 0.0, 40 * n + 1))
    assert np.max(np.abs(r[:-1])) <= 1.0
    assert r[-1] == pytest.approx(1.0, rel=1e-11)  # R(0), up to rounding


@pytest.mark.parametrize("family", ["gauss_power", "mean_power", "norm_power", "sum_power"])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_step_and_run_agree_bit_for_bit(family, alpha):
    cfg = FlowConfig(
        family, alpha, a=2.0, b=1.0, n_nodes=51, max_steps=20, record_every=1
    )
    trace = run(cfg)
    assert trace.status == "max_steps" and trace.steps == 20
    speed = cfg.speed()
    p = cfg.initial_profile()
    for rec in trace.records[1:]:
        p = step(p, speed, rec.dt)
        assert p.time == rec.t
    assert np.array_equal(p.s, trace.profile.s)
    assert p.time == trace.t_final


# (steps, float.hex(t_extinct), float.hex(profile.s.sum())) of a short flow
# per family, frozen from the RKC stepper in w = s^(alpha + 1) with steps
# sized by its error estimate (_TOL 1e-8, _CAP 0.05; Ralston's method at
# two stages), the mirror-exact stencil, the stop landed by two secant
# steps and the a0 fit: any change to the rounding of the hot loop moves
# one of them
HOT_LOOP_PINS = {
    "gauss_power": (557, "0x1.7387567981c92p-1", "0x1.aa832c61af347p+2"),
    "mean_power": (569, "0x1.e5b73e2596fdep-3", "0x1.ad036064c304ep+2"),
    "norm_power": (588, "0x1.72f380f13ca97p-2", "0x1.b435b75cb83bap+2"),
    "sum_power": (573, "0x1.47b1476ac1cdfp-2", "0x1.af993858083e0p+2"),
}


@pytest.mark.parametrize("family", sorted(HOT_LOOP_PINS))
def test_run_hot_loop_bytes_pinned(family):
    cfg = FlowConfig(family, 1.5, a=2.0, b=1.0, n_nodes=33, stop_fraction=0.2)
    trace = run(cfg)
    assert trace.status == "extinct_fraction"
    got = (
        trace.steps,
        float.hex(trace.t_extinct),
        float.hex(float(trace.profile.s.sum())),
    )
    assert got == HOT_LOOP_PINS[family]


# sha256 over the records of the HOT_LOOP_PINS flows run with record_every=1,
# one line of float.hex fields per record, frozen with HOT_LOOP_PINS: a
# rounding change that `diagnostics` shares moves them
RECORD_PINS = {
    "gauss_power": "9c0ca255f871c247a72cdf40dbda97c0ab52abe79284a7bd31753e37e5f8ac5d",
    "mean_power": "e1981f023959eae016ca1cf0e10def894b4cfd367a4f8ba4e1e1139a8ca888df",
    "norm_power": "bb175adf180d863e349923e1867a203eb38f99d402dcf231d195a035d0ca116e",
    "sum_power": "61d0a9e489d7b009c44af1759edef034ea28b10a1f9d2ea0015d88b17b0f616d",
}


@pytest.mark.parametrize("family", sorted(RECORD_PINS))
def test_run_record_bytes_pinned(family):
    cfg = FlowConfig(
        family, 1.5, a=2.0, b=1.0, n_nodes=33, stop_fraction=0.2, record_every=1
    )
    trace = run(cfg)
    assert len(trace.records) == HOT_LOOP_PINS[family][0] + 1
    h = hashlib.sha256()
    for rec in trace.records:
        h.update((",".join(hex_row(rec)) + "\n").encode())
    assert h.hexdigest() == RECORD_PINS[family]


# --- diagnostics -----------------------------------------------------------


def test_diagnostics_sphere():
    d = diagnostics(sphere_support(2.0, 101), SpeedFunction("gauss_power", 2.0))
    assert d["pinch_sup"] <= 1e-20
    assert d["max_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert d["roundness"] == pytest.approx(1.0, abs=1e-10)
    assert d["circumradius"] == pytest.approx(2.0, rel=1e-10)
    assert d["inradius"] == pytest.approx(2.0, rel=1e-10)


def test_diagnostics_ellipsoid_frozen():
    p = ellipsoid_support(2.0, 1.0, n_nodes=401)
    d = diagnostics(p, SpeedFunction("gauss_power", 2.0))
    # node scan of the closed form says the sup is 16/27 (s^2 = 4/3), above
    # the equator value 9/16
    assert d["pinch_sup"] == pytest.approx(oracles.PINCH_21_SUP, abs=2e-3)
    assert d["pinch_sup"] > oracles.PINCH_21_EQUATOR
    assert d["max_radius"] == pytest.approx(4.0, abs=30 * p.dtheta**2)
    assert d["min_radius"] == pytest.approx(0.5, abs=30 * p.dtheta**2)


def test_diagnostics_equator_value_alpha2():
    p = ellipsoid_support(2.0, 1.0, n_nodes=401)
    r1, r2 = radii_from_support(p)
    eq = 200
    got = (r1[eq] - r2[eq]) ** 2 / (r1[eq] * r2[eq]) ** 2
    assert got == pytest.approx(oracles.PINCH_21_EQUATOR, abs=1e-3)


# --- runs ------------------------------------------------------------------


def test_run_sphere_matches_law():
    cfg = FlowConfig("gauss_power", 1.5, a=1.0, b=1.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg)
    assert trace.status == "extinct_fraction"
    worst = 0.0
    for rec in trace.records:
        rho = oracles.sphere_radius_oracle(1.0, 1.5, rec.t)
        worst = max(worst, abs(rec.min_support - rho) / rho)
    assert worst <= 1e-3
    assert trace.t_extinct == pytest.approx(
        oracles.sphere_time_oracle(1.0, 1.5), abs=1e-3
    )
    assert abs(trace.extinction_center) <= 1e-6
    assert trace.deviation <= 1e-5


def test_run_translated_sphere_center():
    prof = SupportProfile(1.0 + 0.3 * np.cos(_grid(101).theta))
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg, profile=prof)
    assert trace.t_extinct is not None
    assert trace.extinction_center == pytest.approx(0.3, abs=2e-3)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_run_translated_sphere_extinction(alpha):
    # a unit sphere 0.2 up the axis: a0 is its radius wherever its centre
    # sits, so T and the recentred deviation are those of the round sphere
    prof = SupportProfile(1.0 + 0.2 * np.cos(_grid(101).theta))
    cfg = FlowConfig("gauss_power", alpha, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg, profile=prof)
    assert trace.status == "extinct_fraction"
    assert abs(trace.t_extinct - oracles.sphere_time_oracle(1.0, alpha)) <= 1e-5
    assert trace.deviation <= 1e-3


def test_run_extinction_independent_of_record_every():
    # the fit reads (t, a0) at every step, and the last record is the stop
    traces = [
        run(FlowConfig("gauss_power", 1.0, a=2.0, b=1.0, n_nodes=51, record_every=k))
        for k in (1, 100)
    ]
    assert len(traces[0].records) > len(traces[1].records)
    for name in ("t_extinct", "extinction_center", "deviation"):
        assert getattr(traces[0], name) == getattr(traces[1], name), name


@pytest.mark.parametrize("family", oracles.FAMILIES)
def test_run_lands_on_stop(family):
    # the crossing step is shortened by one secant step in dt, so the final
    # minimum support is the target to within the secant's error
    cfg = FlowConfig(family, 1.5, a=2.0, b=1.0, n_nodes=51, stop_fraction=0.1)
    trace = run(cfg)
    target = cfg.stop_fraction * trace.initial_min_support
    assert abs(trace.profile.s.min() / target - 1.0) <= 1e-5


def test_run_monotone_smoke():
    cfg = FlowConfig("gauss_power", 1.5, a=2.0, b=1.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg)
    for col in ("pinch_sup", "max_radius", "max_ratio"):
        drift = pinching_drift([getattr(r, col) for r in trace.records])
        assert drift <= 1e-3, col
    first, last = trace.records[0], trace.records[-1]
    r0 = first.circumradius / first.inradius
    r1 = last.circumradius / last.inradius
    assert abs(r1 - 1.0) < abs(r0 - 1.0)


def test_run_preserves_equatorial_symmetry():
    # every family: the stencil and every RKC update are mirror-exact
    for family in oracles.FAMILIES:
        cfg = FlowConfig(
            family, 1.5, a=2.0, b=1.0, n_nodes=101, stop_fraction=0.2, record_every=50
        )
        s = run(cfg).profile.s
        assert np.array_equal(s, s[::-1]), family


def test_run_convexity_loss_partial_trace():
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=101)
    with pytest.raises(ConvexityLossError) as exc:
        run(cfg, profile=bumpy_profile())
    assert exc.value.node >= 0  # the initial check, not the dt-halving abort
    assert min(exc.value.r1, exc.value.r2) <= 0
    trace = exc.value.trace
    assert trace is not None and trace.status == "convexity_loss"
    assert trace.records == []
    assert trace.dt_min is None and trace.dt_max is None
    assert trace.initial_min_support == bumpy_profile().s.min()
    mono = trace.summary_dict()["monotonicity"]
    columns = ("pinch_sup", "max_radius", "max_ratio")
    assert mono["drift"] == dict.fromkeys(columns)
    assert mono["monotone"] == dict.fromkeys(columns, False)


def test_monotone_tol_is_criterion_7_bound():
    # summary.json's "monotone" flags and criterion 7 judge the same drift
    assert flowmod.MONOTONE_TOL == 1e-3


def test_run_dt_halving_abort_keeps_every_record(monkeypatch):
    cfg = FlowConfig("gauss_power", 2.0, a=2.0, b=1.0, n_nodes=33, record_every=1)
    full = run(dataclasses.replace(cfg, max_steps=100))
    assert full.status == "max_steps" and len(full.records) == 101
    assert full.stages >= 2 * (full.steps + full.rejected)
    real = flowmod._rkc

    def rkc_until_step_100(family, alpha, s, *args):
        if np.array_equal(s, full.profile.s):  # every try from step 100 fails
            return None
        return real(family, alpha, s, *args)

    monkeypatch.setattr(flowmod, "_rkc", rkc_until_step_100)
    with pytest.raises(ConvexityLossError) as exc:
        run(cfg)
    assert exc.value.node == -1  # the dt-halving abort
    trace = exc.value.trace
    assert trace.status == "convexity_loss" and trace.steps == 100
    assert trace.rejected == full.rejected + 8 and trace.stages > full.stages
    assert [hex_row(r) for r in trace.records] == [
        hex_row(r) for r in full.records
    ]
    assert trace.initial_min_support == cfg.initial_profile().s.min()


def test_run_rejects_profile_of_other_node_count():
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=201, stop_fraction=0.2)
    with pytest.raises(DomainError):
        run(cfg, profile=sphere_support(1.0, 101))


@pytest.mark.parametrize("family", ["gauss_power", "mean_power", "norm_power", "sum_power"])
def test_run_records_match_diagnostics(family):
    # 150 steps span three record blocks; N = 201 runs the centre sum past
    # numpy's 128-element pairwise block
    for n_nodes in (51, 201):
        cfg = FlowConfig(
            family, 1.5, a=2.0, b=1.0, n_nodes=n_nodes, max_steps=150, record_every=1
        )
        speed = cfg.speed()
        trace = run(cfg)
        assert len(trace.records) == 151
        p = cfg.initial_profile()
        for n, rec in enumerate(trace.records):
            if n:
                p = step(p, speed, rec.dt)
            want = diagnostics(p, speed)
            want.update(step=n, t=p.time, dt=rec.dt)
            assert hex_row(rec) == hex_row(want[c] for c in TRACE_COLUMNS), (
                n_nodes,
                n,
            )


def test_run_times_strictly_increase():
    cfg = FlowConfig("sum_power", 2.0, a=1.5, b=1.0, n_nodes=101, stop_fraction=0.15)
    trace = run(cfg)
    times = [rec.t for rec in trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(np.isfinite(rec.pinch_sup) for rec in trace.records)


def test_run_dt_range_is_the_trace_dt_column():
    # over the steps taken: the dt column without step 0's dt = 0, landed
    # last step included, whatever `record_every` keeps
    cfg = FlowConfig("gauss_power", 1.0, a=2.0, b=1.0, n_nodes=33, record_every=1)
    trace = run(cfg)
    dts = [rec.dt for rec in trace.records[1:]]
    assert (trace.dt_min, trace.dt_max) == (min(dts), max(dts))
    assert type(trace.dt_min) is float and type(trace.dt_max) is float
    assert 0 < trace.dt_min == trace.records[-1].dt < trace.dt_max
    sparse = run(dataclasses.replace(cfg, record_every=100))
    assert (sparse.dt_min, sparse.dt_max) == (trace.dt_min, trace.dt_max)
    summary = trace.summary_dict()
    assert (summary["dt_min"], summary["dt_max"]) == (min(dts), max(dts))


# --- extinction and rescaling ----------------------------------------------


def test_sphere_laws():
    gauss = SpeedFunction("gauss_power", 2.0)
    assert sphere_extinction_time(1.0, gauss) == pytest.approx(1.0 / 3.0)
    assert sphere_radius_law(1.0, gauss, 0.0) == 1.0
    with pytest.raises(DomainError):
        sphere_radius_law(1.0, gauss, 1.0)
    # k(1, 1) = 1/2 for mean_power: the unit sphere moves at H^2 = 4
    mean = SpeedFunction("mean_power", 2.0)
    assert sphere_extinction_time(1.0, mean) == pytest.approx(1.0 / 12.0)


# one exponent per family; sum_power 1 would be mean_power 1 again
SPHERE_CASES = [("gauss_power", 1.0), ("mean_power", 1.0), ("norm_power", 1.0), ("sum_power", 2.0)]


@pytest.mark.parametrize("family, alpha", SPHERE_CASES)
def test_sphere_laws_match_oracle(family, alpha):
    speed = SpeedFunction(family, alpha)
    t_ext = oracles.sphere_time_oracle(1.5, alpha, family)
    assert sphere_extinction_time(1.5, speed) == pytest.approx(t_ext, rel=1e-14)
    for t in (0.0, 0.3 * t_ext, 0.9 * t_ext):
        assert sphere_radius_law(1.5, speed, t) == pytest.approx(
            oracles.sphere_radius_oracle(1.5, alpha, t, family), rel=1e-14
        )


@pytest.mark.parametrize("family, alpha", SPHERE_CASES)
def test_run_round_sphere_every_family(family, alpha):
    # a round start stays round, so its records follow the family's own law
    # and its rescaled deviation is the stepping error, not 2^(1/4) - 1 or
    # sqrt(2) - 1 as under the gauss law
    cfg = FlowConfig(family, alpha, a=1.0, b=1.0, n_nodes=33, stop_fraction=0.1)
    trace = run(cfg)
    assert trace.status == "extinct_fraction"
    worst = 0.0
    for rec in trace.records:
        rho = oracles.sphere_radius_oracle(1.0, alpha, rec.t, family)
        err = max(abs(rec.min_support - rho), abs(rec.max_support - rho)) / rho
        worst = max(worst, err)
    assert worst <= 1e-3
    t_exact = oracles.sphere_time_oracle(1.0, alpha, family)
    assert trace.summary_dict()["sphere_t_exact"] == pytest.approx(t_exact, rel=1e-14)
    assert trace.t_extinct == pytest.approx(t_exact, rel=1e-3)
    assert trace.deviation <= 1e-5


@pytest.mark.parametrize("n_nodes", [33, 101])
@pytest.mark.parametrize("family, alpha", SPHERE_CASES)
def test_run_round_sphere_to_rounding(family, alpha, n_nodes):
    # the stepper's w = s^(alpha + 1) falls linearly on a sphere, so the
    # records follow the radius law and T follows the family's lifetime up
    # to rounding: at most 1.4e-12 and 5e-15 in runs of this code (the law's
    # 1 - rate t cancels to 1e-3 at the alpha = 2 stop, which costs the law
    # three digits)
    cfg = FlowConfig(family, alpha, a=1.0, b=1.0, n_nodes=n_nodes, stop_fraction=0.1)
    trace = run(cfg)
    worst = 0.0
    for rec in trace.records:
        rho = oracles.sphere_radius_oracle(1.0, alpha, rec.t, family)
        err = max(abs(rec.min_support - rho), abs(rec.max_support - rho)) / rho
        worst = max(worst, err)
    assert worst <= 1e-11
    t_exact = oracles.sphere_time_oracle(1.0, alpha, family)
    assert abs(trace.t_extinct / t_exact - 1.0) <= 1e-13


def step_errors(family, alpha, s, dt):
    """`run`'s error estimate of one step of dt from s, and the step-doubling
    one: the step against two steps of dt / 2, times 4/3 for a second-order
    method.  Both are fractions of max s."""
    g = _grid(s.size)
    r1, r2, _ = flowmod._radii(s, g)
    rate, cap = flowmod._rate_and_cap(family, alpha, r1, r2)
    out = flowmod._attempt(family, alpha, s, rate, cap, dt, g)[1]
    rate, _ = flowmod._rate_and_cap(family, alpha, out[1], out[2])
    speed = SpeedFunction(family, alpha)
    halves = step(step(SupportProfile(s), speed, dt / 2), speed, dt / 2).s
    doubling = np.max(np.abs(out[0] - halves)) * (4.0 / 3.0) / np.max(s)
    return flowmod._error(alpha, dt, out, rate), doubling


@pytest.mark.parametrize("family, alpha", SPHERE_CASES)
def test_error_estimate_vanishes_on_a_sphere(family, alpha):
    # w falls linearly on a sphere, so the estimate is rounding: the first
    # step is adaptive_dt's, and from the third on each is the cap, 0.05 of
    # the remaining lifetime
    cfg = FlowConfig(family, alpha, n_nodes=51, stop_fraction=0.1, record_every=1)
    trace = run(cfg)
    p = cfg.initial_profile()
    lifetime = oracles.sphere_time_oracle(1.0, alpha, family)
    assert trace.rejected == 0
    assert trace.records[1].dt == adaptive_dt(p, cfg.speed())
    for prev, rec in zip(trace.records[2:-2], trace.records[3:-1]):
        assert rec.dt == pytest.approx(0.05 * (lifetime - prev.t), rel=1e-9)
    for dt in (trace.records[1].dt, 0.05 * lifetime):
        est, doubling = step_errors(family, alpha, p.s, dt)
        assert est <= 1e-15 and doubling <= 1e-15


def test_error_estimate_tracks_step_doubling():
    # gauss alpha 2 from the 2:1 spheroid, N = 51, at every tenth step of
    # the run: every step passes the error test, and the estimate reads 1.15
    # to 2.16 times the step-doubling error, from 7e-9 down to 2e-12
    cfg = FlowConfig("gauss_power", 2.0, a=2.0, b=1.0, n_nodes=51, record_every=1)
    trace = run(cfg)
    speed = cfg.speed()
    p = cfg.initial_profile()
    ratios = []
    for n, rec in enumerate(trace.records[1:-1]):
        if n % 10 == 0:
            est, doubling = step_errors("gauss_power", 2.0, p.s, rec.dt)
            assert est <= flowmod._TOL
            ratios.append(est / doubling)
        p = step(p, speed, rec.dt)
    assert 1 / 3 <= min(ratios) and max(ratios) <= 3


def test_run_alpha_10_fits_extinction():
    # at a fixed 0.008 of the sphere lifetime this flow took 5,060 steps,
    # down to a dt of 2.7e-18, below the float spacing of t near 0.407, and
    # np.polyfit warned on the fit window's repeated t
    trace = run(FlowConfig("gauss_power", 10.0, a=2.0, b=1.0, n_nodes=33))
    assert trace.status == "extinct_fraction" and trace.steps < 3000
    assert not trace.extinction_low_confidence
    assert 0 < trace.deviation < 0.1


def test_run_starts_at_the_profile_time():
    # a unit sphere at t = 0.3: the clock, T and sphere_t_exact all run on
    # the profile's time, and iterated `step` matches `run` on s and t
    speed = SpeedFunction("gauss_power", 1.0)
    start = SupportProfile(sphere_support(1.0, 33).s, time=0.3)
    cfg = FlowConfig("gauss_power", 1.0, n_nodes=33, stop_fraction=0.2, record_every=1)
    trace = run(dataclasses.replace(cfg, max_steps=20), start)
    assert trace.records[0].t == 0.3 and trace.steps == 20
    p = start
    for rec in trace.records[1:]:
        p = step(p, speed, rec.dt)
        assert p.time == rec.t
    assert np.array_equal(p.s, trace.profile.s)
    assert p.time == trace.t_final == trace.profile.time
    lifetime = sphere_extinction_time(1.0, speed)
    full = run(cfg, start)
    assert full.summary_dict()["sphere_t_exact"] == 0.3 + lifetime
    assert full.t_extinct == pytest.approx(0.3 + lifetime, rel=1e-13)
    assert full.deviation <= 1e-12


def test_extinction_fit_on_a_negative_clock():
    # the fit scales t by the magnitude of its last value, so a clock that
    # ends below zero neither flips the slope nor loses the fit
    cfg = FlowConfig("gauss_power", 1.0, a=2.0, b=1.0, n_nodes=51, stop_fraction=0.1)
    s = ellipsoid_support(2.0, 1.0, 51).s
    ref = run(cfg, SupportProfile(s, 0.0))
    assert not ref.extinction_low_confidence
    for t0 in (-10.0, 5.0):
        trace = run(cfg, SupportProfile(s, t0))
        assert trace.t_final < 0 if t0 < 0 else trace.t_final > 0
        assert not trace.extinction_low_confidence
        assert trace.t_extinct - t0 == pytest.approx(ref.t_extinct, rel=1e-9)
        assert trace.deviation == pytest.approx(ref.deviation, rel=1e-9)


def test_sphere_t_exact_follows_the_given_profile():
    # the config's semi-axes describe the default start, not a given profile
    cfg = FlowConfig("gauss_power", 1.0, n_nodes=33, stop_fraction=0.2)
    summary = run(cfg, sphere_support(0.5, 33)).summary_dict()
    assert summary["sphere_t_exact"] == 0.125
    assert summary["t_extinct"] == pytest.approx(0.125, rel=1e-5)
    spheroid = run(cfg, ellipsoid_support(2.0, 1.0, 33))
    assert "sphere_t_exact" not in spheroid.summary_dict()


@pytest.mark.parametrize("family, alpha", SPHERE_CASES)
def test_ralston_two_stage_step_beats_the_recurrence(monkeypatch, family, alpha):
    # one N = 33 sphere step.  The flow steps w = rho^(alpha + 1), which
    # falls linearly, so either two-stage method is exact there up to
    # rounding; on the radius itself, rho' = -c rho^-alpha with
    # c = k(1, 1)^-alpha, Ralston's inner stage at c = 2/3 errs at most 0.6
    # times as much as the recurrence's at 0.24
    speed = SpeedFunction(family, alpha)
    p = sphere_support(1.0, n_nodes=33)
    dt = adaptive_dt(p, speed)
    exact = oracles.sphere_radius_oracle(1.0, alpha, dt, family)
    c = -oracles.speed_value(family, alpha, 1.0, 1.0)

    def rate(rho):
        return -c * rho**-alpha

    ralston = flowmod._rkc_coefficients(2)
    errs = [
        abs(stage_recurrence(coefficients, rate, 1.0, dt) - exact)
        for coefficients in (ralston, oracles.RKC_TWO_STAGE)
    ]
    assert errs[0] <= 0.6 * errs[1]
    for coefficients in (ralston, oracles.RKC_TWO_STAGE):
        monkeypatch.setattr(flowmod, "_rkc_coefficients", lambda n: coefficients)
        assert np.max(np.abs(step(p, speed, dt).s - exact)) <= 4e-16


def test_extinction_estimate_low_confidence_flag():
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg)
    t_extinct, low_confidence = extinction_estimate(trace)
    assert not low_confidence
    assert t_extinct == pytest.approx(1.0 / 3.0, abs=1e-3)
    # run writes the same fit, and the centre of its last record, once
    assert (trace.t_extinct, trace.extinction_low_confidence) == (
        t_extinct,
        low_confidence,
    )
    assert trace.extinction_center == trace.records[-1].center_z


def test_rescale_deviation_frozen():
    speed = SpeedFunction("gauss_power", 2.0)
    t_ext = sphere_extinction_time(1.0, speed)
    p0 = sphere_support(1.0, 101)
    assert rescale_deviation(p0, t_ext, 0.0, speed) <= 1e-12
    # exact sphere at mid-flow
    t = 0.2
    rho = sphere_radius_law(1.0, speed, t)
    pt = sphere_support(rho, 101)
    assert rescale_deviation(pt, t_ext, t, speed) <= 1e-6
    with pytest.raises(DomainError):
        rescale_deviation(p0, t_ext, t_ext, speed)


def test_rescale_deviation_recentering():
    q = 0.25
    prof = SupportProfile(0.8 + q * np.cos(_grid(101).theta))
    speed = SpeedFunction("gauss_power", 1.0)
    t_ext = sphere_extinction_time(0.8, speed)
    centered = rescale_deviation(prof, t_ext, 0.0, speed, q=q)
    off = rescale_deviation(prof, t_ext, 0.0, speed, q=0.0)
    assert centered <= 1e-12
    assert off > 0.1


def test_pinching_drift_definition():
    assert pinching_drift([3.0, 2.0, 2.5, 1.0]) == pytest.approx(0.5)
    assert pinching_drift([5.0, 4.0, 3.0]) == 0.0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig("gauss_power", 2.0, stop_fraction=0.5)
    with pytest.raises(TypeError):  # the step floor is a constant, not a field
        FlowConfig("gauss_power", 2.0, safety=0.9)
    with pytest.raises(ValueError):
        FlowConfig("gauss_power", 2.0, n_nodes=40)
    with pytest.raises(ValueError):
        FlowConfig("gauss_power", 2.0, a=-1.0)
    with pytest.raises(ValueError):
        FlowConfig("nope", 2.0)


def test_infinite_inputs_rejected():
    # inf > 0 holds, so each check must also ask for a finite value
    inf = float("inf")
    for make in (
        lambda: FlowConfig("gauss_power", 2.0, a=inf),
        lambda: FlowConfig("gauss_power", 2.0, b=inf),
        lambda: FlowConfig("gauss_power", inf),
        lambda: SpeedFunction("mean_power", inf),
        lambda: ellipsoid_support(inf, 1.0),
        lambda: ellipsoid_support(1.0, inf),
        lambda: sphere_support(inf),
        lambda: SupportProfile(np.full(33, inf)),
        lambda: SupportProfile(np.r_[np.ones(5), inf, np.ones(27)]),
        lambda: SupportProfile(np.r_[np.ones(5), np.nan, np.ones(27)]),
        lambda: SupportProfile(np.ones(33), np.nan),
        lambda: SupportProfile(np.ones(33), inf),
        lambda: SupportProfile(np.ones(33), -inf),
    ):
        with pytest.raises(DomainError):
            make()


# (alpha, a, b, overflows) of gauss_power flows whose speed leaves the float
# range: k^-(1 + alpha) overflows or underflows at the first step, or (last)
# the spectral bound on the cap overflows late in the flow.  `overflows`
# marks the cases whose kernels overflow before the DomainError.
OUT_OF_RANGE = [
    (1.0, 1e-160, 2e-160, True),
    (10.0, 2e40, 1e40, False),
    (10.0, 2e-40, 1e-40, True),
    (10.0, 1e-27, 5e-28, False),
]


@pytest.mark.parametrize("family", oracles.FAMILIES)
@pytest.mark.parametrize("alpha,a,b,overflows", OUT_OF_RANGE)
def test_run_hidden_overflows_end_the_step(monkeypatch, family, alpha, a, b, overflows):
    # each kernel call run makes is taken again with overflow and 0/0
    # raised; where that raises, the call under run's guard must raise
    # DomainError (the cap) or reject the step (a stage)
    real_cap, real_rkc = flowmod._rate_and_cap, flowmod._rkc
    hidden = []

    def raised(real, args):
        try:
            with np.errstate(over="raise", invalid="raise"):
                real(*args)
        except FloatingPointError:
            hidden.append(real.__name__)
            return True
        return False

    def cap(*args):
        if raised(real_cap, args):
            with pytest.raises(DomainError) as err:
                real_cap(*args)
            raise err.value
        return real_cap(*args)

    def rkc(*args):
        out = real_rkc(*args)
        assert out is None or not raised(real_rkc, args)
        return out

    monkeypatch.setattr(flowmod, "_rate_and_cap", cap)
    monkeypatch.setattr(flowmod, "_rkc", rkc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="speed out of the float range"):
            run(FlowConfig(family, alpha, a=a, b=b, n_nodes=33))
    assert bool(hidden) == overflows


def test_stage_overflow_rejects_the_step():
    # a first stage that sharpens the unit sphere's poles to a radius of
    # 2^-36 puts u / k near 2^36 there, and the next stage rate (u / k)^30
    # overflows; under the flow's guard that stage turns NaN radii, and
    # `_rkc` rejects the step
    g = _grid(33)
    s, u = np.ones(33), np.ones(33)
    u[[1, -2]] = 1.0 - (1.0 - 2.0**-36) * g.d * g.d / 2.0
    mu_t1, _ = flowmod._rkc_coefficients(3)
    # in w = s^31 the first stage of a step of 1 adds mu_t1 * 31 * rate0
    rate0 = (u**31 - 1.0) / (mu_t1 * 31.0)
    args = ("gauss_power", 30.0, s, rate0, 1.0, 3, g)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        flowmod._rkc(*args)
    with np.errstate(**flowmod._QUIET):
        assert flowmod._rkc(*args) is None


def test_support_ratio_out_of_the_float_range_raises():
    # a unit sphere whose centre sits 2^-52 from the origin: at alpha = 19,
    # w = (s / max s)^20 falls to about 2^-1060 at the south pole, below the
    # normal floats, so the step cannot be taken in w and the flow says so
    # rather than ending in a convexity loss
    prof = SupportProfile(1.0 + (1.0 - 2.0**-52) * np.cos(_grid(33).theta))
    speed = SpeedFunction("gauss_power", 19.0)
    dt = adaptive_dt(prof, speed)
    for call in (
        lambda: run(FlowConfig("gauss_power", 19.0, n_nodes=33), prof),
        lambda: step(prof, speed, dt),
    ):
        with pytest.raises(DomainError, match="speed out of the float range"):
            call()


def test_step_and_adaptive_dt_out_of_range_do_not_warn():
    p = ellipsoid_support(2e-40, 1e-40, n_nodes=33)
    speed = SpeedFunction("gauss_power", 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: adaptive_dt(p, speed), lambda: step(p, speed, 1e-300)):
            with pytest.raises(DomainError, match="speed out of the float range"):
                call()
