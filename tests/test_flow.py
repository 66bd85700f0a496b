"""Axisymmetric support-function flow: grids, radii, stepping, diagnostics."""

import dataclasses
import hashlib
import math

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
    sphere_radius_law,
    sphere_support,
    step,
)
import pinchflow.flow as flowmod
from pinchflow.flow import TRACE_COLUMNS, SupportProfile, _make_grid, pinching_drift

import oracles


def hex_row(values):
    return tuple(float.hex(float(v)) for v in values)


def bumpy_profile(n=101, amp=0.4):
    """Positive but non-convex support profile (fails r1 > 0 at the poles)."""
    theta = _make_grid(n)
    s = 1.0 + amp * np.cos(4 * theta)
    return SupportProfile(theta=theta, s=s, time=0.0)


# --- grids and profiles ----------------------------------------------------


def test_grid_validation():
    for bad in (32, 31, 100):
        with pytest.raises(ResolutionError):
            ellipsoid_support(2.0, 1.0, n_nodes=bad)


def test_profile_validation():
    theta = _make_grid(41)
    with pytest.raises(ValueError):
        SupportProfile(theta=theta, s=np.zeros(41), time=0.0)
    with pytest.raises(ValueError):
        SupportProfile(theta=theta[:-1], s=np.ones(40), time=0.0)


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
    rf = radii_from_support(p)
    assert np.max(np.abs(rf.r1 - 3.0)) <= 1e-10
    assert np.max(np.abs(rf.r2 - 3.0)) <= 1e-10


def test_radii_ellipsoid_equator_and_pole():
    p = ellipsoid_support(2.0, 1.0, n_nodes=201)
    rf = radii_from_support(p)
    h2 = p.dtheta**2
    eq = 100
    assert abs(rf.r1[eq] - oracles.EQUATOR_RADII_21[0]) <= 40 * h2
    assert abs(rf.r2[eq] - oracles.EQUATOR_RADII_21[1]) <= 40 * h2
    for pole in (0, 200):
        assert rf.r1[pole] == rf.r2[pole]
        assert abs(rf.r1[pole] - oracles.POLE_RADII_21) <= 40 * h2


def test_radii_second_order_convergence():
    errs = []
    for n in (201, 401):
        p = ellipsoid_support(2.0, 1.0, n_nodes=n)
        rf = radii_from_support(p)
        want1, want2 = zip(
            *(oracles.ellipsoid_radii_closed(2.0, 1.0, th) for th in p.theta)
        )
        errs.append(
            max(
                np.max(np.abs(rf.r1 - np.array(want1))),
                np.max(np.abs(rf.r2 - np.array(want2))),
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
        theta = _make_grid(n)
        d, cot = theta[1] - theta[0], flowmod._cot_table(theta)
        for s in (
            ellipsoid_support(2.0, 1.0, n).s,
            sphere_support(0.7, n).s,
            rng.uniform(0.5, 2.0, n),
        ):
            got = flowmod._radii(s, d, cot)
            want = oracles.padded_radii(s, d, cot)
            for g, w in zip(got, want):
                assert hex_row(g) == hex_row(w)


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
    # unit sphere, gauss, alpha=2: the lifetime 1/3, so the step is 0.004 of it
    speed = SpeedFunction("gauss_power", 2.0)
    dt = adaptive_dt(sphere_support(1.0, n_nodes=201), speed)
    assert dt == pytest.approx(0.004 / 3.0, rel=1e-12)
    # at N = 33 and alpha = 1 the explicit parabolic step (fdot1 + fdot2 = 1),
    # 2.4e-3, is larger than 0.004 of the lifetime 1/2 and is taken instead
    speed = SpeedFunction("gauss_power", 1.0)
    dt = adaptive_dt(sphere_support(1.0, n_nodes=33), speed)
    assert dt == pytest.approx(oracles.cfl_dt(math.pi / 32, 0.25, 1.0), rel=1e-12)


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
    # both schemes from the 2:1 spheroid to 0.9 of the default stop time
    cfg = FlowConfig(family, alpha, a=2.0, b=1.0, n_nodes=51)
    t_end = 0.9 * run(cfg).t_final
    speed = cfg.speed()
    p = cfg.initial_profile()
    while p.time < t_end:
        p = step(p, speed, min(adaptive_dt(p, speed), t_end - p.time))
    s_ref, t_ref = oracles.reference_flow(cfg.initial_profile(), speed, t_end)
    assert p.time == t_end and t_ref == t_end
    assert np.max(np.abs(p.s - s_ref)) / np.max(s_ref) <= 1e-5


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
    for _ in range(20):
        p = step(p, speed, adaptive_dt(p, speed))
    assert np.array_equal(p.s, trace.profile.s)
    assert p.time == trace.t_final


# (steps, float.hex(t_extinct), float.hex(profile.s.sum())) of a short flow
# per family, frozen from the RKC stepper with the mirror-exact stencil, the
# secant-landed stop and the a0 fit: any change to the rounding of the hot
# loop moves one of them
HOT_LOOP_PINS = {
    "gauss_power": (1426, "0x1.738860b74ef2fp-1", "0x1.aa833a6de6420p+2"),
    "mean_power": (1419, "0x1.e5ba68ca7506dp-3", "0x1.ad0370dfa2852p+2"),
    "norm_power": (1400, "0x1.72f9e3608f64ap-2", "0x1.b435d340c9670p+2"),
    "sum_power": (1412, "0x1.47b48846a6d75p-2", "0x1.af994dde9bc4fp+2"),
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
    "gauss_power": "add3d0fed7ca1ef69aca651af06e95db7eac07ddd89d7fafff5595d9ad3307d1",
    "mean_power": "132af3589f63c97b0e9b61f170a117d6944a6e28d747dc26f6efb68c9092e85e",
    "norm_power": "5c92231abddc6bd342c5d4352e6c09456e8878c75cd384a855dd79b5d119072d",
    "sum_power": "569928421cf7d9cba55ed574cd0c382ced2f5b48eceb68c347bae5070d62d6d0",
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
    rf = radii_from_support(p)
    eq = 200
    got = (rf.r1[eq] - rf.r2[eq]) ** 2 / (rf.r1[eq] * rf.r2[eq]) ** 2
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
    theta = _make_grid(101)
    prof = SupportProfile(theta=theta, s=1.0 + 0.3 * np.cos(theta), time=0.0)
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg, profile=prof)
    assert trace.t_extinct is not None
    assert trace.extinction_center == pytest.approx(0.3, abs=2e-3)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_run_translated_sphere_extinction(alpha):
    # a unit sphere 0.2 up the axis: a0 is its radius wherever its centre
    # sits, so T and the recentred deviation are those of the round sphere
    theta = _make_grid(101)
    prof = SupportProfile(theta=theta, s=1.0 + 0.2 * np.cos(theta), time=0.0)
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
    assert full.rejected == 0 and full.stages >= 2 * full.steps
    real = flowmod._rkc
    accepted = []

    def rkc_until_step_100(*args):
        if len(accepted) == 100:
            return None
        out = real(*args)
        if out is not None:
            accepted.append(out)
        return out

    monkeypatch.setattr(flowmod, "_rkc", rkc_until_step_100)
    with pytest.raises(ConvexityLossError) as exc:
        run(cfg)
    assert exc.value.node == -1  # the dt-halving abort
    trace = exc.value.trace
    assert trace.status == "convexity_loss" and trace.steps == 100
    assert trace.rejected == 8 and trace.stages > full.stages
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
        p, dt = cfg.initial_profile(), 0.0
        for n, rec in enumerate(trace.records):
            if n:
                dt = adaptive_dt(p, speed)
                p = step(p, speed, dt)
            want = diagnostics(p, speed)
            want.update(step=n, t=p.time, dt=dt)
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


def test_extinction_estimate_low_confidence_flag():
    cfg = FlowConfig("gauss_power", 2.0, n_nodes=101, stop_fraction=0.1)
    trace = run(cfg)
    est = extinction_estimate(trace)
    assert not est.low_confidence
    assert est.t_extinct == pytest.approx(1.0 / 3.0, abs=1e-3)


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
    theta = _make_grid(101)
    q = 0.25
    prof = SupportProfile(theta=theta, s=0.8 + q * np.cos(theta), time=0.0)
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
    ):
        with pytest.raises(DomainError):
            make()
