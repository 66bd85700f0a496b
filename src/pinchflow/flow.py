"""Axisymmetric support-function flow for convex surfaces of revolution.

State is the support function s(theta) on a uniform grid over [0, pi].  The
principal radii split into a meridian radius s'' + s and a rotational radius
cot(theta) s' + s; both collapse to s'' + s at the axis, which the even
ghost-node reflection supplies without one-sided stencils.  That stencil
lives in one function, `_radii`; `run` calls it once at the start and once
per stage of every step (inside `_rkc`), and its records reuse the arrays
of each step's last stage.

Time stepping is the damped second-order Runge-Kutta-Chebyshev method
(Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998): explicit
stages only, with a stability interval that grows as the square of the
stage count, so the step follows accuracy rather than the parabolic limit.
A step of two stages, which coarse grids take, is Ralston's method (Math.
Comp. 16, 1962), with the same stability polynomial and about half the
error of the recurrence's two-stage step (`_rkc_coefficients`).
Three kernels make up the stepper.  `_rate_and_cap` gives the rate
-k^(-alpha) and the cap max(df1 + df2) at the start of a step;
`_step_dt` turns them into the step, a fixed fraction `_EPS` (0.005) of
the remaining shrinking-sphere lifetime but never less than the explicit
parabolic step `_FLOOR` * dtheta^2 / cap; `_rkc` takes the step in as many
stages as `_stage_count` asks for, or rejects it (the caller halves dt).
They ask `speeds._k_derivs` for no more than they read: `_rate_and_cap`
for order 1 (k, k1, k2), `_rkc`'s stage rates and `_diagnose`'s
min |speed| for order 0 (k alone), so no second derivative is formed per
step.  `run` loops over them on bare arrays; `step` and `adaptive_dt`
wrap the same kernels for one SupportProfile, so iterating
`step(p, speed, adaptive_dt(p, speed))` reproduces `run` bit for bit
while no step is rejected, up to `run`'s last step: that one is shortened
by a secant step in dt so that min s lands on the stop target, and no
reported value depends on `_EPS` through where the run stops.  On these
short arrays a step costs numpy's
per-call dispatch more than arithmetic, so every whole-array min or max on
the stepper path is one argmin or argmax and an index (`_min`, `_max`:
argmin and argmax stop at the first NaN, so a NaN propagates as through
`np.minimum.reduce`), and `_radii` pads s with one gather through an index
cached per node count (`_pad_index`).

`_diagnose` is the one diagnostics kernel.  It takes the `_radii` arrays of
one profile (1-d) or of a block of profiles (2-d, one per row) and reduces
along axis=-1 only, so each row gets the bits of its profile on its own.
`diagnostics` calls it for one profile and adds the roundness ratio.  `run`
holds up to `_RECORD_BLOCK` pending records as references to the stepper's
arrays, which are fresh every step, and builds them with one kernel call on
the stacked block when the block is full and once after its loop.  A record
is a `FlowRecord` NamedTuple whose fields are the trace CSV's columns, so a
record is its own CSV row from the kernel to the file.

The extinction time T comes from (t, a0) at every step, not from the
records: a0 is the l = 0 Legendre amplitude of s (`_a0_weights`), the
radius of a sphere wherever it sits on the axis, and it carries the l = 2
mode of a rounding body only at second order.  `extinction_estimate` fits
a0^(alpha+1), linear in t on a shrinking sphere, over the last tenth of
the steps, so T and the rescaled deviation do not depend on `record_every`.

Grids are kept mirror-symmetric bit for bit: the cotangent table and the
built-in initial profiles are constructed on the upper half and reflected,
`_radii` adds the two neighbours of a node before anything else (addition
commutes exactly, so mirrored nodes round alike), and every other update is
elementwise or a scalar reduction.  So an equator-symmetric initial profile
stays exactly symmetric under the flow (the acceptance checks rely on this).
"""

import functools
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvexityLossError,
    DomainError,
    ResolutionError,
    StepRejectedError,
)
from .speeds import SpeedFunction, _k_derivs

# Records wait in `run` until this many are pending; one `_diagnose` call
# then builds the whole block.
_RECORD_BLOCK = 64

# A step advances _EPS of the smallest remaining shrinking-sphere lifetime
# over the nodes, but never less than the explicit parabolic step
# _FLOOR * dtheta^2 / max(df1 + df2), so a coarse grid takes no more steps
# than the explicit scheme (`_step_dt`).  The stepping error at the stop
# grows as _EPS^2.  At 0.005 the binding checks read, against their bounds:
# a round sphere at N = 33 under sum_power, alpha 2 (two-stage steps), 6.2e-4
# of its radius law against 1e-3; criterion 6's sphere (many stages) 6.4e-4
# against 1e-3; the explicit reference 5.5e-6 against 1e-5.  0.006 puts the
# first two at 8.9e-4 and 9.1e-4.
_EPS = 0.005
_FLOOR = 0.25

# Damping of the RKC stability polynomial: inside the stability interval
# |R| stays below about 1 - damping / 3 instead of touching 1 at every
# Chebyshev extremum, which leaves room for eigenvalues just off the axis.
_DAMPING = 2.0 / 13.0

# The most stages a step may take.  A longer step is rejected like one that
# loses convexity (the caller halves dt), so no dt buys unbounded work.
_MAX_STAGES = 1000

# Where the speed leaves the float range the stepper's kernels overflow (or
# form 0/0, as norm_power's k1 does once q^3 underflows).  Each such value
# ends the step the same way: a non-finite cap raises DomainError in
# `_rate_and_cap`, and a non-finite stage gives a NaN radius, which fails
# `_convex`, or a -inf support, which fails the positivity test, so `_rkc`
# rejects the step.  `run`, `step` and `adaptive_dt` silence these warnings
# once per call: an errstate per kernel call costs more than the power it
# guards.  `run` builds its records under the caller's error state, so a
# diagnostic that overflows still warns.
_QUIET = dict(over="ignore", invalid="ignore")

# Capacity of `run`'s (t, a0) sample arrays before their first doubling.
_SAMPLES = 256

# A recorded column counts as monotone in `FlowTrace.summary_dict` when its
# `pinching_drift` is at most this.
MONOTONE_TOL = 1e-3


def _positive(x):
    """x > 0 and finite (inf > 0 holds, and would pass a bare comparison)."""
    return x > 0 and math.isfinite(x)


def _make_grid(n_nodes):
    if n_nodes < 33 or n_nodes % 2 == 0:
        raise ResolutionError(
            f"need an odd node count >= 33 (equator on-grid), got {n_nodes}"
        )
    return np.linspace(0.0, math.pi, n_nodes)


def _cot_table(theta):
    """cot(theta) with exact odd mirror symmetry about the equator; the pole
    entries are never used (the radii formulas switch branch there)."""
    n = theta.size
    h = n // 2
    c = np.zeros(n)
    c[1:h] = np.cos(theta[1:h]) / np.sin(theta[1:h])
    c[h + 1 : n - 1] = -c[1:h][::-1]
    return c


@dataclass
class SupportProfile:
    theta: np.ndarray
    s: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.theta.shape != self.s.shape or self.theta.ndim != 1:
            raise DomainError("theta and s must be 1-d arrays of equal length")
        if not np.array_equal(self.theta, _make_grid(self.theta.size)):
            raise DomainError("theta must be the uniform [0, pi] grid")
        if not np.all(self.s > 0):
            raise DomainError("support function must be positive")

    @property
    def n_nodes(self):
        return self.theta.size

    @property
    def dtheta(self):
        return self.theta[1] - self.theta[0]


@dataclass(frozen=True)
class RadiiField:
    r1: np.ndarray  # meridian principal radius s'' + s
    r2: np.ndarray  # rotational principal radius cot * s' + s


def sphere_support(radius, n_nodes=201):
    if not _positive(radius):
        raise DomainError(f"radius must be finite and positive, got {radius}")
    theta = _make_grid(n_nodes)
    return SupportProfile(theta, np.full(n_nodes, float(radius)))


def ellipsoid_support(a, b, n_nodes=201):
    """Support function of the spheroid with semi-axis a along the symmetry
    axis and b across it: s^2 = a^2 cos^2 + b^2 sin^2.  Built on the upper
    half and mirrored so the profile is exactly equator-symmetric."""
    if not (_positive(a) and _positive(b)):
        raise DomainError(f"semi-axes must be finite and positive, got ({a}, {b})")
    theta = _make_grid(n_nodes)
    h = n_nodes // 2
    cos2 = np.cos(theta[: h + 1]) ** 2
    s_half = np.sqrt(b * b + (a * a - b * b) * cos2)
    s = np.concatenate([s_half, s_half[:-1][::-1]])
    return SupportProfile(theta, s)


def _min(x):
    """np.minimum.reduce(x) of a 1-d array by one argmin: the same value,
    and NaN when x holds one (argmin stops at the first NaN)."""
    return x[x.argmin()]


def _max(x):
    """np.maximum.reduce(x) of a 1-d array by one argmax, NaN kept alike."""
    return x[x.argmax()]


@functools.lru_cache(maxsize=None)
def _pad_index(n):
    """Gather index of s padded by its even reflection across each pole:
    s[1], s[0], ..., s[n - 1], s[n - 2]."""
    index = np.concatenate(([1], np.arange(n), [n - 2]))
    index.flags.writeable = False
    return index


def _radii(s, d, cot):
    """The finite-difference stencil: even reflection of s across each pole,
    then central differences.  Returns the meridian radius s'' + s, the
    rotational radius cot s' + s (both s'' + s at the poles) and the
    undivided central difference s[i+1] - s[i-1] = 2 d s'."""
    sp = s[_pad_index(s.size)]
    up, down = sp[2:], sp[:-2]
    diff = up - down
    # the neighbours' sum first: it commutes bit for bit, so the stencil is
    # the same at mirrored nodes; s + s is 2.0 * s exactly
    r1 = ((up + down) - (s + s)) / (d * d) + s
    r2 = cot * diff / (2.0 * d) + s
    r2[0] = r1[0]
    r2[-1] = r1[-1]
    return r1, r2, diff


def _convex(r1, r2):
    return _min(r1) > 0 and _min(r2) > 0


def _convex_radii(theta, s, d, cot):
    """`_radii`, raising ConvexityLossError that names the node of the smallest
    radius when either radius is nonpositive (the flow is undefined there)."""
    r1, r2, diff = _radii(s, d, cot)
    if not _convex(r1, r2):
        node = int(np.argmin(np.minimum(r1, r2)))
        raise ConvexityLossError(
            f"convexity lost at node {node} (theta={theta[node]:.6f}): "
            f"r1={r1[node]:.6e}, r2={r2[node]:.6e}",
            node=node,
            r1=float(r1[node]),
            r2=float(r2[node]),
        )
    return r1, r2, diff


def _rate_and_cap(family, alpha, r1, r2):
    """ds/dt = -k^(-alpha) and the cap max(df1 + df2), where
    df_i = alpha k^-(1+alpha) dk_i is the linearization's diffusion trace;
    the cap sizes both the step's floor and its stage count.  Needs k and
    its first derivatives only: `_k_derivs` at order 1.  Raises DomainError
    when the cap is not finite and positive, as when k^-(1+alpha) leaves
    the float range: no step or stage count follows from such a cap."""
    k, k1, k2 = _k_derivs(family, alpha, r1, r2, order=1)
    a = k ** (-(1.0 + alpha))
    cap = float(_max(alpha * a * (k1 + k2)))
    if not _positive(cap):
        raise DomainError(
            f"speed out of the float range: diffusion cap {cap} is not finite "
            "and positive"
        )
    return -(a * k), cap


def _step_dt(s, rate0, cap, d, alpha):
    """The step from s, whose rate is rate0: _EPS / (alpha + 1) times the
    smallest s / |ds/dt| over the nodes, which on a sphere is _EPS times its
    remaining lifetime, but never less than the explicit parabolic step
    _FLOOR * d^2 / cap."""
    lifetime = -float(_max(s / rate0)) / (alpha + 1.0)
    return max(_EPS * lifetime, _FLOOR * (d * d) / cap)


def _stage_count(dt, cap, d):
    """RKC stages for a step of dt: the damped stability interval, about
    0.653 n^2, must hold dt * rho, where rho = (4 / d^2 + 1) cap bounds the
    spectral radius of the tridiagonal Jacobian (Gershgorin's rows).  A step
    that needs more than _MAX_STAGES gets _MAX_STAGES + 1.  Raises
    DomainError when rho leaves the float range although the cap does not:
    every stage count would then exceed _MAX_STAGES."""
    gershgorin = 4.0 / (d * d) + 1.0
    if cap > sys.float_info.max / gershgorin:
        raise DomainError(
            f"speed out of the float range: the spectral bound {gershgorin} "
            f"* {cap} on the diffusion cap is not finite"
        )
    rho = gershgorin * cap
    return max(2, 1 + int(math.sqrt(min(1.54 * dt * rho + 1.0, _MAX_STAGES**2))))


@functools.lru_cache(maxsize=None)
def _rkc_coefficients(n_stages):
    """mu~_1 and one (mu_j, nu_j, mu~_j, gamma~_j) per stage j = 2..n of the
    damped second-order RKC method, from the Chebyshev recurrences for T_j,
    T_j' and T_j'' at w0 = 1 + damping / n^2, with b_0 = b_1 = b_2.

    Two stages take Ralston's method instead (Math. Comp. 16, 1962): the
    inner stage at c = 2/3, weights 1/4 and 3/4.  Every explicit two-stage
    second-order method has the stability polynomial 1 + z + z^2/2, so the
    step keeps its stability interval [-2, 0]; the recurrence would put the
    inner stage at c = 0.24, where the local error is about twice as large."""
    if n_stages == 2:
        return 2.0 / 3.0, ((1.0, 0.0, 0.75, 0.25 - 2.0 / 3.0),)
    w0 = 1.0 + _DAMPING / (n_stages * n_stages)
    t, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, n_stages + 1):
        t.append(2.0 * w0 * t[j - 1] - t[j - 2])
        t1.append(2.0 * t[j - 1] + 2.0 * w0 * t1[j - 1] - t1[j - 2])
        t2.append(4.0 * t1[j - 1] + 2.0 * w0 * t2[j - 1] - t2[j - 2])
    w1 = t1[n_stages] / t2[n_stages]
    b = [t2[j] / (t1[j] * t1[j]) for j in range(2, n_stages + 1)]
    b = [b[0], b[0]] + b
    stages = []
    for j in range(2, n_stages + 1):
        mu = 2.0 * w0 * b[j] / b[j - 1]
        mu_t = 2.0 * w1 * b[j] / b[j - 1]
        gamma_t = -(1.0 - b[j - 1] * t[j - 1]) * mu_t
        stages.append((mu, -b[j] / b[j - 2], mu_t, gamma_t))
    return b[1] * w1, tuple(stages)


def _rkc(family, alpha, s, rate0, dt, n_stages, d, cot):
    """One RKC step of dt in n_stages stages from s, whose rate is rate0.
    Returns the new (s, r1, r2, diff) as `_radii` gives them, or None when
    a stage loses convexity or the result loses convexity or positivity
    (the caller halves dt), and when n_stages exceeds _MAX_STAGES.  Stage
    rates need k only: `_k_derivs` at order 0."""
    if n_stages > _MAX_STAGES:
        return None
    mu_t1, stages = _rkc_coefficients(n_stages)
    y_prev, y = s, s + (mu_t1 * dt) * rate0
    for mu, nu, mu_t, gamma_t in stages:
        r1, r2, _ = _radii(y, d, cot)
        if not _convex(r1, r2):
            return None
        k = _k_derivs(family, alpha, r1, r2, order=0)
        # the stage rate is -k^(-alpha), so its term is subtracted
        y_prev, y = y, (
            (1.0 - mu - nu) * s
            + mu * y
            + nu * y_prev
            + (gamma_t * dt) * rate0
            - (mu_t * dt) * k ** (-alpha)
        )
    r1, r2, diff = _radii(y, d, cot)
    if not _convex(r1, r2) or _min(y) <= 0:
        return None
    return y, r1, r2, diff


def radii_from_support(profile) -> RadiiField:
    """Principal radii on the grid; raises ConvexityLossError when either
    radius is nonpositive anywhere."""
    th = profile.theta
    r1, r2, _ = _convex_radii(th, profile.s, profile.dtheta, _cot_table(th))
    return RadiiField(r1=r1, r2=r2)


def step(profile, speed, dt) -> SupportProfile:
    """One RKC step of dt, the one `run` takes, in the stage count
    `_stage_count` gives for dt.  dt = 0 returns a copy; negative/non-finite
    dt, or a step that loses positivity or convexity, is rejected (the
    caller halves dt)."""
    if not (math.isfinite(dt) and dt >= 0):
        raise StepRejectedError(f"bad time step {dt}")
    if dt == 0.0:
        return SupportProfile(profile.theta, profile.s.copy(), profile.time)
    t_new = profile.time + dt
    family, alpha = speed.family, float(speed.alpha)
    d, cot = profile.dtheta, _cot_table(profile.theta)
    r1, r2, _ = _radii(profile.s, d, cot)
    out = None
    if _convex(r1, r2):
        with np.errstate(**_QUIET):
            rate0, cap = _rate_and_cap(family, alpha, r1, r2)
            n_stages = _stage_count(dt, cap, d)
            out = _rkc(family, alpha, profile.s, rate0, dt, n_stages, d, cot)
    if out is None:
        raise StepRejectedError(
            f"step to t={t_new} rejected: convexity or positivity lost"
        )
    return SupportProfile(profile.theta, out[0], t_new)


def adaptive_dt(profile, speed):
    """The time step `run` starts from (`_step_dt`): _EPS of the remaining
    shrinking-sphere lifetime, floored at _FLOOR * dtheta^2 / max(df1 + df2)."""
    rf = radii_from_support(profile)
    alpha = float(speed.alpha)
    with np.errstate(**_QUIET):
        rate0, cap = _rate_and_cap(speed.family, alpha, rf.r1, rf.r2)
    return _step_dt(profile.s, rate0, cap, profile.dtheta, alpha)


def _grid_tables(theta):
    """cos, sin and the trapezoid widths of the grid: the fixed inputs of
    `_diagnose`, computed once per run."""
    return np.cos(theta), np.sin(theta), np.diff(theta)


def _a0_weights(tables):
    """Trapezoid weights times sin theta, scaled to sum to 1: the l = 0
    Legendre amplitude of s is a0 = sum(weights * s), the radius of a
    sphere about any centre on the axis (the l = 1 mode, a translation,
    integrates out)."""
    _, sin, w = tables
    trap = np.concatenate(([0.0], w)) + np.concatenate((w, [0.0]))
    weights = trap * sin
    return weights / np.add.reduce(weights)


def _diagnose(tables, d, s, r1, r2, diff, speed):
    """The diagnostics kernel, from `_radii` arrays of convex profiles: 1-d
    arrays for one profile, or 2-d arrays with one profile per row.  Every
    reduction runs along axis=-1, so a row gives the bits of the same
    profile on its own.  The centre is the axial Steiner point (3/2)
    integral of s cos sin, by numpy's trapezoid formula written out; circum-
    and inradius are taken about it.  Records are pinned bit for bit, so
    no expression may change its order of operations (s * cos * sin stays
    a product of three).  Returns each field as `.tolist()` gives it: a
    float for one profile, a list for a block."""
    cos, sin, w = tables
    alpha = float(speed.alpha)
    s_th = diff / (2.0 * d)
    y = s * cos * sin
    q = 1.5 * np.add.reduce(w * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    qc = q[..., None]
    x = s * sin + s_th * cos
    z = s * cos - s_th * sin
    circum = np.maximum.reduce(np.hypot(x, z - qc), axis=-1)
    inrad = np.minimum.reduce(s - qc * cos, axis=-1)
    out = {
        "pinch_sup": np.maximum.reduce((r2 - r1) ** 2 / (r1 * r2) ** alpha, axis=-1),
        "min_radius": np.minimum.reduce(np.minimum(r1, r2), axis=-1),
        "max_radius": np.maximum.reduce(np.maximum(r1, r2), axis=-1),
        "max_ratio": np.maximum(
            np.maximum.reduce(r1 / r2, axis=-1), np.maximum.reduce(r2 / r1, axis=-1)
        ),
        "min_support": np.minimum.reduce(s, axis=-1),
        "max_support": np.maximum.reduce(s, axis=-1),
        "center_z": q,
        "circumradius": circum,
        "inradius": inrad,
        "min_abs_speed": np.minimum.reduce(
            _k_derivs(speed.family, alpha, r1, r2, order=0) ** (-alpha), axis=-1
        ),
    }
    return {name: value.tolist() for name, value in out.items()}


def diagnostics(profile, speed):
    """Per-profile record: pinching sup of (r2 - r1)^2 / (r1 r2)^alpha,
    alpha the speed's exponent, radius extremes, per-node max ratio
    supremum, circumradius/inradius about the axial Steiner point
    (documented estimators, heuristic near strong anisotropy), and
    min |speed|; raises ConvexityLossError where `radii_from_support`
    does.  `run`'s records come from the same kernel, `_diagnose`."""
    th, d = profile.theta, profile.dtheta
    r1, r2, diff = _convex_radii(th, profile.s, d, _cot_table(th))
    out = _diagnose(_grid_tables(th), d, profile.s, r1, r2, diff, speed)
    out["roundness"] = out["circumradius"] / out["inradius"]
    return {"alpha": float(speed.alpha), **out}


class FlowRecord(NamedTuple):
    """One trace row; the fields are the trace CSV's columns, in order."""

    step: int
    t: float
    dt: float
    min_support: float
    max_support: float
    pinch_sup: float
    min_radius: float
    max_radius: float
    max_ratio: float
    circumradius: float
    inradius: float
    min_abs_speed: float
    center_z: float


TRACE_COLUMNS = FlowRecord._fields


@dataclass
class FlowConfig:
    family: str
    alpha: float
    a: float = 1.0  # polar semi-axis of the initial spheroid
    b: float = 1.0  # equatorial semi-axis
    n_nodes: int = 201
    stop_fraction: float = 0.05
    max_steps: int = 2_000_000
    record_every: int = 100

    def __post_init__(self):
        SpeedFunction(self.family, self.alpha)  # validates family/alpha
        _make_grid(self.n_nodes)  # validates the node count
        for name in ("a", "b"):
            value = getattr(self, name)
            if not _positive(value):
                raise DomainError(
                    f"semi-axis {name} must be finite and positive, got {value}"
                )
        if not 0 < self.stop_fraction <= 0.2:
            raise DomainError("stop_fraction must lie in (0, 0.2]")
        if self.record_every < 1 or self.max_steps < 1:
            raise DomainError("record_every and max_steps must be >= 1")

    def speed(self):
        return SpeedFunction(self.family, self.alpha)

    def initial_profile(self):
        return ellipsoid_support(self.a, self.b, self.n_nodes)


@dataclass
class FlowTrace:
    config: FlowConfig
    records: list
    status: str  # extinct_fraction | max_steps | convexity_loss
    steps: int
    stages: int  # RKC stage counts (rate evaluations) of every attempted step
    rejected: int  # attempts rejected: a dt halving, or a kept full last step
    dt_min: float  # smallest and largest dt over the steps taken (the trace's
    dt_max: float  # dt column without step 0), None when no step was taken
    t_final: float
    profile: SupportProfile
    initial_min_support: float
    samples: tuple  # (t, a0) arrays at every step, the extinction fit's input
    # terminal fields, filled once the stop fraction is reached
    t_extinct: float = None
    extinction_center: float = None
    extinction_low_confidence: bool = None
    deviation: float = None

    def summary_dict(self):
        """summary.json: every field but records, profile and samples, three
        columns' pinching drifts and monotone flags (None and False with no
        records), and the exact sphere extinction time when the start is
        round."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("records", "profile", "samples")
        }
        out["config"] = asdict(self.config)
        drifts = {
            col: pinching_drift([getattr(r, col) for r in self.records])
            if self.records
            else None
            for col in ("pinch_sup", "max_radius", "max_ratio")
        }
        out["monotonicity"] = {
            "drift": drifts,
            "monotone": {
                c: (d is not None and d <= MONOTONE_TOL) for c, d in drifts.items()
            },
            "tolerance": MONOTONE_TOL,
        }
        cfg = self.config
        if cfg.a == cfg.b:
            out["sphere_t_exact"] = sphere_extinction_time(cfg.a, cfg.speed())
        return out


def _doubled(x):
    """x followed by as many unset slots."""
    return np.concatenate((x, np.empty_like(x)))


def _flush(records, pending, tables, d, speed):
    """Append the FlowRecords of the pending (n, t, dt, s, r1, r2, diff)
    entries, stacked into one block for one `_diagnose` call, and empty
    `pending`."""
    if not pending:
        return
    n, t, dt, *arrays = zip(*pending)
    cols = _diagnose(tables, d, *map(np.stack, arrays), speed)
    cols.update(step=n, t=t, dt=dt)
    records.extend(map(FlowRecord._make, zip(*(cols[c] for c in TRACE_COLUMNS))))
    pending.clear()


def run(config: FlowConfig, profile=None) -> FlowTrace:
    """Integrate until the minimum support reaches stop_fraction of its
    initial value (or max_steps).  Each step starts from the `adaptive_dt`
    step and takes the `step` RKC update through the same kernels, halving
    dt (and so recounting stages) on rejection.  The step that crosses the
    target is taken again, shortened by one secant step in dt so that the
    minimum support lands on the target; if the short step is rejected, the
    full one stands.  The loop carries bare arrays, since a SupportProfile
    per step would re-validate the grid; the arrays `_rkc` returns feed both
    the next step and the records, which are rows of the trace CSV.  Every
    step also keeps (t, a0), a0 the l = 0 amplitude of s (`_a0_weights`),
    for the extinction fit, so the fit does not depend on `record_every`.
    A given `profile` must have `config.n_nodes` nodes.

    There is one exit.  A nonconvex initial profile, or a rejection that
    survives eight halvings, ends the loop with status "convexity_loss";
    either way the last records are built and the one FlowTrace is made,
    then a convexity loss is raised with that trace attached as
    `error.trace`, and any other status goes on to the extinction fit.
    """
    alpha = float(config.alpha)
    fam = config.family
    speed = config.speed()
    if profile is None:
        profile = config.initial_profile()
    elif profile.n_nodes != config.n_nodes:
        raise DomainError(
            f"profile has {profile.n_nodes} nodes, config.n_nodes is {config.n_nodes}"
        )
    theta = profile.theta
    cot = _cot_table(theta)
    d = profile.dtheta
    tables = _grid_tables(theta)
    weights = _a0_weights(tables)

    records = []
    pending = []  # (n, t, dt, s, r1, r2, diff) of records not yet built
    t = 0.0
    n = stages = rejected = 0
    dt = dt_max = 0.0
    dt_min = math.inf
    s = profile.s
    s0_min = m = float(s.min())
    target = config.stop_fraction * s0_min
    # (t, a0) at the start and after each step, in arrays doubled when full
    ts, a0s = np.empty(_SAMPLES), np.empty(_SAMPLES)
    ts[0], a0s[0] = t, np.add.reduce(weights * s)
    status = error = None
    try:
        r1, r2, diff = _convex_radii(theta, s, d, cot)
    except ConvexityLossError as err:
        status, error = "convexity_loss", err
    else:
        pending.append((n, t, dt, s, r1, r2, diff))
    caller = np.geterr()
    with np.errstate(**_QUIET):
        while status is None:
            rate0, cap = _rate_and_cap(fam, alpha, r1, r2)
            dt = _step_dt(s, rate0, cap, d, alpha)
            for _ in range(8):
                n_stages = _stage_count(dt, cap, d)
                stages += n_stages
                out = _rkc(fam, alpha, s, rate0, dt, n_stages, d, cot)
                if out is not None:
                    break
                rejected += 1
                dt *= 0.5
            else:
                status = "convexity_loss"
                error = ConvexityLossError(
                    f"convexity lost at t={t:.6e} despite dt halving", node=-1
                )
                break
            m_new = _min(out[0])
            if m_new <= target:
                status = "extinct_fraction"
                short = dt * ((m - target) / (m - m_new))
                n_stages = _stage_count(short, cap, d)
                stages += n_stages
                landed = _rkc(fam, alpha, s, rate0, short, n_stages, d, cot)
                if landed is None:
                    rejected += 1
                else:
                    out, dt = landed, short
            s, r1, r2, diff = out
            m = m_new
            t += dt
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            n += 1
            if n == ts.size:
                ts, a0s = _doubled(ts), _doubled(a0s)
            ts[n] = t
            a0s[n] = np.add.reduce(weights * s)
            if status is None and n >= config.max_steps:
                status = "max_steps"
            if status or n % config.record_every == 0:
                pending.append((n, t, dt, s, r1, r2, diff))
                if len(pending) >= _RECORD_BLOCK:
                    with np.errstate(**caller):
                        _flush(records, pending, tables, d, speed)
    _flush(records, pending, tables, d, speed)
    final = SupportProfile(theta, s, t)
    trace = FlowTrace(
        config=config,
        records=records,
        status=status,
        steps=n,
        stages=stages,
        rejected=rejected,
        dt_min=float(dt_min) if n else None,
        dt_max=float(dt_max) if n else None,
        t_final=t,
        profile=final,
        initial_min_support=s0_min,
        samples=(ts[: n + 1], a0s[: n + 1]),
    )
    if error is not None:
        error.trace = trace
        raise error
    if status == "extinct_fraction":
        est = extinction_estimate(trace)
        trace.t_extinct = est.t_extinct
        trace.extinction_center = est.center_z
        trace.extinction_low_confidence = est.low_confidence
        if t < est.t_extinct:
            trace.deviation = rescale_deviation(
                final, est.t_extinct, t, speed, q=est.center_z
            )
    return trace


def _sphere_law(speed):
    """alpha + 1 and the rate (alpha + 1) c^-alpha at which rho^(alpha+1)
    falls on a round sphere, where k = c rho with c = k(1, 1) (1 for gauss)."""
    alpha = float(speed.alpha)
    c = float(_k_derivs(speed.family, alpha, 1.0, 1.0, order=0))
    return alpha + 1.0, (alpha + 1.0) * c**-alpha


def sphere_radius_law(rho0, speed, t):
    """Exact shrinking-sphere radius: rho^(alpha+1) decreases linearly."""
    power, rate = _sphere_law(speed)
    val = rho0**power - rate * t
    if val <= 0:
        raise DomainError("time at or beyond extinction")
    return val ** (1.0 / power)


def sphere_extinction_time(rho0, speed):
    power, rate = _sphere_law(speed)
    return rho0**power / rate


@dataclass(frozen=True)
class ExtinctionEstimate:
    t_extinct: float
    slope: float
    rows_used: int
    center_z: float
    low_confidence: bool


def extinction_estimate(trace: FlowTrace) -> ExtinctionEstimate:
    """Extrapolated extinction time from the trace's (t, a0) samples.

    a0^(alpha+1) falls linearly in t on a shrinking sphere about any centre
    on the axis, and on a rounding body the l = 2 mode enters a0 only at
    second order (min s carries it at first), so a straight-line fit over
    the last tenth of the steps (at least 5) extrapolates to zero.  The fit
    runs on t over its last value and a0 over its first, so it holds for
    bodies far below or above unit size.  The flag goes up when the tail is
    too short or the fitted slope fails to be negative.
    """
    alpha = float(trace.config.alpha)
    ts, a0s = trace.samples
    k = max(5, len(ts) // 10)
    tail_t, tail_a = ts[-k:], a0s[-k:]
    t_scale, a_scale = tail_t[-1], tail_a[0]
    x, y = tail_t / t_scale, (tail_a / a_scale) ** (alpha + 1.0)
    low = len(ts) < 5
    if len(x) >= 2 and np.ptp(x) > 0:
        slope, intercept = np.polyfit(x, y, 1)
    else:
        slope, intercept = 0.0, float(y[-1])
        low = True
    if slope >= 0:
        low = True
        t_ext = float(t_scale)
    else:
        t_ext = float(-intercept / slope * t_scale)
        if t_ext <= t_scale:
            low = True
    return ExtinctionEstimate(
        t_extinct=t_ext,
        slope=float(slope * a_scale ** (alpha + 1.0) / t_scale),
        rows_used=int(len(tail_t)),
        center_z=float(trace.records[-1].center_z),
        low_confidence=bool(low),
    )


def rescale_deviation(profile, t_extinct, t, speed, q=0.0):
    """max |s~ - 1| of the profile recentered at the axial point q and
    rescaled by the exact shrinking-sphere radius under `speed` with
    extinction at t_extinct."""
    if not t < t_extinct:
        raise DomainError(f"t={t} is at or beyond extinction {t_extinct}")
    power, rate = _sphere_law(speed)
    rho = (rate * (t_extinct - t)) ** (1.0 / power)
    recentered = profile.s - q * np.cos(profile.theta)
    return float(np.max(np.abs(recentered / rho - 1.0)))


def pinching_drift(values):
    """Largest excursion of the sequence above its running minimum — zero
    for a monotonically nonincreasing sequence."""
    values = np.asarray(values, dtype=float)
    running = np.minimum.accumulate(values)
    return float(np.max(values - running))
