"""Axisymmetric support-function flow for convex surfaces of revolution.

State is the support function s(theta) on a uniform grid over [0, pi],
whose fixed tables `_grid` builds once per node count.  The principal radii
are the meridian radius s'' + s and the rotational radius cot(theta) s' + s;
both are s'' + s at the axis, where the even ghost-node reflection supplies
them without one-sided stencils (`_radii`, the one stencil).  Grids are
mirror-symmetric bit for bit: the cotangent table and the built-in profiles
are built on the upper half and reflected, `_radii` adds a node's two
neighbours before anything else, and every other update is elementwise or a
scalar reduction, so an equator-symmetric profile stays exactly symmetric
under the flow (the acceptance checks rely on this).

Time stepping is the damped second-order Runge-Kutta-Chebyshev method
(Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998), whose
stability interval grows as the square of the stage count, so the step
follows accuracy rather than the parabolic limit: `run` sizes each step by
the method's embedded error estimate (`_error`).  It steps
w = (s / max s)^(alpha + 1) rather than s: on a shrinking sphere w falls
linearly in t, where every Runge-Kutta method is exact, so a round start
follows its radius law to rounding and the step's error comes from the
body's departure from round alone.  `run` loops over the kernels on bare
arrays; `step` and `adaptive_dt` wrap the same kernels for one profile.

Records are built in blocks: `run` holds up to `_RECORD_BLOCK` pending
records as references to the stepper's arrays, fresh every step, and
builds them with one `_diagnose` call on the stacked block, which reduces
along the last axis only, so each row gets the bits of its profile alone.

T is fitted on (t, a0) at every step, not on the records, so it does not
depend on `record_every`: a0, the l = 0 Legendre amplitude of s, is the
radius of a sphere wherever it sits on the axis, and it carries the l = 2
mode of a rounding body only at second order.
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

# The first step advances _EPS of the smallest remaining shrinking-sphere
# lifetime over the nodes (`_lifetime`); it seeds the controller in `run`,
# and `adaptive_dt` returns it.  From there each step is sized by RKC's
# embedded estimate of its local error (`_error`), as a fraction of max s:
# a step is kept when the estimate is at most _TOL, and the next one is
# dt * min(3, 0.9 (_TOL / err)^(1/3)), but at most _CAP of the remaining
# sphere lifetime.  Stepping w = (s / max s)^(alpha + 1) leaves the round
# spheres exact, where the estimate is 0, so the cap sizes their steps and
# keeps w positive.  A larger cap takes fewer steps on round bodies, but
# it stretches the last tenth of the steps, over which
# `extinction_estimate` fits T, back to an a0 far from its final value:
# at 0.25 criterion 8 at alpha 2 read 0.0036 in place of 0.0003.  The
# binding check is the explicit reference,
# `test_rkc_matches_explicit_reference`: its worst case, gauss alpha 2,
# reads 2.8e-6 of its 1e-5 bound.
_EPS = 0.008
_TOL = 1e-8
_CAP = 0.05

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
# `_rate_and_cap`, as does a w or a w scale outside the normal floats in
# `_rkc`, and a non-finite stage gives a NaN radius (the root of a negative
# or NaN w is NaN), which fails `_convex`, so `_rkc` rejects the step.
# `run`, `step` and `adaptive_dt` silence these warnings once per call: an
# errstate per kernel call costs more than the power it guards.  `run`
# builds its records under the caller's error state, so a diagnostic that
# overflows still warns.
_QUIET = dict(over="ignore", invalid="ignore")

# A recorded column counts as monotone in `FlowTrace.summary_dict` when its
# `pinching_drift` is at most this.
MONOTONE_TOL = 1e-3


def _positive(x):
    """x > 0 and finite (inf > 0 holds, and would pass a bare comparison)."""
    return x > 0 and math.isfinite(x)


class _Grid(NamedTuple):
    """The [0, pi] grid of one node count and its fixed tables, read-only."""

    theta: np.ndarray
    d: float  # theta[1] - theta[0]
    cot: np.ndarray  # odd about the equator; the pole entries are never used
    cos: np.ndarray
    sin: np.ndarray
    w: np.ndarray  # trapezoid widths
    a0: np.ndarray  # a0 = sum(a0 * s) is the l = 0 Legendre amplitude of s
    pad: np.ndarray  # gather index of s padded by its even pole reflections


@functools.lru_cache(maxsize=None)
def _grid(n):
    """The grid of n nodes, built once per n; raises ResolutionError unless
    n is odd (equator on-grid) and at least 33.  The cotangent is built on
    the upper half and mirrored.  The a0 weights are the trapezoid weights
    times sin theta over their sum: a0 is the radius of a sphere about any
    centre on the axis (the l = 1 mode, a translation, integrates out)."""
    if n < 33 or n % 2 == 0:
        raise ResolutionError(
            f"need an odd node count >= 33 (equator on-grid), got {n}"
        )
    theta = np.linspace(0.0, math.pi, n)
    h = n // 2
    cot = np.zeros(n)
    cot[1:h] = np.cos(theta[1:h]) / np.sin(theta[1:h])
    cot[h + 1 : n - 1] = -cot[1:h][::-1]
    cos, sin, w = np.cos(theta), np.sin(theta), np.diff(theta)
    trap = np.concatenate(([0.0], w)) + np.concatenate((w, [0.0]))
    weights = trap * sin
    a0 = weights / np.add.reduce(weights)
    pad = np.concatenate(([1], np.arange(n), [n - 2]))
    for table in (theta, cot, cos, sin, w, a0, pad):
        table.flags.writeable = False
    return _Grid(theta, theta[1] - theta[0], cot, cos, sin, w, a0, pad)


@dataclass
class SupportProfile:
    s: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.time = float(self.time)
        if not math.isfinite(self.time):
            raise DomainError(f"time must be finite, got {self.time}")
        if self.s.ndim != 1:
            raise DomainError("support function must be a 1-d array")
        _grid(self.s.size)  # validates the node count
        # NaN fails both comparisons
        if not np.all((self.s > 0) & (self.s < math.inf)):
            raise DomainError("support function must be finite and positive")

    @property
    def theta(self):
        return _grid(self.s.size).theta

    @property
    def dtheta(self):
        return _grid(self.s.size).d

    @property
    def n_nodes(self):
        return self.s.size


def sphere_support(radius, n_nodes=201):
    if not _positive(radius):
        raise DomainError(f"radius must be finite and positive, got {radius}")
    _grid(n_nodes)  # validates the node count
    return SupportProfile(np.full(n_nodes, float(radius)))


def ellipsoid_support(a, b, n_nodes=201):
    """Support function of the spheroid with semi-axis a along the symmetry
    axis and b across it: s^2 = a^2 cos^2 + b^2 sin^2.  Built on the upper
    half and mirrored so the profile is exactly equator-symmetric."""
    if not (_positive(a) and _positive(b)):
        raise DomainError(f"semi-axes must be finite and positive, got ({a}, {b})")
    theta = _grid(n_nodes).theta
    h = n_nodes // 2
    cos2 = np.cos(theta[: h + 1]) ** 2
    s_half = np.sqrt(b * b + (a * a - b * b) * cos2)
    s = np.concatenate([s_half, s_half[:-1][::-1]])
    return SupportProfile(s)


def _min(x):
    """np.minimum.reduce(x) of a 1-d array by one argmin: the same value,
    and NaN when x holds one (argmin stops at the first NaN).  On the
    stepper's short arrays numpy's per-call dispatch costs more than the
    arithmetic, and an argmin and an index dispatch less than a reduce."""
    return x[x.argmin()]


def _max(x):
    """np.maximum.reduce(x) of a 1-d array by one argmax, NaN kept alike."""
    return x[x.argmax()]


def _radii(s, g):
    """The finite-difference stencil: even reflection of s across each pole,
    then central differences.  Returns the meridian radius s'' + s, the
    rotational radius cot s' + s (both s'' + s at the poles) and the
    undivided central difference s[i+1] - s[i-1] = 2 d s'."""
    sp = s[g.pad]
    up, down = sp[2:], sp[:-2]
    diff = up - down
    # the neighbours' sum first: it commutes bit for bit, so the stencil is
    # the same at mirrored nodes; s + s is 2.0 * s exactly
    r1 = ((up + down) - (s + s)) / (g.d * g.d) + s
    r2 = g.cot * diff / (2.0 * g.d) + s
    r2[0] = r1[0]
    r2[-1] = r1[-1]
    return r1, r2, diff


def _convex(r1, r2):
    return _min(r1) > 0 and _min(r2) > 0


def _convex_radii(s, g):
    """`_radii`, raising ConvexityLossError that names the node of the smallest
    radius when either radius is nonpositive (the flow is undefined there)."""
    r1, r2, diff = _radii(s, g)
    if not _convex(r1, r2):
        node = int(np.argmin(np.minimum(r1, r2)))
        raise ConvexityLossError(
            f"convexity lost at node {node} (theta={g.theta[node]:.6f}): "
            f"r1={r1[node]:.6e}, r2={r2[node]:.6e}",
            node=node,
            r1=float(r1[node]),
            r2=float(r2[node]),
        )
    return r1, r2, diff


def _rate_and_cap(family, alpha, r1, r2):
    """ds/dt = -k^(-alpha) and the cap max(df1 + df2), where
    df_i = alpha k^-(1+alpha) dk_i is the linearization's diffusion trace;
    the cap sizes the step's stage count.  Needs k and its first
    derivatives only: `_k_derivs` at order 1, so no second derivative is
    formed per step.  Raises DomainError when the cap is not
    finite and positive, as when k^-(1+alpha) leaves the float range: no
    step or stage count follows from such a cap."""
    k, k1, k2 = _k_derivs(family, alpha, r1, r2, order=1)
    a = k ** (-(1.0 + alpha))
    cap = float(_max(alpha * a * (k1 + k2)))
    if not _positive(cap):
        raise DomainError(
            f"speed out of the float range: diffusion cap {cap} is not finite "
            "and positive"
        )
    return -(a * k), cap


def _lifetime(s, rate, alpha):
    """min over the nodes of s / |ds/dt|, divided by alpha + 1, for s whose
    rate is `rate`: on a sphere, its remaining lifetime."""
    return -float(_max(s / rate)) / (alpha + 1.0)


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


def _attempt(family, alpha, s, rate0, cap, dt, g):
    """One try of a step of dt: the stage count `_stage_count` gives for dt
    and the `_rkc` step in that many stages (None when rejected).  `run`'s
    tries, its landing steps and `step` all take their steps here."""
    n_stages = _stage_count(dt, cap, g.d)
    return n_stages, _rkc(family, alpha, s, rate0, dt, n_stages, g)


def _rkc(family, alpha, s, rate0, dt, n_stages, g):
    """One RKC step of dt in n_stages stages from s, whose rate is rate0,
    taken in w = (s / c)^(alpha + 1), c = max s.  A stage takes the radii
    of u = w^(1 / (alpha + 1)) = s / c; r and k are homogeneous of degree
    one, so dw/dt = -(alpha + 1) c^-(alpha + 1) (u / k(u))^alpha, the scalar
    folded into the stage coefficient.  The Jacobian in w is a diagonal
    similarity of the one in s, so the cap and the stage count carry over,
    and w / |dw/dt| = s / ((alpha + 1) |ds/dt|) is what `_lifetime` reads.
    Returns the new (s, r1, r2, diff) as `_radii` gives them, then what
    `_error` reads: c, the new w, its increment d = w - w0 and dw/dt at w0.
    Returns None when a stage loses convexity or the result loses
    convexity or positivity (the caller halves dt), and when n_stages
    exceeds _MAX_STAGES.  Raises DomainError when min w or c^-(alpha + 1)
    is not a normal float.  Stage rates need k only: `_k_derivs` at
    order 0."""
    if n_stages > _MAX_STAGES:
        return None
    p = alpha + 1.0
    c = _max(s)
    w0 = (s / c) ** p
    scale = p * c**-p
    tiny = sys.float_info.min
    if not (_min(w0) >= tiny and tiny <= scale < math.inf):
        raise DomainError(
            f"speed out of the float range: (min s / max s)^{p} or {c}^-{p} "
            "is not a normal float"
        )
    wrate0 = (p * rate0 / s) * w0
    root = 1.0 / p
    mu_t1, stages = _rkc_coefficients(n_stages)
    # the stages carry d = w - w0, whose update needs no (1 - mu - nu) w0
    # term: on a sphere it is the increment alone, so no rounding of w0
    # builds up over a run
    d_prev, d = 0.0, (mu_t1 * dt) * wrate0
    for mu, nu, mu_t, gamma_t in stages:
        u = (w0 + d) ** root
        r1, r2, _ = _radii(u, g)
        if not _convex(r1, r2):
            return None
        k = _k_derivs(family, alpha, r1, r2, order=0)
        # the stage rate is -scale (u / k)^alpha, so its term is subtracted
        d_prev, d = d, (
            mu * d
            + nu * d_prev
            + (gamma_t * dt) * wrate0
            - (mu_t * dt * scale) * (u / k) ** alpha
        )
    w = w0 + d
    s = c * w**root
    r1, r2, diff = _radii(s, g)
    if not _convex(r1, r2) or _min(s) <= 0:
        return None
    return s, r1, r2, diff, c, w, d, wrate0


def _error(alpha, dt, out, rate):
    """RKC's embedded estimate of the local error of the step of dt that
    `_rkc` returned as `out`, whose new s has the rate `rate`: in w,
    est = (12 (w0 - w) + 6 dt (dw/dt at w0 + dw/dt at w)) / 15 (Sommeijer,
    Shampine & Verwer), here with w - w0 = d, the increment the stages
    carry.  Returned in s as a fraction of c = max s before the step: a
    change dw in w = u^(alpha + 1), u = s / c, is a change of
    dw / ((alpha + 1) u^alpha) = dw s / ((alpha + 1) c w) in u.  0 up to
    rounding on a sphere, where w falls linearly."""
    s, _, _, _, c, w, d, wrate0 = out
    p = alpha + 1.0
    wrate = (p * rate / s) * w
    est = (6.0 * dt) * (wrate0 + wrate) - 12.0 * d
    return float(_max(np.abs(est) * s / w)) / (15.0 * p * c)


def radii_from_support(profile):
    """The principal radii (r1, r2) on the grid, meridian and rotational;
    raises ConvexityLossError when either is nonpositive anywhere."""
    return _convex_radii(profile.s, _grid(profile.n_nodes))[:2]


def step(profile, speed, dt) -> SupportProfile:
    """One RKC step of dt, the one `run` takes, through the same `_attempt`:
    iterating `step` over the dt column of `run`'s trace (`record_every` 1)
    reproduces `run` bit for bit.  dt = 0 returns a copy; negative or
    non-finite dt, or a step that loses positivity or convexity, is
    rejected (the caller halves dt)."""
    if not (math.isfinite(dt) and dt >= 0):
        raise StepRejectedError(f"bad time step {dt}")
    if dt == 0.0:
        return SupportProfile(profile.s.copy(), profile.time)
    t_new = profile.time + dt
    family, alpha = speed.family, float(speed.alpha)
    g = _grid(profile.n_nodes)
    r1, r2, _ = _radii(profile.s, g)
    out = None
    if _convex(r1, r2):
        with np.errstate(**_QUIET):
            rate0, cap = _rate_and_cap(family, alpha, r1, r2)
            out = _attempt(family, alpha, profile.s, rate0, cap, dt, g)[1]
    if out is None:
        raise StepRejectedError(
            f"step to t={t_new} rejected: convexity or positivity lost"
        )
    return SupportProfile(out[0], t_new)


def adaptive_dt(profile, speed):
    """The time step `run` starts from: _EPS of the remaining
    shrinking-sphere lifetime (`_lifetime`)."""
    r1, r2 = radii_from_support(profile)
    alpha = float(speed.alpha)
    with np.errstate(**_QUIET):
        rate0, _ = _rate_and_cap(speed.family, alpha, r1, r2)
    return _EPS * _lifetime(profile.s, rate0, alpha)


def _diagnose(g, s, r1, r2, diff, speed):
    """The diagnostics kernel, from `_radii` arrays of convex profiles: 1-d
    arrays for one profile, or 2-d arrays with one profile per row.  Every
    reduction runs along axis=-1, so a row gives the bits of the same
    profile on its own.  The centre is the axial Steiner point (3/2)
    integral of s cos sin, by numpy's trapezoid formula written out; circum-
    and inradius are taken about it.  Records are pinned bit for bit, so
    no expression may change its order of operations (s * cos * sin stays
    a product of three).  Returns each field as `.tolist()` gives it: a
    float for one profile, a list for a block."""
    cos, sin, w = g.cos, g.sin, g.w
    alpha = float(speed.alpha)
    s_th = diff / (2.0 * g.d)
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
    g = _grid(profile.n_nodes)
    r1, r2, diff = _convex_radii(profile.s, g)
    out = _diagnose(g, profile.s, r1, r2, diff, speed)
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
        _grid(self.n_nodes)  # validates the node count
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
    # attempts rejected: a dt halving, an error-test retry, or a landing
    # step that failed, so the longer step before it stands
    rejected: int
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
        """summary.json: every field but records, profile and samples, the
        record count, three columns' pinching drifts and monotone flags (None
        and False with no records), and the exact sphere extinction time, on
        the run's clock, when the step-0 record, the start of the flow, is
        round (min and max support equal)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("records", "profile", "samples")
        }
        out["config"] = asdict(self.config)
        out["n_records"] = len(self.records)
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
        start = self.records[0] if self.records else None
        if start and start.min_support == start.max_support:
            lifetime = sphere_extinction_time(start.min_support, self.config.speed())
            out["sphere_t_exact"] = start.t + lifetime
        return out


def _flush(records, pending, g, speed):
    """Append the FlowRecords of the pending (n, t, dt, s, r1, r2, diff)
    entries, stacked into one block for one `_diagnose` call, and empty
    `pending`."""
    if not pending:
        return
    n, t, dt, *arrays = zip(*pending)
    cols = _diagnose(g, *map(np.stack, arrays), speed)
    cols.update(step=n, t=t, dt=dt)
    records.extend(map(FlowRecord._make, zip(*(cols[c] for c in TRACE_COLUMNS))))
    pending.clear()


def run(config: FlowConfig, profile=None) -> FlowTrace:
    """Integrate until the minimum support reaches stop_fraction of its
    initial value (or max_steps).  The first try is `adaptive_dt`'s step;
    each later one follows the error estimate of the step before (`_error`,
    `_TOL`, `_CAP`).  A try that loses convexity is retried at half its dt,
    and one whose estimate exceeds _TOL at a dt the estimate shrinks.  The
    step that crosses the target is taken again, shortened by two secant
    steps in dt so that the minimum support lands on the target and no
    reported value depends on the step size through where the run stops;
    if a short step is rejected, the step before it stands.  The loop
    carries bare arrays, since a SupportProfile per step would re-validate
    s.  A given `profile` must have `config.n_nodes` nodes; the clock
    starts at its `time`, and T is read on that clock.

    A nonconvex initial profile, or a step that eight tries do not take,
    ends the loop with status "convexity_loss", and the one
    FlowTrace, made either way, rides on the raised ConvexityLossError as
    `error.trace`.  At the stop fraction, T, its flag, the last record's
    centre and the deviation rescaled about that centre go onto the trace.
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
    g = _grid(profile.n_nodes)

    records = []
    pending = []  # (n, t, dt, s, r1, r2, diff) of records not yet built
    t = profile.time
    n = stages = rejected = 0
    dt = dt_max = 0.0
    dt_min = math.inf
    s = profile.s
    s0_min = m = float(s.min())
    target = config.stop_fraction * s0_min
    # (t, a0) at the start and after each step
    ts, a0s = [t], [np.add.reduce(g.a0 * s)]
    status = error = None
    try:
        r1, r2, diff = _convex_radii(s, g)
    except ConvexityLossError as err:
        status, error = "convexity_loss", err
    else:
        pending.append((n, t, dt, s, r1, r2, diff))
    caller = np.geterr()
    with np.errstate(**_QUIET):
        if status is None:
            rate0, cap = _rate_and_cap(fam, alpha, r1, r2)
            try_dt = _EPS * _lifetime(s, rate0, alpha)
        while status is None:
            dt = try_dt
            for _ in range(8):
                n_stages, out = _attempt(fam, alpha, s, rate0, cap, dt, g)
                stages += n_stages
                if out is None:
                    dt *= 0.5
                else:
                    rate1, cap1 = _rate_and_cap(fam, alpha, out[1], out[2])
                    err = _error(alpha, dt, out, rate1)
                    # a step of dt * ratio errs 0.9^3 _TOL: the error goes as dt^3
                    ratio = 0.9 * (_TOL / err) ** (1.0 / 3.0) if err else 3.0
                    if err <= _TOL:
                        break
                    dt *= max(0.2, ratio)
                rejected += 1
            else:
                status = "convexity_loss"
                error = ConvexityLossError(
                    f"convexity lost at t={t:.6e} despite dt halving", node=-1
                )
                break
            m_new = _min(out[0])
            if m_new <= target:
                status = "extinct_fraction"
                # secant steps in dt on min s, each from the last two tries
                x0, m0, x1, m1 = 0.0, m, dt, m_new
                for _ in range(2):
                    if m1 == target or m1 == m0:
                        break
                    x = x1 + (target - m1) * ((x1 - x0) / (m1 - m0))
                    n_stages, landed = _attempt(fam, alpha, s, rate0, cap, x, g)
                    stages += n_stages
                    if landed is None:
                        rejected += 1
                        break
                    out, dt = landed, x
                    x0, m0, x1, m1 = x1, m1, x, _min(landed[0])
            else:
                rate0, cap = rate1, cap1
                cap_dt = _CAP * _lifetime(out[0], rate0, alpha)
                try_dt = min(dt * min(3.0, ratio), cap_dt)
            s, r1, r2, diff = out[:4]
            m = m_new
            t += dt
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            n += 1
            ts.append(t)
            a0s.append(np.add.reduce(g.a0 * s))
            if status is None and n >= config.max_steps:
                status = "max_steps"
            if status or n % config.record_every == 0:
                pending.append((n, t, dt, s, r1, r2, diff))
                if len(pending) >= _RECORD_BLOCK:
                    with np.errstate(**caller):
                        _flush(records, pending, g, speed)
    _flush(records, pending, g, speed)
    final = SupportProfile(s, t)
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
        samples=(np.array(ts), np.array(a0s)),
    )
    if error is not None:
        error.trace = trace
        raise error
    if status == "extinct_fraction":
        trace.t_extinct, trace.extinction_low_confidence = extinction_estimate(trace)
        trace.extinction_center = q = records[-1].center_z
        if t < trace.t_extinct:
            trace.deviation = rescale_deviation(final, trace.t_extinct, t, speed, q=q)
    return trace


def _sphere_law(speed):
    """alpha + 1 and the rate (alpha + 1) c^-alpha at which rho^(alpha+1)
    falls on a round sphere, where k = c rho with c = k(1, 1) (1 for gauss)."""
    alpha = float(speed.alpha)
    c = float(_k_derivs(speed.family, alpha, 1.0, 1.0, order=0))
    return alpha + 1.0, (alpha + 1.0) * c**-alpha


def sphere_extinction_time(rho0, speed):
    power, rate = _sphere_law(speed)
    return rho0**power / rate


def extinction_estimate(trace: FlowTrace):
    """(t_extinct, low_confidence): the extinction time extrapolated from
    the trace's (t, a0) samples, and whether the fit is to be doubted.

    a0^(alpha+1) falls linearly in t on a shrinking sphere about any centre
    on the axis, and on a rounding body the l = 2 mode enters a0 only at
    second order (min s carries it at first), so a straight-line fit over
    the last tenth of the steps (at least 5) extrapolates to zero.  The fit
    runs on t over the magnitude of its last value and a0 over its first,
    so it holds for bodies far below or above unit size and for a clock
    that runs at negative times.  The flag goes up with fewer than 5
    samples, or when T is not past the last t, where a slope that fails to
    be negative puts it.
    """
    alpha = float(trace.config.alpha)
    ts, a0s = trace.samples
    k = max(5, len(ts) // 10)
    tail_t, tail_a = ts[-k:], a0s[-k:]
    t_last, a_scale = tail_t[-1], tail_a[0]
    t_scale = abs(t_last)
    x, y = tail_t / t_scale, (tail_a / a_scale) ** (alpha + 1.0)
    slope, intercept = np.polyfit(x, y, 1) if np.ptp(x) > 0 else (0.0, 0.0)
    t_ext = float(t_last if slope >= 0 else -intercept / slope * t_scale)
    return t_ext, bool(len(ts) < 5 or t_ext <= t_last)


def rescale_deviation(profile, t_extinct, t, speed, q=0.0):
    """max |s~ - 1| of the profile recentered at the axial point q and
    rescaled by the exact shrinking-sphere radius under `speed` with
    extinction at t_extinct."""
    if not t < t_extinct:
        raise DomainError(f"t={t} is at or beyond extinction {t_extinct}")
    power, rate = _sphere_law(speed)
    rho = (rate * (t_extinct - t)) ** (1.0 / power)
    recentered = profile.s - q * _grid(profile.n_nodes).cos
    return float(np.max(np.abs(recentered / rho - 1.0)))


def pinching_drift(values):
    """Largest excursion of the sequence above its running minimum — zero
    for a monotonically nonincreasing sequence."""
    values = np.asarray(values, dtype=float)
    running = np.minimum.accumulate(values)
    return float(np.max(values - running))
