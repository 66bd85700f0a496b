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

The two random suites evaluate their draws as arrays.  Draw i has family
FAMILIES[i % 4], so each family's draws take one pass through the generic
kernels (`speeds._f_derivs`, `pinching._zero_order`, `pinching._q_full`).
The reports are bit for bit those of a draw-at-a-time loop, the reference
in `tests/oracles.py`, whose per-draw Z and reduction residuals
(`zero_order_term`, `q_full_reduction_check`) run the same kernels on one
point at a time: the worst draw is the first with the largest ratio, and
the draws are the doubles per-call `Generator.uniform` gives.
`Generator.random` takes one 64-bit word per double whatever the size
asked for, so the zero-order suite draws all its uniforms in one call.
The reduction suite's rows also hold a `normal` pair, which takes a
variable number of words, so each row costs two calls on the same stream:
the pair, then one fill of the row's last uniform and the next row's
first three (`_reduction_rows`).
The arrays are `_ScalarPow` views whose `**` is `np.float_power`.  numpy's
array power can take SIMD code that differs in the last bit from libm's
`pow`, which Python floats and numpy scalars use; `np.float_power` calls
`pow` element by element.  The flow keeps numpy's array power.

The grid suite makes one pass per family as well, alpha a column against
the t row.  Its report is the per-alpha loop's (the reference in
`tests/oracles.py`), but not every entry is: a scalar exponent takes numpy's
reciprocal, sqrt or square fast path and a column does not, so rows with
alpha in {0.5, 1, 1.5, 2} can differ in the last bits.  The gauss closed
route's coefficient columns come from the integer lists of
`pinching._closed_numerator_ints` by integer true division, which rounds
correctly, so they are bit-equal to the exact coefficients' floats and
the column builds no Fraction.
"""

import numpy as np

from .errors import DomainError
from .pinching import (
    _closed_q,
    _gradient_terms_raw,
    _normalize,
    _power_sum_p,
    _q_full,
    _raw_arrays,
    _zero_order,
)
from .speeds import FAMILIES, _f_derivs

# perfbench/tracing.py wraps this name to count per-point derivative calls;
# the suites make none, but installing the tracer looks the name up here.
from .speeds import eval_f_derivs  # noqa: F401

Z_BOUND = 1e-12
AGREEMENT_BOUND = 1e-10
REDUCTION_BOUND = 1e-12


class _ScalarPow(np.ndarray):
    """Float array whose ** is np.float_power, which rounds as a Python-float
    or numpy-scalar ** does, x**2 included (module docstring)."""

    def __pow__(self, other):
        return np.float_power(self, other)

    def __rpow__(self, other):
        return np.float_power(other, self)


def _scaled(u):
    """(alpha, r1, r2) from the uniforms u[:, :3] in [0, 1) of a _ScalarPow
    array, each scaled as Generator.uniform scales its draw:
    low + (high - low) * u."""
    # t-1 >= 1e-3: Z is assembled naively per its definition, and the
    # g1+g2 sum cancels catastrophically in the umbilic limit, so draws
    # stay out of the region the analyzer itself excludes.
    r1 = 10.0 ** (-3 + 6 * u[:, 1])
    t = 1.0 + 10.0 ** (-3 + 6 * u[:, 2])
    return 0.5 + 9.5 * u[:, 0], r1, r1 * t


def _by_family(kernel, *columns):
    """kernel(family, *columns) for draw i's family FAMILIES[i % 4], one
    array pass per family, gathered back into draw order."""
    out = np.empty(len(columns[0]))
    for j, family in enumerate(FAMILIES):
        rows = slice(j, None, len(FAMILIES))
        out[rows] = kernel(family, *(c[rows] for c in columns))
    return out


def _report(suite, bound, worst, worst_case, **extent):
    """A suite's report: its name and extent (draws and seed, or grid), the
    worst ratio against its bound, the case that gave it, and the verdict."""
    return {
        "suite": suite,
        **extent,
        "worst_ratio": worst,
        "bound": bound,
        "worst_case": worst_case,
        "pass": worst <= bound,
    }


def _draw_report(suite, draws, seed, bound, ratio, alpha, r1, r2):
    # the first draw whose ratio beats the running worst, which starts at
    # 0.0; a NaN ratio never beats it
    ratio = np.where(ratio > 0.0, ratio, 0.0)
    worst, worst_case = 0.0, None
    if ratio.any():
        i = int(np.argmax(ratio))
        worst = float(ratio[i])
        worst_case = {
            "family": FAMILIES[i % len(FAMILIES)],
            "alpha": float(alpha[i]),
            "r1": float(r1[i]),
            "r2": float(r2[i]),
        }
    return _report(suite, bound, worst, worst_case, draws=draws, seed=seed)


def _check_draws(draws, seed):
    if draws < 1 or seed < 0:
        raise DomainError(f"draws must be >= 1 and seed >= 0, got {draws} and {seed}")


def _z_ratio(family, alpha, r1, r2):
    fd = _f_derivs(family, alpha, r1, r2)
    f, f1, f2 = fd[:3]
    scale = (abs(f) + f1 * r1 + f2 * r2) * (f1 + f2) * (r2 - r1)
    return abs(_zero_order(fd, r1, r2)) / scale


def z_residual_suite(draws=10000, seed=0):
    """|Z| <= 1e-12 x (|f| + f1 r1 + f2 r2)(f1 + f2)(r2 - r1) over random
    (family, alpha, radii) draws."""
    _check_draws(draws, seed)
    rng = np.random.default_rng(seed)
    alpha, r1, r2 = _scaled(rng.random((draws, 3)).view(_ScalarPow))
    ratio = _by_family(_z_ratio, alpha, r1, r2)
    return _draw_report("zero_order", draws, seed, Z_BOUND, ratio, alpha, r1, r2)


def _agreement_grid(family, alpha, t):
    """Raw and closed (Q1, Q2), each (alpha, side, t), of one family.  The
    power-sum table decides alpha == p once per call, so the rows where it
    holds (mean 1, norm 2, every sum row) take one pass, the rest another."""
    same = np.zeros(len(alpha), bool)
    if family != "gauss_power":
        same = (alpha == _power_sum_p(family, alpha)).ravel()
    raw, closed = np.empty((2, len(alpha), 2, len(t)))
    for rows in (same, ~same):
        if rows.any():
            raw[rows] = np.stack(_raw_arrays(family, alpha[rows], t), axis=1)
            closed[rows] = np.stack(_closed_q(family, alpha[rows], t), axis=1)
    return raw, closed


def closed_agreement_suite(n_t=64, n_alpha=64):
    """Raw-assembly vs closed-route (Q1, Q2) for every family on a (t, alpha)
    grid, t in (1, 1e3], alpha in [0.5, 2]."""
    t = np.geomspace(1e3 ** (1.0 / n_t), 1e3, n_t)
    alpha = np.linspace(0.5, 2.0, n_alpha)[:, None]
    worst, worst_case = 0.0, None
    for family in FAMILIES:
        raw, closed = _agreement_grid(family, alpha, t)
        rel = np.abs(raw - closed) / np.abs(closed)
        # the loop's first strict maximum in (alpha, side, t) order; a row's
        # NaN was its argmax there, and a NaN never beats the running worst
        rel[np.isnan(rel).any(axis=-1)] = 0.0
        if rel.max(initial=0.0) > worst:
            a, side, j = np.unravel_index(np.argmax(rel), rel.shape)
            worst = float(rel[a, side, j])
            worst_case = dict(
                family=family, alpha=float(alpha[a, 0]), t=float(t[j]), side=f"q{side + 1}"
            )
    return _report(
        "closed_agreement", AGREEMENT_BOUND, worst, worst_case, grid=[n_t, n_alpha]
    )


def _reduction_ratio(family, alpha, r1, r2, t1, t2):
    fd = _f_derivs(family, alpha, r1, r2)
    w = r2 - r1
    q1, q2 = _normalize(*_gradient_terms_raw(fd, w), fd[0])
    residual = _q_full(fd, w, t1, t2) - (q1 * t1 * t1 + q2 * t2 * t2)
    # max(|q1 t1^2|, |q2 t2^2|, 1.0) as Python's max takes it, NaN included
    a, b = abs(q1 * t1 * t1), abs(q2 * t2 * t2)
    scale = np.where(b > a, b, a)
    scale = np.where(1.0 > scale, 1.0, scale)
    return abs(residual) / scale


def _reduction_rows(draws, seed):
    """The (draws, 6) rows (u0, u1, u2, n0, n1, u5) of the reduction suite,
    each drawn from one stream as random(), random(), random(),
    *normal(size=2), random() would draw it, in row order.

    `Generator.random` takes one 64-bit word per double however many it is
    asked for, so a row's last uniform and the next row's first three are one
    fill of four; `normal` takes a variable number of words (its ziggurat
    rejects and redraws), so it stays one call of two per row and the stream
    is consumed in the same order.  On the last row the fill is one long."""
    rng = np.random.default_rng(seed)
    rows = np.empty((max(draws, 0), 6))
    flat = rows.reshape(-1)
    rng.random(out=flat[:3])
    for j in range(0, flat.size, 6):
        flat[j + 3 : j + 5] = rng.normal(size=2)
        rng.random(out=flat[j + 5 : j + 9])
    return rows


def reduction_suite(draws=1000, seed=0):
    """Full quadratic form minus (Q1 T1^2 + Q2 T2^2), relative to
    max(|Q1 T1^2|, |Q2 T2^2|, 1), over random draws."""
    _check_draws(draws, seed)
    u = _reduction_rows(draws, seed).view(_ScalarPow)
    alpha, r1, r2 = _scaled(u)
    t1, t2 = u[:, 3:5].T * 10.0 ** (-2 + 4 * u[:, 5])
    ratio = _by_family(_reduction_ratio, alpha, r1, r2, t1, t2)
    return _draw_report("reduction", draws, seed, REDUCTION_BOUND, ratio, alpha, r1, r2)


def run_all(draws=10000, seed=0):
    suites = [
        z_residual_suite(draws=draws, seed=seed),
        closed_agreement_suite(),
        reduction_suite(draws=max(1000, draws // 10), seed=seed),
    ]
    return {"suites": suites, "pass": all(s["pass"] for s in suites)}
