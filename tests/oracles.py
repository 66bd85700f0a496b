"""Independent oracles for the test suite.

Speeds are re-derived here straight from their curvature-variable
definitions (kappa_i = 1/r_i) and differentiated by central finite
differences or sympy, with no reference to the package's analytic
derivative code — agreement is a genuine cross-check rather than a
tautology.  Frozen reference values carry their derivations as comments.

The slow references (`reference_flow`, the per-value trace writer, the
per-draw and per-alpha identity suites, the per-alpha power-sum numerators,
the Fraction Descartes engine and the Sturm-chain sign engine) are the code
paths the package's fast paths replaced, kept here so the tests can require
the same results from both.
"""

import math
from fractions import Fraction
from math import floor, lcm

import numpy as np

from pinchflow.certificates import _taylor_shift
from pinchflow.errors import SignBudgetError
from pinchflow.identities import AGREEMENT_BOUND, REDUCTION_BOUND, Z_BOUND
from pinchflow.pinching import (
    _gradient_terms_raw,
    _power_sum_p,
    _power_sum_table,
    _raw_arrays,
    gradient_terms_general,
    gradient_terms_general_arrays,
    horner,
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


def sphere_rate_oracle(alpha, family="gauss_power"):
    """(alpha + 1) |speed| of the unit sphere: the rate at which
    rho^(alpha+1) falls, since the speed is homogeneous of degree -alpha."""
    return (alpha + 1.0) * -speed_value(family, alpha, 1.0, 1.0)


def sphere_radius_oracle(rho0, alpha, t, family="gauss_power"):
    rate = sphere_rate_oracle(alpha, family)
    return (rho0 ** (alpha + 1.0) - rate * t) ** (1.0 / (alpha + 1.0))


def sphere_time_oracle(rho0, alpha, family="gauss_power"):
    return rho0 ** (alpha + 1.0) / sphere_rate_oracle(alpha, family)


def cfl_dt(dtheta, safety, fdot_sum_max):
    """The explicit parabolic step safety * dtheta^2 / max(fdot1 + fdot2)."""
    return safety * dtheta * dtheta / fdot_sum_max


def padded_radii(s, d, cot):
    """The flow's stencil with its padding written out: a fresh padded
    array, a slice copy and two pole writes, doubling by 2.0 * s.  The slow
    reference for `flow._radii`, which must match it bit for bit."""
    sp = np.empty(s.size + 2)
    sp[1:-1] = s
    sp[0] = s[1]
    sp[-1] = s[-2]
    diff = sp[2:] - sp[:-2]
    r1 = ((sp[2:] + sp[:-2]) - 2.0 * s) / (d * d) + s
    r2 = cot * diff / (2.0 * d) + s
    r2[0] = r1[0]
    r2[-1] = r1[-1]
    return r1, r2, diff


# (mu~_1, ((mu, nu, mu~, gamma~),)) that the damped RKC recurrence gives for
# two stages, in `flow._rkc_coefficients`'s form, as it stood before two
# stages took Ralston's method: the inner stage at c = 0.2407, and nu = -1
RKC_TWO_STAGE = (
    0.24074074074074073,
    ((2.076923076923077, -1.0, 2.076923076923077, -1.576923076923077),),
)


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


def write_trace_csv_per_value(path, columns, rows):
    """reports.write_trace_csv one value at a time: %.17g for each float and
    str() for anything else.  The slow reference for its one row format."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    "%.17g" % v if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


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


def reduction_rows_loop(draws, seed):
    """identities._reduction_rows one scalar per generator call: the slow
    reference for its two calls per row."""
    rng = np.random.default_rng(seed)
    rows = [
        (rng.random(), rng.random(), rng.random(), *rng.normal(size=2), rng.random())
        for _ in range(draws)
    ]
    return np.array(rows, dtype=float).reshape(-1, 6)


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


def closed_agreement_suite_loop(n_t=64, n_alpha=64):
    """identities.closed_agreement_suite one alpha at a time, each row's
    worst t first: the slow reference for its grid evaluation."""
    t = np.geomspace(1e3 ** (1.0 / n_t), 1e3, n_t)
    worst = 0.0
    worst_case = None
    for family in FAMILIES:
        for alpha in np.linspace(0.5, 2.0, n_alpha):
            speed = SpeedFunction(family, float(alpha))
            q1r, q2r = _raw_arrays(family, float(alpha), t)
            q1c, q2c = gradient_terms_general_arrays(speed, t)
            for raw, closed, tag in ((q1r, q1c, "q1"), (q2r, q2c, "q2")):
                rel = np.abs(raw - closed) / np.abs(closed)
                i = int(np.argmax(rel))
                if rel[i] > worst:
                    worst = float(rel[i])
                    worst_case = dict(
                        family=family, alpha=float(alpha), t=float(t[i]), side=tag
                    )
    return {
        "suite": "closed_agreement",
        "grid": [n_t, n_alpha],
        "worst_ratio": worst,
        "bound": AGREEMENT_BOUND,
        "worst_case": worst_case,
        "pass": worst <= AGREEMENT_BOUND,
    }


# --- per-alpha power-sum numerators ------------------------------------------
# the slow reference for the certificates' tables in alpha: the whole exact
# build run at one exponent, alpha a number throughout


class _Laurent:
    """A Laurent polynomial in (x, v, w) with Fraction coefficients: + - * and
    division by a monomial, all `_power_sum_table` and `_gradient_terms_raw` use."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}  # exponents -> c

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _Laurent(out)

    def __neg__(self):
        return _Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Laurent):
            return _Laurent({e: c * other for e, c in self.terms.items()})
        out = {}
        for (x, v, w), c in self.terms.items():
            for (y, u, z), d in other.terms.items():
                e = (x + y, v + u, w + z)
                out[e] = out.get(e, 0) + c * d
        return _Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, monomial):
        ((y, u, z), d), = monomial.terms.items()
        return _Laurent({(x - y, v - u, w - z): c / d for (x, v, w), c in self.terms.items()})

    def numerator(self, q):
        """Integer coefficient lists, descending in x, one per power of v, of a
        positive multiple of this element at w = x^q - 1 > 0, x > 1, v >= 0."""
        powers = sorted({w for _, _, w in self.terms}, reverse=True)
        total = _Laurent({})
        for j in range(powers[0], powers[-1] - 1, -1):  # Horner in w, times w^-k
            total = total * _Laurent({(q, 0, 0): 1, (0, 0, 0): -1}) + _Laurent(
                {(x, v, 0): c for (x, v, w), c in self.terms.items() if w == j}
            )
        xs = [x for x, _, _ in total.terms]
        lo, deg = min(xs), max(xs) - min(xs)
        scale = lcm(*(c.denominator for c in total.terms.values()))
        polys = [[0] * (deg + 1) for _ in range(1 + max(v for _, v, _ in total.terms))]
        for (x, v, _), c in total.terms.items():
            polys[v][deg - (x - lo)] = int(c * scale)
        return polys


def _power_sum_terms(speed, q):
    """(Q1, Q2) at r = (1, t), t = x^q, of a power-sum family as `_Laurent`
    elements, from the power-sum table, and whether they are exact.

    y = t^-p is x^-pq when pq is an integer (always for mean and norm).  Else
    y is replaced by the sandwich x^-m (1 + v/x) / (1 + v), m = floor(pq),
    times 1 + v: as v runs over [0, inf) it takes every value between
    x^-(m+1) and x^-m, so a numerator <= 0 for all x > 1, v >= 0 covers y.
    """
    alpha = Fraction(float(speed.alpha))
    p = Fraction(_power_sum_p(speed.family, float(speed.alpha)))
    n = p * q

    def poly(*exponents):
        return _Laurent(dict.fromkeys(exponents, Fraction(1)))

    if n.denominator == 1:
        a1, a2 = poly((0, 0, 0)), poly((-n.numerator, 0, 0))
    else:
        m = floor(n)
        a1, a2 = poly((0, 0, 0), (0, 1, 0)), poly((-m, 0, 0), (-m - 1, 1, 0))
    fd = _power_sum_table(alpha, p, a1, a2, poly((0, 0, 0)), poly((-q, 0, 0)))
    q1, q2, _, _ = _gradient_terms_raw(fd, poly((0, 0, 1)))
    return (q1, q2), n.denominator == 1


def power_sum_numerators(family, alpha):
    """Integer numerator lists of (Q1, Q2) at q = 1, built at this alpha."""
    terms, _ = _power_sum_terms(SpeedFunction(family, alpha), 1)
    return [term.numerator(1) for term in terms]


# --- Fraction Descartes engine ------------------------------------------------
# the reference for `certificates._certify_numerator`'s integer pieces: the
# same bisected-ray search with Fraction ends and a Fraction Horner


def fraction_nonpositive_on(p, lo, hi=None):
    """True when no coefficient of (1 + u)^n p((lo + hi u)/(1 + u)) is
    positive, lo and hi any rationals; with hi None, of p(lo + u)."""
    lo = Fraction(lo)
    d = lo.denominator if hi is None else lcm(lo.denominator, Fraction(hi).denominator)
    a = _taylor_shift([c * d**i for i, c in enumerate(p)], int(lo * d))
    if hi is not None:
        width, n = int((hi - lo) * d), len(a) - 1
        a = _taylor_shift([c * width ** (n - i) for i, c in enumerate(a)][::-1], 1)
    return all(c <= 0 for c in a)


def fraction_certify_numerator(coeffs, budget=10000):
    """None when the polynomial is <= 0 on x > 1, else the rational witness
    of the left-first bisected-ray search; SignBudgetError after `budget`
    pieces."""
    p = [Fraction(c) for c in coeffs]
    scale = lcm(*(c.denominator for c in p))
    p = [int(c * scale) for c in p]
    pieces = [(Fraction(1), None)]
    for _ in range(budget):
        if not pieces:
            return None
        lo, hi = pieces.pop()
        if fraction_nonpositive_on(p, lo, hi):
            continue
        if hi is None:
            pieces += [(2 * lo, None), (lo, 2 * lo)]
            continue
        x = (lo + hi) / 2
        if horner(p, x) > 0:
            while x - lo > x / (1 << 16):
                mid = (lo + x) / 2
                if horner(p, mid) > 0:
                    x = mid
                else:
                    lo = mid
            return x
        pieces += [(x, hi), (lo, x)]
    raise SignBudgetError(f"sign decision undecided after {budget} pieces")


# --- Sturm-chain sign engine -------------------------------------------------
# the slow reference for `certificates._certify_numerator`: Sturm root
# counting on (1, max(t_hi, Cauchy bound, 2)], probes between and at the
# isolating intervals, and the leading coefficient beyond


def _trim(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _pderiv(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _prem(num, den):
    num = list(num)
    while len(num) >= len(den):
        if num[0] == 0:
            num.pop(0)
            continue
        factor = num[0] / den[0]
        for i in range(len(den)):
            num[i] -= factor * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def _sturm_chain(p):
    chain = [list(p)]
    d = _trim(_pderiv(p))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            rem = _prem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _variations(chain, x):
    signs = [v for v in (horner(p, x) for p in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _roots_in(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    return _variations(chain, a) - _variations(chain, b)


def _isolate_roots(chain, a, b, count):
    out = []
    stack = [(a, b, count)]
    guard = 0
    while stack:
        lo, hi, c = stack.pop()
        guard += 1
        if guard > 10000:
            raise RuntimeError("root isolation budget exceeded")
        if c == 0:
            continue
        if c == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        cl = _roots_in(chain, lo, mid)
        stack.append((mid, hi, c - cl))
        stack.append((lo, mid, cl))
    return sorted(out)


def _cauchy_bound(p):
    lead = p[0]
    return 1 + max(abs(c / lead) for c in p)


def _shift_nonpositive(p):
    """True when p(1 + u), p given by descending coefficients, has no positive
    coefficient: then p <= 0 on the whole ray x > 1."""
    a = list(p)
    n = len(a) - 1
    for i in range(n):
        for j in range(1, n + 1 - i):
            a[j] += a[j - 1]
    return all(c <= 0 for c in a)


def sturm_certify_numerator(coeffs, t_hi):
    """Exact verdict for 'polynomial <= 0 on (1, t_hi] and on the tail'.

    Returns None when both parts hold, else a rational witness point with
    positive value near the first sign change in (1, hi], hi = max(t_hi,
    Cauchy bound, 2).  Beyond the Cauchy bound p has the sign of its leading
    coefficient, so a failing tail already shows as p(hi) > 0.

    Soundness: every gap between isolating intervals is root-free, so its
    midpoint decides its sign; an isolating interval holds exactly one
    distinct root, so values <= 0 at both of its endpoints force values <= 0
    throughout (a positive excursion would need two crossings).
    """
    p = _trim([Fraction(c) for c in coeffs])
    one = Fraction(1)
    if _shift_nonpositive(p):  # what the Sturm count below concludes, sooner
        return None
    chain = _sturm_chain(p)
    bound = _cauchy_bound(p)
    hi = max(Fraction(t_hi), bound, Fraction(2))
    count = _roots_in(chain, one, hi)
    intervals = _isolate_roots(chain, one, hi, count) if count else []
    edges = [one]
    for a, b in intervals:
        edges.extend((a, b))
    edges.append(hi)
    probes = [(one, one)]
    for a, b in zip(edges, edges[1:]):
        if b > a:
            probes.append((a, (a + b) / 2))
        probes.append((a, b))
    seen = set()
    for left, x in probes:
        if x in seen:
            continue
        seen.add(x)
        if horner(p, x) > 0:
            # bisect toward the left edge for a witness near the sign change,
            # staying inside the open region t > 1
            lo = left
            for _ in range(60):
                if x - lo <= x / (1 << 16):
                    break
                mid = (lo + x) / 2
                if horner(p, mid) > 0:
                    x = mid
                else:
                    lo = mid
            if x > one:
                return x
            for k in range(40, 0, -1):  # positive at the left endpoint itself
                cand = one + (hi - one) / (1 << k)
                if horner(p, cand) > 0:
                    return cand
            raise RuntimeError("positive endpoint without interior witness")
    return None
