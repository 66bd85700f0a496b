"""Sign certification of the gradient terms over the radii cone, and
threshold search in the homogeneity exponent.

Two certification engines:

* gauss_power: exact.  The closed-form denominators are positive on t > 1
  (for alpha <= 2 everywhere; isolated poles otherwise), so the sign is the
  sign of the polynomial numerators.  Any float alpha is a dyadic rational,
  hence the numerator coefficients are exact Fractions; Sturm root counting
  plus a leading-coefficient test beyond the Cauchy bound certifies the whole
  ray t > 1.

* other families: adaptive interval-arithmetic subdivision (mpmath.iv) of the
  raw gradient-term expressions on (1, t_max], which are pole-free there and
  sign-equivalent to the normalized values.  The tail t > t_max is sampled
  only, and the overall verdict is downgraded to nonpositive_sampled.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .errors import BracketError, DomainError
from .pinching import (
    _gauss_closed,
    _gradient_terms_raw,
    closed_numerators,
    gradient_terms_general_arrays,
    horner,
)
from .speeds import SpeedFunction, _f_derivs, interval_ops

SUM_POWER_ALPHA_CAP = 100  # unbounded-alpha claims are verified up to here


@dataclass(frozen=True)
class QReport:
    family: str
    alpha: float
    t_lo: float
    t_hi: float
    q1_max: object  # float, or exact Fraction bound
    q2_max: object
    verdict: str  # nonpositive_certified | nonpositive_sampled | violated | inconclusive
    witness_t: Optional[float] = None
    witness_q: Optional[float] = None
    method: str = ""
    tail: str = "none"  # certified | sampled | none

    def __post_init__(self):
        if self.verdict == "violated" and (self.witness_t is None or not self.witness_q > 0):
            raise ValueError("violated verdict requires a positive witness")

    def passed(self):
        return self.verdict in ("nonpositive_certified", "nonpositive_sampled")

    def to_json_dict(self):
        return {
            "family": self.family,
            "alpha": self.alpha,
            "region": {"t_lo": self.t_lo, "t_hi": self.t_hi},
            "q1_max": self.q1_max,
            "q2_max": self.q2_max,
            "verdict": self.verdict,
            "witness": None
            if self.witness_t is None
            else {"t": self.witness_t, "q": self.witness_q},
            "method": self.method,
            "tail": self.tail,
        }


@dataclass(frozen=True)
class ThresholdResult:
    family: str
    alpha_lo: float
    alpha_hi: float
    tol: float
    t_max: float
    probes: tuple = field(default_factory=tuple)  # (alpha, verdict, method) history

    @property
    def width(self):
        return self.alpha_hi - self.alpha_lo

    def to_json_dict(self):
        return {
            "family": self.family,
            "bracket": [self.alpha_lo, self.alpha_hi],
            "width": self.width,
            "tol": self.tol,
            "t_max": self.t_max,
            "probes": [
                {"alpha": a, "verdict": v, "method": m} for a, v, m in self.probes
            ],
        }


def _as_speed(speed, alpha=None):
    if isinstance(speed, SpeedFunction):
        if alpha is None or alpha == speed.alpha:
            return speed
        return SpeedFunction(speed.family, alpha)
    return SpeedFunction(speed, alpha)


def log_ratio_grid(t_max=1e6, n=4096):
    """Log-spaced ratio grid on (1, t_max]: first node t_max^(1/n), last t_max."""
    return np.geomspace(t_max ** (1.0 / n), t_max, n)


def sign_scan(speed, alpha=None, ratio_grid=None) -> QReport:
    """Pointwise sign check of (Q1, Q2) at r = (1, t) over a finite grid."""
    speed = _as_speed(speed, alpha)
    t = log_ratio_grid() if ratio_grid is None else np.asarray(ratio_grid, dtype=float)
    if t.size == 0 or not np.all(np.isfinite(t)) or not np.all(t > 1):
        raise DomainError("ratio grid must be finite and inside (1, inf)")
    with np.errstate(all="ignore"):
        q1, q2 = gradient_terms_general_arrays(speed, t)
    # nan can only arise at normalization poles (alpha > 2); skip those nodes
    bad = ~np.isfinite(q1) | ~np.isfinite(q2)
    q1w = np.where(bad, -np.inf, q1)
    q2w = np.where(bad, -np.inf, q2)
    pos = np.maximum(q1w, q2w) > 0
    witness_t = witness_q = None
    verdict = "nonpositive_sampled"
    if pos.any():
        i = int(np.argmax(pos))
        witness_t = float(t[i])
        witness_q = float(max(q1w[i], q2w[i]))
        verdict = "violated"
    return QReport(
        family=speed.family,
        alpha=float(speed.alpha),
        t_lo=float(t[0]),
        t_hi=float(t[-1]),
        q1_max=float(q1w.max()),
        q2_max=float(q2w.max()),
        verdict=verdict,
        witness_t=witness_t,
        witness_q=witness_q,
        method=f"scan({t.size} nodes)",
        tail="none",
    )


# ---------------------------------------------------------------------------
# exact polynomial machinery (descending coefficient lists of Fractions)

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


def _certify_numerator(coeffs, t_hi):
    """Exact verdict for 'polynomial <= 0 on (1, t_hi] and on the tail'.

    Returns (region_ok, tail_ok, witness_t) where witness_t is a rational
    point with positive value when either part fails.

    Soundness: every gap between isolating intervals is root-free, so its
    midpoint decides its sign; an isolating interval holds exactly one
    distinct root, so values <= 0 at both of its endpoints force values <= 0
    throughout (a positive excursion would need two crossings).
    """
    p = _trim(list(coeffs))
    one = Fraction(1)
    if not p:
        return True, True, None
    if len(p) == 1:
        ok = p[0] <= 0
        return ok, ok, (None if ok else 2 * t_hi)
    tail_ok = p[0] < 0
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
                return False, tail_ok, x
            for k in range(40, 0, -1):  # positive at the left endpoint itself
                cand = one + (hi - one) / (1 << k)
                if horner(p, cand) > 0:
                    return False, tail_ok, cand
            raise RuntimeError("positive endpoint without interior witness")
    witness = None if tail_ok else 2 * max(hi, bound)
    return True, tail_ok, witness


def _certify_gauss(speed, t_max):
    alpha = float(speed.alpha)
    n1, n2 = closed_numerators(alpha)
    t_hi = Fraction(t_max)
    found = []  # (witness_t, index of the failing Q_i)
    for which, coeffs in enumerate((n1, n2)):
        region_ok, tail_ok, witness = _certify_numerator(coeffs, t_hi)
        if not (region_ok and tail_ok):
            found.append((witness, which))
    lead_note = f"leading coeffs: q1 {float(n1[0]):.6g}, q2 {float(n2[0]):.6g}"
    report = partial(
        QReport, family=speed.family, alpha=alpha, t_lo=1.0, t_hi=float(t_max)
    )
    if not found:
        return report(
            q1_max=Fraction(0),
            q2_max=Fraction(0),
            verdict="nonpositive_certified",
            method=f"sturm_exact(numerators, cauchy tail); {lead_note}",
            tail="certified",
        )
    witness_t, which = min(found, key=lambda x: x[0])
    # the sign is exact (positive numerator over positive denominator), and
    # 150-bit evaluation keeps the float conversion from rounding it to 0
    import mpmath

    def mpf(c):
        return mpmath.mpf(c.numerator) / c.denominator

    with mpmath.workprec(150):
        witness_q = float(_gauss_closed(alpha, mpf(witness_t), mpf)[which])
    scan = sign_scan(speed, ratio_grid=log_ratio_grid(max(t_max, float(witness_t) * 2)))
    return report(
        q1_max=scan.q1_max,
        q2_max=scan.q2_max,
        verdict="violated",
        witness_t=float(witness_t),
        witness_q=witness_q,
        method=f"sturm_exact(numerators, cauchy tail); maxima sampled; {lead_note}",
        tail="certified",
    )


# ---------------------------------------------------------------------------
# interval certification for the non-gauss families

def _iv_q_upper(speed, w_lo, w_hi, iv):
    """Interval upper bounds of the raw (Q1, Q2) on t in [1 + w_lo, 1 + w_hi].

    Division by w at the left edge produces directed enclosures with an
    infinite lower end; the upper bounds stay finite, which is all the
    certificate needs.
    """
    ops = interval_ops(iv)
    one = iv.mpf(1)
    t = one + iv.mpf([w_lo, w_hi])
    fd = _f_derivs(speed.family, float(speed.alpha), one, t, ops)
    q1, q2, _, _ = _gradient_terms_raw(fd, t - one)
    return float(q1.b), float(q2.b)


def _interval_certify(speed, t_max, depth_limit):
    import mpmath

    iv = mpmath.iv
    old_prec = iv.prec
    iv.prec = 80
    try:
        w_top = t_max - 1.0
        pieces = [(0.0, 1e-6, 0)]
        w = 1e-6
        while w < w_top:
            nxt = min(w * 4, w_top)
            pieces.append((w, nxt, 0))
            w = nxt
        stack = list(reversed(pieces))
        processed = 0
        while stack:
            lo, hi, depth = stack.pop()
            processed += 1
            if processed > 200000:
                return False, "piece budget exceeded"
            ub1, ub2 = _iv_q_upper(speed, lo, hi, iv)
            if ub1 <= 0 and ub2 <= 0:
                continue
            if depth >= depth_limit:
                return False, f"depth limit {depth_limit} at w in [{lo:.3e}, {hi:.3e}]"
            if lo == 0.0:
                mid = hi / 8
            else:
                mid = (lo * hi) ** 0.5
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
        return True, f"{processed} pieces"
    finally:
        iv.prec = old_prec


def certify_nonpositive(speed, alpha=None, t_max=1e6, depth_limit=60) -> QReport:
    """Rigorous-where-cheap sign verdict for (Q1, Q2) on the ray t > 1.

    gauss_power gets an exact certificate with certified tail; other families
    get an interval certificate on (1, t_max] with a sampled tail (verdict
    nonpositive_sampled).  Depth/budget exhaustion yields 'inconclusive',
    which is distinct from 'violated'.
    """
    speed = _as_speed(speed, alpha)
    if not t_max >= 2:
        raise DomainError(f"t_max must be >= 2, got {t_max}")
    if speed.family == "sum_power" and float(speed.alpha) > SUM_POWER_ALPHA_CAP:
        raise DomainError(
            f"sum_power certification is capped at alpha <= {SUM_POWER_ALPHA_CAP}"
        )
    if speed.family == "gauss_power":
        return _certify_gauss(speed, t_max)

    # cheap violation pre-pass; a float witness already settles the verdict
    scan = sign_scan(speed, ratio_grid=log_ratio_grid(t_max, 8192))
    cap_note = (
        f" (alpha cap {SUM_POWER_ALPHA_CAP})" if speed.family == "sum_power" else ""
    )
    report = partial(
        QReport,
        family=speed.family,
        alpha=float(speed.alpha),
        t_lo=1.0,
        t_hi=float(t_max),
    )
    if scan.verdict == "violated":
        return report(
            q1_max=scan.q1_max,
            q2_max=scan.q2_max,
            verdict="violated",
            witness_t=scan.witness_t,
            witness_q=scan.witness_q,
            method=f"scan pre-pass{cap_note}",
            tail="none",
        )
    ok, note = _interval_certify(speed, t_max, depth_limit)
    tail_grid = np.geomspace(t_max, 100 * t_max, 256)[1:]
    tail_scan = sign_scan(speed, ratio_grid=tail_grid)
    if ok and tail_scan.verdict == "violated":
        return report(
            q1_max=max(scan.q1_max, tail_scan.q1_max),
            q2_max=max(scan.q2_max, tail_scan.q2_max),
            verdict="violated",
            witness_t=tail_scan.witness_t,
            witness_q=tail_scan.witness_q,
            method=f"interval(raw) on region, violation in sampled tail{cap_note}",
            tail="sampled",
        )
    if ok:
        return report(
            q1_max=scan.q1_max,
            q2_max=scan.q2_max,
            verdict="nonpositive_sampled",
            method=f"interval(raw) certificate on (1, t_max], {note}; "
            f"maxima sampled (normalized); tail sampled{cap_note}",
            tail="sampled",
        )
    return report(
        q1_max=scan.q1_max,
        q2_max=scan.q2_max,
        verdict="inconclusive",
        method=f"interval(raw) gave up: {note}{cap_note}",
        tail="none",
    )


def find_threshold(family, alpha_range, tol, t_max=1e6) -> ThresholdResult:
    """Bisection in alpha for the largest certifiable exponent.

    A probe 'passes' when certify_nonpositive returns a nonpositive verdict
    and 'fails' on violation; inconclusive certificates fall back to a dense
    sign scan (recorded in the probe history).  The range must bracket:
    passing at the low end, failing at the high end.
    """
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0 < lo < hi):
        raise DomainError(f"bad alpha range ({lo}, {hi})")
    if not tol > 0:
        raise DomainError("tol must be positive")
    probes = []

    def decide(a):
        rep = certify_nonpositive(family, a, t_max=t_max)
        method = rep.method
        if rep.verdict == "inconclusive":
            dense = np.union1d(
                log_ratio_grid(t_max, 1 << 17),
                1.0 + np.geomspace(1e-6, t_max - 1.0, 1 << 15),
            )
            rep = sign_scan(SpeedFunction(family, a), ratio_grid=dense)
            method += " + scan fallback"
        probes.append((a, rep.verdict, method))
        return rep.passed()

    lo_pass = decide(lo)
    hi_pass = decide(hi)
    if not lo_pass or hi_pass:
        raise BracketError(
            f"range [{lo}, {hi}] does not bracket a verdict change",
            lo_verdict=probes[0][1],
            hi_verdict=probes[1][1],
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if decide(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        family=family,
        alpha_lo=lo,
        alpha_hi=hi,
        tol=float(tol),
        t_max=float(t_max),
        probes=tuple(probes),
    )
