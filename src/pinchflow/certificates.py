"""Sign certification of the gradient terms over the radii cone, and
threshold search in the homogeneity exponent.

One exact route for every family: Q1 and Q2 at r = (1, t) are positive
multiples of polynomial numerators with rational coefficients (any float
alpha is a dyadic rational), the closed gauss_power numerators or those of
the power-sum table run over `_Laurent` (`_power_sum_terms`).  mean_power
and norm_power read theirs from one table per family, built once with alpha
a formal symbol (`_alpha_table`, at most cubic in alpha), and each probe
substitutes its exponent; sum_power, whose t^-alpha moves with alpha,
builds them at each exponent.  One exact test decides them all:
`_nonpositive_on`, Descartes' rule of signs on a ray or an interval.  A
numerator in x alone goes to `_certify_numerator`, which runs that test on
pieces of the ray, bisected left first, and returns the certificate or a
rational witness; the pieces are integer ends over a power of two, so the
search runs in Python ints.  A sandwich numerator in (x, v) must pass
the test on the whole ray, doubling q up to SANDWICH_Q_MAX; after that a
sign scan finds a float witness or the verdict is inconclusive.

An exact report's q1_max and q2_max say what the engine decided for each
side: Fraction(0) for a certified numerator, None for one with a witness.
No float code runs for an exact verdict but the witness's 150-bit value;
only a `scan(...)` verdict, sum_power's fallback, reports sampled maxima.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isfinite, lcm
from typing import NamedTuple, Optional

import numpy as np

from .errors import BracketError, DomainError, SignBudgetError
from .pinching import (
    _closed_numerator_ints,
    _closed_q,
    _gradient_terms_raw,
    _power_sum_p,
    _power_sum_table,
    gradient_terms_general_arrays,
)
from .speeds import SpeedFunction

SUM_POWER_ALPHA_CAP = 100  # unbounded-alpha claims are verified up to here
SANDWICH_Q_MAX = 64  # largest substitution t = x^q tried for the sandwich


@dataclass(frozen=True)
class QReport:
    family: str
    alpha: float
    t_lo: float
    t_hi: float
    q1_max: object  # exact Fraction(0) bound, None for a side with an exact
    # witness, or the sampled float max of a scan(...) verdict
    q2_max: object
    verdict: str  # nonpositive_certified | nonpositive_sampled | violated | inconclusive
    witness_t: Optional[float] = None
    witness_q: Optional[float] = None
    method: str = ""
    tail: str = "none"  # certified | none

    def __post_init__(self):
        if self.verdict == "violated" and (self.witness_t is None or not self.witness_q > 0):
            raise ValueError("violated verdict requires a positive witness")

    def passed(self):
        return self.verdict in ("nonpositive_certified", "nonpositive_sampled")


class Probe(NamedTuple):
    alpha: float
    verdict: str
    method: str


@dataclass(frozen=True)
class ThresholdResult:
    family: str
    alpha_lo: float
    alpha_hi: float
    tol: float
    t_max: float
    probes: tuple = field(default_factory=tuple)  # Probe history, in probe order

    @property
    def width(self):
        return self.alpha_hi - self.alpha_lo


def log_ratio_grid(t_max=1e6, n=4096):
    """Log-spaced ratio grid on (1, t_max]: first node t_max^(1/n), last t_max."""
    return np.geomspace(t_max ** (1.0 / n), t_max, n)


def sign_scan(speed, ratio_grid=None) -> QReport:
    """Pointwise sign check of (Q1, Q2) at r = (1, t) over a finite grid."""
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
# exact sign decisions (descending coefficient lists, Descartes' rule)

_PIECE_BUDGET = 10000  # pieces `_certify_numerator` tests before giving up


def _taylor_shift(p, a):
    """Descending coefficients of p(a + u), p given by descending coefficients."""
    p = list(p)
    n = len(p) - 1
    for i in range(n):
        for j in range(1, n + 1 - i):
            p[j] += a * p[j - 1]
    return p


def _nonpositive_on(p, lo, hi=None, k=0):
    """True when no coefficient of (1 + u)^n p((a + b u)/(1 + u)), n the
    length of p less one and [a, b] = [lo, hi]/2^k, is positive: then p <= 0
    on [a, b], ends included.  p has integer coefficients and the ends are
    integers over the shared 2^k.  With hi None the test is on p(a + u), for
    the ray x >= a.  Descartes' rule on an interval (Collins & Akritas,
    SYMSAC 1976); False decides nothing.  p becomes 2^(kn) p(y/2^k), so
    every shift stays in Python ints.
    """
    a = _taylor_shift([c << (k * i) for i, c in enumerate(p)], lo)
    if hi is not None:  # p(a + (b - a) s) at s = u/(1 + u), times (1 + u)^n
        width, n = hi - lo, len(a) - 1
        a = _taylor_shift([c * width ** (n - i) for i, c in enumerate(a)][::-1], 1)
    return all(c <= 0 for c in a)


def _positive_at(p, x, k):
    """Whether p > 0 at x/2^k, p with integer coefficients: the homogeneous
    Horner sum of c_i x^(n-i) 2^(ki) is 2^(kn) p(x/2^k)."""
    acc = 0
    for i, c in enumerate(p):
        acc = acc * x + (c << (k * i))
    return acc > 0


def _certify_numerator(p):
    """Exact verdict for 'p <= 0 on the ray x > 1', p a list of Python ints,
    descending: None when it holds, else a rational witness x > 1 with a
    positive value.

    Pieces of (1, inf) go left first, each as integer ends over its own 2^k,
    so no piece and no bisection step builds a Fraction.  A piece
    `_nonpositive_on` passes is done; a piece with a positive midpoint
    (`_positive_at`) gives the witness, bisected toward the piece's left end
    to a relative 2^-16; any other piece is halved.  The ray (lo, inf) splits
    at 2 lo: once lo is past the real part of every root, p(lo + u) has only
    coefficients of the leading one's sign.

    Trade-off: a tangency (a root of even multiplicity with p <= 0 around it)
    inside a piece fails the test, so one at a point that is not dyadic halves
    pieces until the budget raises SignBudgetError.  No family numerator has one:
    N2's double root comes only at the irrational exponent alpha*.
    """
    pieces = [(1, None, 0)]  # a stack, the leftmost piece on top: [lo, hi]/2^k
    for _ in range(_PIECE_BUDGET):
        if not pieces:
            return None
        lo, hi, k = pieces.pop()
        if _nonpositive_on(p, lo, hi, k):
            continue
        if hi is None:
            pieces += [(2 * lo, None, k), (lo, 2 * lo, k)]
            continue
        x, lo, hi, k = lo + hi, 2 * lo, 2 * hi, k + 1  # the midpoint
        if _positive_at(p, x, k):
            # everything left of lo is certified: bisect toward the sign change
            while (x - lo) << 16 > x:
                mid, lo, x, k = lo + x, 2 * lo, 2 * x, k + 1
                if _positive_at(p, mid, k):
                    x = mid
                else:
                    lo = mid
            return Fraction(x, 1 << k)
        pieces += [(x, hi, k), (lo, x, k)]
    raise SignBudgetError(f"sign decision undecided after {_PIECE_BUDGET} pieces")


# ---------------------------------------------------------------------------
# exact numerators of the power-sum families

class _Laurent:
    """A Laurent polynomial in (x, v, w) whose coefficients are polynomials in
    the exponent alpha, with Fraction coefficients; a term's exponents are
    (x, v, w, a), a the power of alpha.  + - * and division by a monomial, all
    `_power_sum_table` and `_gradient_terms_raw` use.  The formal alpha
    `_ALPHA` compares unequal to every number, so the table takes its
    alpha != p side."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}  # exponents -> c

    def __add__(self, other):
        if not isinstance(other, _Laurent):
            other = _Laurent({(0, 0, 0, 0): other})
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
        for (x, v, w, a), c in self.terms.items():
            for (y, u, z, b), d in other.terms.items():
                e = (x + y, v + u, w + z, a + b)
                out[e] = out.get(e, 0) + c * d
        return _Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, monomial):
        ((y, u, z, b), d), = monomial.terms.items()
        return _Laurent(
            {(x - y, v - u, w - z, a - b): c / d for (x, v, w, a), c in self.terms.items()}
        )

    def at(self, alpha):
        """(D, element): a positive integer D and D times this element at the
        exponent alpha, with integer coefficients.  With alpha = n/d and the
        coefficients over one denominator L, D = L d^deg, deg the top power
        of alpha; terms that vanish at alpha drop."""
        alpha = Fraction(alpha)
        den = lcm(*(c.denominator for c in self.terms.values()))
        top = max(a for _, _, _, a in self.terms)
        n, d = alpha.numerator, alpha.denominator
        powers = [n**a * d ** (top - a) for a in range(top + 1)]
        out = {}
        for (x, v, w, a), c in self.terms.items():
            e = (x, v, w, 0)
            out[e] = out.get(e, 0) + c.numerator * (den // c.denominator) * powers[a]
        return den * d**top, _Laurent(out)

    def numerator(self, q, alpha):
        """Integer coefficient lists, descending in x, one per power of v, of a
        positive multiple of this element at the exponent alpha and at
        w = x^q - 1 > 0, x > 1, v >= 0.  alpha goes in first, so the lists
        are those of an element built at that alpha: its rational
        coefficients times the lcm of their denominators, which is the
        integer total divided by gcd(D, total)."""
        scale, element = self.at(alpha)
        terms = element.terms
        powers = sorted({w for _, _, w, _ in terms}, reverse=True)
        total = _Laurent({})
        for j in range(powers[0], powers[-1] - 1, -1):  # Horner in w, times w^-k
            total = total * _Laurent({(q, 0, 0, 0): 1, (0, 0, 0, 0): -1}) + _Laurent(
                {(x, v, 0, 0): c for (x, v, w, _), c in terms.items() if w == j}
            )
        xs = [x for x, _, _, _ in total.terms]
        lo, deg = min(xs), max(xs) - min(xs)
        common = gcd(scale, *total.terms.values())
        polys = [[0] * (deg + 1) for _ in range(1 + max(v for _, v, _, _ in total.terms))]
        for (x, v, _, _), c in total.terms.items():
            polys[v][deg - (x - lo)] = c // common
        return polys


_ALPHA = _Laurent({(0, 0, 0, 1): Fraction(1)})  # the exponent as a formal symbol


def _power_sum_build(family, alpha, q):
    """(Q1, Q2) at r = (1, t), t = x^q, of a power-sum family as `_Laurent`
    elements, from the power-sum table, and whether they are exact; alpha is
    a Fraction, or `_ALPHA` for mean and norm, whose p does not move with it.

    y = t^-p is x^-pq when pq is an integer (always for mean and norm).  Else
    y is replaced by the sandwich x^-m (1 + v/x) / (1 + v), m = floor(pq),
    times 1 + v: as v runs over [0, inf) it takes every value between
    x^-(m+1) and x^-m, so a numerator <= 0 for all x > 1, v >= 0 covers y.
    """
    p = Fraction(_power_sum_p(family, alpha))
    n = p * q

    def poly(*exponents):
        return _Laurent(dict.fromkeys(exponents, Fraction(1)))

    if n.denominator == 1:
        a1, a2 = poly((0, 0, 0, 0)), poly((-n.numerator, 0, 0, 0))
    else:
        m = floor(n)
        a1, a2 = poly((0, 0, 0, 0), (0, 1, 0, 0)), poly((-m, 0, 0, 0), (-m - 1, 1, 0, 0))
    fd = _power_sum_table(alpha, p, a1, a2, poly((0, 0, 0, 0)), poly((-q, 0, 0, 0)))
    q1, q2, _, _ = _gradient_terms_raw(fd, poly((0, 0, 1, 0)))
    return (q1, q2), n.denominator == 1


@lru_cache(maxsize=4)
def _alpha_table(family, at_p):
    """(Q1, Q2) of mean_power or norm_power at q = 1, built once as elements
    in alpha (at most cubic).  The exponent alpha == p (mean 1, norm 2) drops
    the table's S factor, so it gets a table of its own, built at alpha = p."""
    alpha = Fraction(_power_sum_p(family, None)) if at_p else _ALPHA
    return _power_sum_build(family, alpha, 1)[0]


def _power_sum_terms(family, alpha, q):
    """`_power_sum_build` at the Fraction alpha: mean and norm read their
    table in alpha, sum_power, whose pq moves with alpha, builds anew."""
    if family == "sum_power":
        return _power_sum_build(family, alpha, q)
    return _alpha_table(family, alpha == _power_sum_p(family, alpha)), True


# ---------------------------------------------------------------------------
# the verdict

def _q_at(speed, t):
    """(Q1, Q2) at the rational ratio t at 150 bits: the sign is exact, and
    the precision keeps the float conversion from rounding the value to 0."""
    import mpmath

    def mpf(c):
        return mpmath.mpf(c.numerator) / c.denominator

    with mpmath.workprec(150):
        return [float(q) for q in _closed_q(speed.family, float(speed.alpha), mpf(t), mpf)]


def certify_nonpositive(family, alpha, t_max=1e6) -> QReport:
    """Exact sign verdict for (Q1, Q2) on the whole ray t > 1, tail included;
    a sum_power exponent whose sandwich numerators keep a positive
    coefficient up to q = SANDWICH_Q_MAX gets a sign scan on (1, t_max]
    instead: violated with a float witness, or inconclusive."""
    speed = SpeedFunction(family, alpha)
    if not (t_max >= 2 and isfinite(t_max)):
        raise DomainError(f"t_max must be finite and >= 2, got {t_max}")
    if speed.family == "sum_power" and float(speed.alpha) > SUM_POWER_ALPHA_CAP:
        raise DomainError(
            f"sum_power certification is capped at alpha <= {SUM_POWER_ALPHA_CAP}"
        )
    step, q = "descartes_exact(numerators, bisected ray)", 1
    if speed.family == "gauss_power":
        scale, n1, n2 = _closed_numerator_ints(float(speed.alpha))
        numerators = [[n1], [n2]]
        note = f"leading coeffs: q1 {n1[0] / scale:.6g}, q2 {n2[0] / scale:.6g}"
    else:
        dyadic = Fraction(float(speed.alpha))
        while True:
            terms, exact = _power_sum_terms(speed.family, dyadic, q)
            numerators = [term.numerator(q, dyadic) for term in terms]
            if exact:
                break
            if all(_nonpositive_on(p, 1) for n in numerators for p in n):
                step = "shift_exact(sandwich numerators in x, v)"
                break
            if q == SANDWICH_Q_MAX:
                scan = sign_scan(speed, ratio_grid=log_ratio_grid(t_max, 8192))
                verdict = "violated" if scan.verdict == "violated" else "inconclusive"
                method = f"{scan.method}; sandwich uncertified up to q={q}"
                return replace(scan, verdict=verdict, method=method, t_lo=1.0, t_hi=float(t_max))
            q *= 2
        note = f"q={q}, degree {max(len(n[0]) for n in numerators) - 1}"
    # a witness x = t^(1/q) per side, None where certified; sandwich
    # numerators in (x, v) passed above
    witnesses = [_certify_numerator(n[0]) if len(n) == 1 else None for n in numerators]
    found = [(w, which) for which, w in enumerate(witnesses) if w is not None]
    witness_t = witness_q = None
    if found:
        witness_x, which = min(found)
        witness_q = _q_at(speed, witness_x**q)[which]
        witness_t = float(witness_x**q)
    q1_max, q2_max = (Fraction(0) if w is None else None for w in witnesses)
    return QReport(
        family=speed.family,
        alpha=float(speed.alpha),
        t_lo=1.0,
        t_hi=float(t_max),
        q1_max=q1_max,
        q2_max=q2_max,
        verdict="violated" if found else "nonpositive_certified",
        witness_t=witness_t,
        witness_q=witness_q,
        method=f"{step}; {note}",
        tail="certified",
    )


def find_threshold(family, alpha_range, tol=0.05, t_max=1e6) -> ThresholdResult:
    """Bisection in alpha for the largest certifiable exponent.

    A probe 'passes' when certify_nonpositive returns a nonpositive verdict;
    a violated or inconclusive probe does not pass.  The range must bracket:
    passing at the low end, not passing at the high end.
    """
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0 < lo < hi):
        raise DomainError(f"bad alpha range ({lo}, {hi})")
    if not tol > 0:
        raise DomainError("tol must be positive")
    probes = []

    def decide(a):
        rep = certify_nonpositive(family, a, t_max=t_max)
        probes.append(Probe(a, rep.verdict, rep.method))
        return rep.passed()

    lo_pass = decide(lo)
    hi_pass = decide(hi)
    if not lo_pass or hi_pass:
        raise BracketError(
            f"range [{lo}, {hi}] does not bracket a verdict change",
            lo_verdict=probes[0].verdict,
            hi_verdict=probes[1].verdict,
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
