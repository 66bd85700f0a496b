"""Statistics shared by the runner and the paired comparison.

Kept free of pinchflow imports so the rules can be tested on fixed inputs.
"""

import math
import re
import statistics
from fractions import Fraction

# Standard percentiles, lowest first; the tail reported for a timing is the
# highest of these that still has at least ten samples beyond it.
PERCENTILES = ("50", "90", "95", "99", "99.9", "99.99")
MIN_BEYOND = 10

_PIECES = re.compile(r"\b(\d+) pieces\b")


def tail_percentile(samples):
    """(label, value) of the highest standard percentile with at least ten
    samples beyond it (nearest-rank), or None when there are too few."""
    n = len(samples)
    best = None
    ordered = sorted(samples)
    for label in PERCENTILES:
        rank = math.ceil(Fraction(label) * n / 100)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (label, ordered[rank - 1])
    return best


def describe(samples):
    """Median, tail percentile and sample count of a list of timings."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples) if samples else None,
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
        "n": len(samples),
    }


def parse_pieces(method):
    """Interval pieces named in a QReport.method string ("N pieces"), else 0."""
    m = _PIECES.search(method)
    return int(m.group(1)) if m else 0


def calibrated_cost(segments, cal_times):
    """Sum of each segment's seconds over the mean of the calibration times
    before and after it.  `segments` holds (seconds, k) with calibration k
    before the segment and k + 1 after it."""
    return sum(t / (0.5 * (cal_times[k] + cal_times[k + 1])) for t, k in segments)


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def paired_verdict(parent, change, bound):
    """Verdict for one lower-is-better metric over paired runs.

    `parent[i]` and `change[i]` come from the same pair.  A gain needs the
    change to win at least nine tenths of the pairs (ties count for neither)
    and a median gap wider than the parent's interquartile distance.  When
    either side's spread exceeds the bound the metric is "unresolved",
    or "better" when every change run beats every parent run.  Otherwise the change
    is a "regression" when its median is worse by more than the bound.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal-length lists of at least two runs")
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    cm = statistics.median(change)
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    row = {
        "parent_median": pm,
        "change_median": cm,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
    }
    if pm == 0 and cm == 0:
        row["verdict"] = "n/a"
        return row
    if 10 * wins >= 9 * len(parent) and pm - cm > p3 - p1:
        row["verdict"] = "gain"
    elif max(relative_spread(parent), relative_spread(change)) > bound:
        row["verdict"] = "better" if max(change) < min(parent) else "unresolved"
    elif cm > pm * (1 + bound):
        row["verdict"] = "regression"
    else:
        row["verdict"] = "unchanged"
    return row
