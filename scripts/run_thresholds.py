#!/usr/bin/env python3
"""Map the admissible exponent range of each speed family.

For every family this scans a ladder of exponents, certifies the sign of
the gradient terms where possible, and bisects for the threshold where the
certificate flips.  Output is a table on stdout plus a JSON report.

Usage: python scripts/run_thresholds.py [--out results/thresholds]
"""

import argparse
import os
import time

from pinchflow import certify_nonpositive, find_threshold
from pinchflow.errors import BracketError
from pinchflow.reports import write_report

# family -> (scan exponents, bisection bracket, bisection tol)
PLAN = {
    "gauss_power": ([0.4, 0.5, 1.0, 1.5, 2.0, 2.1], (1.5, 3.0), 0.01),
    "mean_power": ([1.0, 2.0, 4.0, 5.0, 5.5, 6.0], (4.0, 6.0), 0.05),
    "norm_power": ([1.0, 4.0, 8.0, 8.5, 9.0], (7.0, 9.0), 0.05),
    # sum_power is certified at every probed exponent up to the cap, so there
    # is no upper threshold to bisect for
    "sum_power": ([1.5, 3.0, 10.0, 50.0, 100.0], None, None),
}


def scan_family(family, alphas, t_max):
    rows = []
    for alpha in alphas:
        rep = certify_nonpositive(family, alpha=alpha, t_max=t_max)
        mark = {"nonpositive_certified": "ok", "violated": "VIOLATED"}.get(
            rep.verdict, rep.verdict
        )
        wit = f"  witness t={rep.witness_t:.6g}" if rep.witness_t is not None else ""
        print(f"  alpha={alpha:<6g} {mark:<22s} tail={rep.tail}{wit}")
        rows.append(rep)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/thresholds")
    ap.add_argument("--t-max", dest="t_max", type=float, default=1e6)
    args = ap.parse_args()

    report = {}
    for family, (alphas, bracket, tol) in PLAN.items():
        print(f"{family}:")
        t0 = time.perf_counter()
        scan = scan_family(family, alphas, args.t_max)
        entry = {"scan": scan}
        if bracket is not None:
            try:
                res = find_threshold(family, bracket, tol, t_max=args.t_max)
                print(
                    f"  threshold in [{res.alpha_lo:.6g}, {res.alpha_hi:.6g}]"
                    f"  (width {res.width:.3g})"
                )
                entry["threshold"] = res
            except BracketError as err:
                print(f"  threshold search failed: {err}")
                entry["threshold_error"] = str(err)
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        report[family] = entry

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "thresholds.json")
    write_report(path, report)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
