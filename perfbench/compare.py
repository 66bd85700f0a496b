"""Paired comparison of a parent tree against a change, on one benchmark.

    python3 perfbench/compare.py --parent DIR --change DIR
        [--workload NAME ...] [--seed N]

DIR is the root of a pinchflow checkout (holding src/pinchflow).  Both sides
run this directory's run.py, so the benchmark code and settings are
identical, and each run lasts BENCHMARK.json's run_seconds.  There are ten
pairs; pair i runs both sides with seed N + i, the parent first in even pairs
and the change first in odd ones.  Each workload gets one row: for every
end-to-end metric and component, both medians, the change's wins and the
verdict of summary.paired_verdict, then each side's failed ratio.  Bounds
come from BENCHMARK.json; a component takes the bound of iter_cal.
"""

import argparse
import json
import os
import subprocess
import sys

import summary
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10


def run_side(tree, workload, seed, seconds):
    """Metric values, attempted and failed counts of one untraced run."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, ".bench_out", f"result-{workload}-trace0.json")) as fh:
        detail = json.load(fh)
    values = {k: v["value"] for k, v in last["metrics"].items()}
    for comp, d in detail["result"]["components"].items():
        values[comp] = d["median"]
    return values, last["attempted"], last["failed"]


def compare_workload(trees, workload, seconds, seed, bounds):
    runs = {side: [] for side in trees}
    counts = {side: [0, 0] for side in trees}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, attempted, failed = run_side(
                trees[side], workload, seed + i, seconds
            )
            runs[side].append(values)
            counts[side][0] += attempted
            counts[side][1] += failed
    metrics = {}
    for name in runs["parent"][0]:
        bound = bounds.get(name, bounds["iter_cal"])
        metrics[name] = summary.paired_verdict(
            [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], bound
        )
        metrics[name]["bound"] = bound
    return {
        "workload": workload,
        "metrics": metrics,
        "failed_ratio": {side: f / a for side, (a, f) in counts.items()},
    }


def format_row(row):
    cells = [
        f"{name} {m['verdict']} ({m['parent_median']:.4g} -> {m['change_median']:.4g},"
        f" wins {m['wins']}/{m['pairs']})"
        for name, m in row["metrics"].items()
    ]
    fr = row["failed_ratio"]
    cells.append(f"failed parent {fr['parent']:.3g} change {fr['change']:.3g}")
    return f"{row['workload']}: " + "; ".join(cells)


def main(argv=None):
    p = argparse.ArgumentParser(description="paired parent/change comparison")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", action="append", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent)}
    trees["change"] = os.path.abspath(args.change)
    rows = []
    for workload in args.workload or workloads.NAMES:
        row = compare_workload(trees, workload, seconds, args.seed, bounds)
        rows.append(row)
        print(format_row(row), flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
