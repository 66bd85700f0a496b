"""Run one pinchflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pinchflow checkout: the package is imported from
`./src`, never from an installed copy.  The run sets up, then repeats the
workload's iteration until another one would overrun `--seconds` (at least
five iterations, or two rounds when traced), times five fresh set-ups
between the first rounds, checks every output, and prints a readable report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` each
round runs an untraced iteration and then a traced one, and the metrics are
the per-layer ones plus the tracing overhead.  The full result (provenance,
samples, recorded values) and the spans of traced iterations go to
`.bench_out/` in the checkout.
"""

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import summary
import tracing
import workloads

OUT_DIR = ".bench_out"
SETUP_PROBES = 5
# A timed median needs at least five iterations.  A traced round runs two
# iterations, and its per-layer figures are not gated, so two rounds do.
MIN_ROUNDS = {0: 5, 1: 2}

# A fresh interpreter that sets the workload up and says so; the parent
# times it from spawn to the "ready" line.
_PROBE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5]).setup()
print("ready", flush=True)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_time(src, workload, seed, scratch):
    """Seconds from spawning a fresh interpreter to its workload being set up."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, "-c", _PROBE, src, here, workload, str(seed), scratch]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def run_iteration(wl, tracer):
    it = workloads.Iteration(tracer)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl.iterate(it)
    finally:
        wall = time.perf_counter() - t0 - sum(it.cal_times)
        if tracer is not None:
            tracer.uninstall()
    it.close()
    return wall, it, tracer


def measure(wl, seconds, trace, probe):
    """Rounds of (untraced[, traced]) iterations until another round would
    overrun `seconds`, but at least MIN_ROUNDS[trace] rounds, and the
    set-up times `probe()` took after each of the first SETUP_PROBES rounds.
    Probing between rounds spreads the set-up samples over the run, as the
    iterations are, rather than putting them all in one phase of the host."""
    rounds = []
    setups = []
    start = time.perf_counter()
    while True:
        rnd = [run_iteration(wl, None)]
        if trace:
            rnd.append(run_iteration(wl, tracing.Tracer()))
        rounds.append(rnd)
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        elapsed = time.perf_counter() - start
        if (
            len(rounds) >= MIN_ROUNDS[trace]
            and elapsed + elapsed / len(rounds) > seconds
        ):
            return rounds, setups


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root, args):
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def summarize(setup_samples, rounds):
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if len(r) > 1]
    every = [x for r in rounds for x in r]
    walls = [w for w, _, _ in plain]
    components = {}
    for comp in workloads.COMPONENTS:
        samples = [it.times[comp] for _, it, _ in plain if comp in it.times]
        if samples:
            components[comp] = summary.describe(samples)
    attempted = sum(it.attempted for _, it, _ in every)
    failed = sum(it.failed for _, it, _ in every)
    result = {
        "setup_s": summary.describe(setup_samples),
        "iter_s": summary.describe(walls),
        "iter_cal": summary.describe([it.cost for _, it, _ in plain]),
        "walls": walls,
        "components": components,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": sorted({f for _, it, _ in every for f in it.failures}),
        "values": [it.values for _, it, _ in every],
    }
    if traced:
        per_iter = [
            tracing.layer_metrics(tr.spans, it.values.get("reports_bytes", 0))
            for _, it, tr in traced
        ]
        layers = {
            k: statistics.median(m[k] for m in per_iter) for k in tracing.LAYER_UNITS
        }
        layers["tracing.overhead_s"] = (
            statistics.median(w for w, _, _ in traced) - statistics.median(walls)
        )
        result["layers"] = layers
        result["span_times"] = _span_times(traced)
        result["flow_runs"] = _flow_runs(traced)
    return result


def _span_times(traced):
    """Median, tail and count of each span name's durations, in seconds."""
    durations = {}
    for _, _, tr in traced:
        for name, start, end, _, _ in tr.spans:
            durations.setdefault(name, []).append(end - start)
    return {name: summary.describe(d) for name, d in sorted(durations.items())}


def _flow_runs(traced):
    """Steps, self time and us/step of each traced flow.run (per run)."""
    out = []
    for _, _, tr in traced:
        own = tracing.self_times(tr.spans)
        for i, span in enumerate(tr.spans):
            if span[0] == "flow.run" and span[4]:
                steps = span[4][0]
                per_step = 1e6 * own[i] / steps
                out.append({"steps": steps, "self_s": own[i], "us_per_step": per_step})
    return out


def write_spans(path, rounds):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("iteration", "index", "name", "start", "end", "parent"))
        for k, rnd in enumerate(rounds):
            for _, _, tr in rnd[1:]:
                for i, (name, start, end, parent, _) in enumerate(tr.spans):
                    w.writerow((k, i, name, repr(start), repr(end), parent))


def _fmt(d, unit):
    tail = d["tail"]
    tail_txt = f"p{tail['p']} {tail['value']:.6g}" if tail else "no tail (n < 20)"
    return f"{d['median']:.6g} {unit}  median; {tail_txt}; n={d['n']}"


def report_lines(prov, res, metrics, units):
    yield f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}"
    yield "provenance " + json.dumps(prov, sort_keys=True)
    yield f"  setup_s        {_fmt(res['setup_s'], 's')}"
    yield f"  iter_s         {_fmt(res['iter_s'], 's')}"
    yield f"  iter_cal       {_fmt(res['iter_cal'], 'loops')}"
    for comp in workloads.COMPONENTS:
        d = res["components"].get(comp)
        yield f"  {comp:<14} " + (_fmt(d, "s") if d else "not run by this workload")
    yield f"  peak_rss_mb    {res['peak_rss_mb']:.6g} MB"
    yield (
        f"  failed_ratio   {res['failed']}/{res['attempted']}"
        f" = {res['failed_ratio']:.6g}"
    )
    for f in res["failures"]:
        yield f"  FAILED: {f}"
    for name, value in res["values"][-1].items():
        yield f"  value {name} = {value}"
    for name, value in metrics.items():
        if name in res.get("layers", {}):
            yield f"  layer {name:<27} {value:.6g} {units[name]}"


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pinchflow", "__init__.py")):
        print(f"no pinchflow sources in {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    scratch = os.path.join(root, OUT_DIR)
    os.makedirs(scratch, exist_ok=True)

    wl = workloads.make(args.workload, args.seed, scratch)
    wl.setup()
    import pinchflow

    imported = os.path.dirname(os.path.abspath(pinchflow.__file__))
    if imported != os.path.join(src, "pinchflow"):
        print(f"pinchflow imported from {imported}, not {src}", file=sys.stderr)
        return 2
    workloads.calibrate()  # imports mpmath where the workload does not
    rounds, setup_samples = measure(
        wl,
        args.seconds,
        args.trace,
        lambda: setup_time(src, args.workload, args.seed, scratch),
    )
    res = summarize(setup_samples, rounds)
    prov = provenance(root, args)

    if args.trace:
        units = dict(tracing.LAYER_UNITS, **{"tracing.overhead_s": "s"})
        metrics = {k: res["layers"][k] for k in units}
        write_spans(os.path.join(scratch, f"spans-{args.workload}.csv"), rounds)
    else:
        units = {"setup_s": "s", "iter_cal": "loops", "peak_rss_mb": "MB"}
        metrics = {
            "setup_s": res["setup_s"]["median"],
            "iter_cal": res["iter_cal"]["median"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    name = f"result-{args.workload}-trace{args.trace}.json"
    with open(os.path.join(scratch, name), "w") as fh:
        json.dump({"provenance": prov, "result": res, "metrics": metrics}, fh, indent=1)
    for line in report_lines(prov, res, metrics, units):
        print(line)
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
