"""Span tracing of pinchflow's layers from outside the package.

The tracer replaces public functions with timing wrappers at the module
attribute that callers look up at call time (so `flow._record` sees the
wrapped `diagnostics`, and `cli` sees the wrapped `flow.run`), records one
span per call in memory and restores every original on `uninstall`.
Nothing under `src/` is changed.
"""

import functools
import time
from collections import defaultdict

from summary import parse_pieces

# Per-layer metrics of one traced iteration, with their units.  The order and
# units match `per_layer` in BENCHMARK.json (tracing.overhead_s is added by
# the runner, as it compares traced with untraced iterations).
LAYER_UNITS = {
    "flow.steps": "count",
    "flow.records": "count",
    "flow.self_s": "s",
    "flow.us_per_step": "us",
    "flow.diagnostics_ms": "ms",
    "flow.extinction_ms": "ms",
    "certificates.sturm_ms": "ms",
    "certificates.pieces": "count",
    "certificates.ms_per_piece": "ms",
    "certificates.scan_ms": "ms",
    "certificates.probes": "count",
    "certificates.probe_s": "s",
    "certificates.fallbacks": "count",
    "pinching.arrays_ms": "ms",
    "speeds.eval_calls": "count",
    "speeds.eval_us": "us",
    "identities.draws_per_s": "1/s",
    "reports.write_ms": "ms",
    "reports.bytes": "B",
    "cli.self_ms": "ms",
}


def _family(args, kwargs):
    speed = args[0] if args else kwargs["speed"]
    return getattr(speed, "family", speed)


def _note_run(args, kwargs, trace):
    return trace.steps, len(trace.records)


def _note_certify(args, kwargs, report):
    return _family(args, kwargs), report.method


def _note_threshold(args, kwargs, result):
    return result.probes


def _note_draws(args, kwargs, result):
    return result["draws"]


def trace_points():
    """(module, attribute, span name, note) for every wrapped function.

    `note(args, kwargs, result)` keeps what the layer metrics need from the
    call's result (steps, the certificate method, probe history, draws).
    """
    from pinchflow import certificates, flow, identities, pinching, reports

    return (
        (flow, "run", "flow.run", _note_run),
        (flow, "diagnostics", "flow.diagnostics", None),
        (flow, "extinction_estimate", "flow.extinction", None),
        (flow, "rescale_deviation", "flow.extinction", None),
        (certificates, "certify_nonpositive", "certificates.certify", _note_certify),
        (certificates, "find_threshold", "certificates.threshold", _note_threshold),
        (certificates, "sign_scan", "certificates.scan", None),
        (certificates, "gradient_terms_general_arrays", "pinching.arrays", None),
        (pinching, "eval_f_derivs", "speeds.eval", None),
        (identities, "eval_f_derivs", "speeds.eval", None),
        (identities, "z_residual_suite", "identities.suite", _note_draws),
        (identities, "reduction_suite", "identities.suite", _note_draws),
        (identities, "closed_agreement_suite", "identities.suite", None),
        (reports, "write_trace_csv", "reports.write", None),
        (reports, "write_report", "reports.write", None),
    )


class Tracer:
    """In-memory spans [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run `fn` under a span of its own (the benchmark's operations)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self):
        for module, attr, name, note in trace_points():
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, note))

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, reports_bytes=0):
    """LAYER_UNITS values from the spans of one traced iteration."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    # a call that raised has no note; its failure is counted by the workload
    runs = [i for i in by_name["flow.run"] if spans[i][4]]
    steps = sum(spans[i][4][0] for i in runs)
    flow_self = sum((own[i] for i in runs), 0.0)

    certs = [i for i in by_name["certificates.certify"] if spans[i][4]]
    gauss = [i for i in certs if spans[i][4][0] == "gauss_power"]
    # only certificates that name their pieces: a probe that gave up (depth
    # limit, piece budget) has time but no pieces to share it
    interval = [
        i
        for i in certs
        if spans[i][4][0] != "gauss_power" and parse_pieces(spans[i][4][1])
    ]
    pieces = sum(parse_pieces(spans[i][4][1]) for i in interval)
    interval_s = sum(spans[i][2] - spans[i][1] for i in interval)
    interval_set = set(interval)
    interval_scan_s = sum(
        spans[i][2] - spans[i][1]
        for i in by_name["certificates.scan"]
        if spans[i][3] in interval_set
    )

    probes = [p for i in by_name["certificates.threshold"] for p in spans[i][4] or ()]
    evals = len(by_name["speeds.eval"])
    draw_suites = [i for i in by_name["identities.suite"] if spans[i][4] is not None]
    draws = sum(spans[i][4] for i in draw_suites)
    draw_s = sum(spans[i][2] - spans[i][1] for i in draw_suites)

    return {
        "flow.steps": steps,
        "flow.records": sum(spans[i][4][1] for i in runs),
        "flow.self_s": flow_self,
        "flow.us_per_step": 1e6 * flow_self / steps if steps else 0.0,
        "flow.diagnostics_ms": 1e3 * total("flow.diagnostics"),
        "flow.extinction_ms": 1e3 * total("flow.extinction"),
        "certificates.sturm_ms": 1e3 * sum(spans[i][2] - spans[i][1] for i in gauss),
        "certificates.pieces": pieces,
        "certificates.ms_per_piece": (
            1e3 * (interval_s - interval_scan_s) / pieces if pieces else 0.0
        ),
        "certificates.scan_ms": 1e3 * total("certificates.scan"),
        "certificates.probes": len(probes),
        "certificates.probe_s": (
            total("certificates.threshold") / len(probes) if probes else 0.0
        ),
        "certificates.fallbacks": sum("scan fallback" in p[2] for p in probes),
        "pinching.arrays_ms": 1e3 * total("pinching.arrays"),
        "speeds.eval_calls": evals,
        "speeds.eval_us": 1e6 * total("speeds.eval") / evals if evals else 0.0,
        "identities.draws_per_s": draws / draw_s if draw_s else 0.0,
        "reports.write_ms": 1e3 * total("reports.write"),
        "reports.bytes": reports_bytes,
        "cli.self_ms": 1e3 * sum(own[i] for i in by_name["op:sweep_s"]),
    }
