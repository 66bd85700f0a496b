"""The benchmark's workloads.

Every workload is a closed loop: one process issues one operation at a time
and starts the next only after the previous one has returned; no pool.
`setup` pays the one-off costs (imports, the flow's cotangent table, the lazy
mpmath import, a first call into each layer) so the timed iterations measure
steady-state work.  `iterate` runs one pass, timing each top-level call under
an end-to-end component name and checking its output.  Why each workload
exists is written down in README.md beside this file.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

import summary

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end components, each the summed wall time of one kind of top-level
# call in an iteration.  A workload reports only the components it runs.
COMPONENTS = ("flow_s", "certify_s", "threshold_s", "identities_s", "sweep_s")

# Tolerances of the package's acceptance criteria 6 and 7.
ORACLE_TOL = 1e-3
DRIFT_TOL = 1e-3

_CAL_X = np.linspace(0.0, 1.0, 64)


def calibrate():
    """Seconds that a fixed reference loop takes now.

    The loop does the three kinds of work pinchflow does: interpreted
    Python, numpy updates of small arrays and mpmath interval arithmetic, in
    about equal shares and about 20 ms.  On a shared host their speed swings
    by up to 1.7x in phases of seconds to minutes; an operation's time over
    the loop's time around it keeps the operation's cost and cancels most of
    the host's.  Each part alone, or interpreted Python with numpy, tracked
    the host less well on one workload or another.
    """
    import mpmath  # lazy, as in pinchflow; run.py warms it before timing

    iv = mpmath.iv
    t0 = time.perf_counter()
    s = 0
    for i in range(80_000):
        s += i * i % 7
    y = _CAL_X
    for _ in range(2_000):
        y = np.sin(y) * 0.5 + _CAL_X
    a, x = iv.mpf([1, 2]), iv.mpf([0.5, 0.6])
    for _ in range(240):
        a = (a * x + x) / (a + 1)
    return time.perf_counter() - t0


class Iteration:
    """Component times, recorded values and check outcomes of one pass.

    Timed work is cut into segments with a calibration before each: one
    per operation, more where a workload calls `checkpoint` inside a long
    one, and a last one after the pass.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}
        self.segments = []  # (seconds, index of the calibration before it)
        self.cal_times = []
        self.values = {}
        self.attempted = 0
        self.failures = []
        self._failed_ops = set()
        self._start = None

    @property
    def failed(self):
        return len(self._failed_ops)

    def _end_segment(self):
        if self._start is not None:
            seconds = time.perf_counter() - self._start
            self.segments.append((seconds, len(self.cal_times) - 1))
            self._start = None

    def checkpoint(self):
        """End the running segment, calibrate and start the next one."""
        self._end_segment()
        self.cal_times.append(calibrate())
        self._start = time.perf_counter()

    def call(self, component, fn, *args, **kwargs):
        """Time one top-level operation.  An exception counts as that
        operation failing; the workload goes on with the next one."""
        self.attempted += 1
        self.checkpoint()
        first = len(self.segments)
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.call("op:" + component, fn, *args, **kwargs)
        except Exception as err:  # boundary: report and keep measuring
            traceback.print_exc(file=sys.stderr)
            self.expect(False, f"{component}: {type(err).__name__}: {err}")
            return None
        finally:
            self._end_segment()
            elapsed = sum(t for t, _ in self.segments[first:])
            self.times[component] = self.times.get(component, 0.0) + elapsed

    def close(self):
        """Run the last calibration and set `cost`, the pass in loops: each
        segment's time over the mean of the calibrations before and after."""
        self.cal_times.append(calibrate())
        self.cost = summary.calibrated_cost(self.segments, self.cal_times)

    def expect(self, ok, what):
        """Check an output of the latest operation; a miss fails that operation."""
        if not ok:
            self._failed_ops.add(self.attempted)
            self.failures.append(what)
        return ok


class FlowEllipsoid:
    """flow.run on gauss_power, alpha = 1, 10% stop, default record_every:
    a 2:1 spheroid at N = 51 and N = 101, and the round sphere at N = 101."""

    name = "flow_ellipsoid"
    ALPHA = 1.0
    RUNS = (
        ("ellipsoid_51", 2.0, 51),
        ("ellipsoid_101", 2.0, 101),
        ("sphere_101", 1.0, 101),
    )

    def setup(self):
        from pinchflow import flow

        for n in (33, 51, 101):
            flow.radii_from_support(flow.ellipsoid_support(2.0, 1.0, n))
        flow.run(
            flow.FlowConfig("gauss_power", self.ALPHA, n_nodes=33, stop_fraction=0.2)
        )

    def iterate(self, it):
        from pinchflow import flow

        traces = {}
        for key, a, n in self.RUNS:
            cfg = flow.FlowConfig(
                "gauss_power", self.ALPHA, a=a, b=1.0, n_nodes=n, stop_fraction=0.1
            )
            tr = traces[key] = it.call("flow_s", flow.run, cfg)
            if not it.expect(
                tr is not None and tr.status == "extinct_fraction",
                f"{key} ends in extinct_fraction",
            ):
                continue
            it.values[f"{key}.steps"] = tr.steps
            it.values[f"{key}.t_extinct"] = tr.t_extinct
            if key == "ellipsoid_101":
                drifts = [
                    flow.pinching_drift([getattr(r, col) for r in tr.records])
                    for col in ("pinch_sup", "max_radius", "max_ratio")
                ]
                it.expect(max(drifts) <= DRIFT_TOL, "N = 101 pinching drift <= 1e-3")
                coarse = traces["ellipsoid_51"]
                it.expect(
                    coarse is not None
                    and abs(tr.t_extinct - coarse.t_extinct) <= ORACLE_TOL,
                    "T at N = 101 agrees with N = 51 within 1e-3",
                )
                # criterion 8 (roundness <= 0.02) is a known red: recorded, not gated
                it.values["criterion8_deviation"] = tr.deviation
            if key == "sphere_101":
                it.expect(self._sphere_ok(tr), "sphere radius law and T within 1e-3")

    def _sphere_ok(self, tr):
        """Exact law for the unit sphere: rho^(alpha+1) = 1 - (alpha+1) t."""
        p = self.ALPHA + 1.0
        law = 0.0
        for r in tr.records:
            rho = (1.0 - p * r.t) ** (1.0 / p)
            err = max(abs(r.min_support - rho), abs(r.max_support - rho)) / rho
            law = max(law, err)
        return law <= ORACLE_TOL and abs(tr.t_extinct - 1.0 / p) <= ORACLE_TOL


class CertifyThresholds:
    """The criterion-3 gauss ladder, the mean_power threshold bracket, the
    sum_power certificate at alpha = 10 and the three identity suites, whose
    random draws come from the seed."""

    name = "certify_thresholds"
    LADDER = (0.5, 1.0, 1.25, 1.5, 1.75, 2.0)
    WITNESSES = (0.4, 2.1)
    # Four probes: two interval certificates (3 and 4.5) and two scan
    # pre-pass violations (6 and 5.25).  The bracket stops at width 0.75
    # because a probe near the threshold 5.16 is slow: about 9 s and 20k
    # pieces at 5.17, against 1 s and 1.5k pieces at 3.
    BRACKET = (3.0, 6.0)
    BRACKET_TOL = 0.75

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        import mpmath
        from pinchflow import certificates, identities

        mpmath.iv.mpf(1)
        certificates.certify_nonpositive("gauss_power", alpha=1.0)
        certificates.certify_nonpositive("sum_power", alpha=1.5, t_max=10.0)
        identities.run_all(draws=40, seed=self.seed)

    def iterate(self, it):
        from pinchflow import certificates, identities

        certify = certificates.certify_nonpositive
        for alpha in self.LADDER:
            rep = it.call("certify_s", certify, "gauss_power", alpha=alpha)
            it.expect(
                rep is not None
                and rep.verdict == "nonpositive_certified"
                and rep.tail == "certified",
                f"gauss alpha={alpha} certified with certified tail",
            )
        for alpha in self.WITNESSES:
            rep = it.call("certify_s", certify, "gauss_power", alpha=alpha)
            it.expect(
                rep is not None
                and rep.verdict == "violated"
                and rep.witness_t is not None
                and rep.witness_q > 0,
                f"gauss alpha={alpha} violated with a positive witness",
            )
        th = it.call(
            "threshold_s",
            certificates.find_threshold,
            "mean_power",
            self.BRACKET,
            self.BRACKET_TOL,
        )
        if it.expect(
            th is not None
            and th.alpha_lo <= 5.16 <= th.alpha_hi
            and th.width <= self.BRACKET_TOL,
            f"mean_power bracket holds 5.16 with width <= {self.BRACKET_TOL}",
        ):
            it.values["mean_power.bracket"] = [th.alpha_lo, th.alpha_hi]
        rep = it.call("certify_s", certify, "sum_power", alpha=10.0, t_max=1e4)
        it.expect(
            rep is not None and rep.verdict.startswith("nonpositive"),
            "sum_power alpha=10 nonpositive",
        )
        res = it.call("identities_s", identities.run_all, seed=self.seed)
        it.expect(res is not None and res["pass"], "identity suites pass")


class SweepCoarse:
    """`pinchflow sweep` with one worker over sweep_coarse.json: the 4 families
    at alpha = 1, 2:1 spheroid, N = 33, a record after every step."""

    name = "sweep_coarse"
    CONFIG = os.path.join(HERE, "sweep_coarse.json")

    def __init__(self, scratch):
        self.scratch = scratch
        self.reference = None  # sweep.json of the first iteration

    def setup(self):
        from pinchflow import cli, flow, reports

        flow.radii_from_support(flow.ellipsoid_support(2.0, 1.0, 33))
        flow.run(
            flow.FlowConfig(
                "mean_power", 2.0, a=2.0, n_nodes=33, stop_fraction=0.2, record_every=1
            )
        )
        reports.render_report({"warm": 1.0})
        cli.build_parser()

    def iterate(self, it):
        from pinchflow import cli, flow, reports

        run = flow.run

        def run_calibrated(config):
            it.checkpoint()
            return run(config)

        out = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        try:
            argv = ["sweep", "--config", self.CONFIG, "--out", out, "--workers", "1"]
            # The command takes 2-3 s, long against the host's phases, so
            # untraced passes also calibrate before each of its flows.
            if it.tracer is None:
                flow.run = run_calibrated
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = it.call("sweep_s", cli.main, argv)
            finally:
                flow.run = run
            it.expect(code == 0, f"sweep exit code {code}")
            path = os.path.join(out, "sweep.json")
            if not it.expect(os.path.isfile(path), "sweep.json written"):
                return
            with open(path) as fh:
                text = reports.strip_timestamp(fh.read())
            doc = json.loads(text)
            it.expect(
                all(c == 0 for c in doc["exit_codes"])
                and all(r["status"] == "extinct_fraction" for r in doc["runs"]),
                "every sweep run exits 0 in extinct_fraction",
            )
            if self.reference is None:
                self.reference = text
            it.expect(text == self.reference, "sweep.json identical across iterations")
            it.values["reports_bytes"] = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(out)
                for f in files
            )
            it.values["sweep.steps"] = [r["steps"] for r in doc["runs"]]
        finally:
            shutil.rmtree(out, ignore_errors=True)


NAMES = (FlowEllipsoid.name, CertifyThresholds.name, SweepCoarse.name)


def make(name, seed, scratch):
    """The workload called `name`; `scratch` takes its temporary files."""
    if name == FlowEllipsoid.name:
        return FlowEllipsoid()
    if name == CertifyThresholds.name:
        return CertifyThresholds(seed)
    if name == SweepCoarse.name:
        return SweepCoarse(scratch)
    raise KeyError(name)
