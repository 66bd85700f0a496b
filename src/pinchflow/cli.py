"""Batch command-line front end.

Subcommands expose the analyzer (identity suites, sign certificates,
threshold search) and the axisymmetric flow as reproducible commands that
emit canonical JSON reports and CSV traces.  Exit codes: 0 success,
1 property violation, 2 configuration error, 3 numerical failure
(convexity loss or an inconclusive certificate).

Each command is declared once, in `_COMMANDS`, whose parameter tables give
the flags, the config-file keys and the coercion.  A handler returns its
exit code and files, and `main` writes them (`_write`) once it is done, so a
command that raises writes nothing; a sweep's runs write their own.  An
`--out` that cannot be a directory is a config error before any work.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from . import flow as flowmod
from . import identities, reports
from .certificates import certify_nonpositive, find_threshold
from .errors import (
    BracketError,
    ConfigError,
    ConvexityLossError,
    DomainError,
    ResolutionError,
    SignBudgetError,
)
from .speeds import FAMILIES

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The flow's parameter table, also the one a sweep coerces each run by.
_FLOW_FIELDS = {f.name: f.type for f in fields(flowmod.FlowConfig)}


def _load_config_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"field 'config': cannot read {path!r} ({err})")
    except json.JSONDecodeError as err:
        raise ConfigError(f"field 'config': {path!r} is not valid JSON ({err})")
    if not isinstance(doc, dict):
        raise ConfigError("field 'config': document must be a JSON object")
    return doc


def _coerce(entry, table):
    """Convert each non-null value of `entry` to its table type from its text,
    as the flag's parser would, so true or 33.9 is no int; unknown keys are
    rejected and null values dropped, so the library default applies."""
    coerced = {}
    for key, value in entry.items():
        if key not in table:
            raise ConfigError(f"field {key!r}: not recognized by this command")
        if value is None:
            continue
        try:
            coerced[key] = table[key](str(value))
        except (TypeError, ValueError):
            raise ConfigError(f"field {key!r}: cannot convert {value!r}")
    return coerced


def _params(args):
    """The command's parameters: config file < explicit flags, coerced.  Only
    the keys given either way are present."""
    given = _load_config_file(args.config) if args.config else {}
    for key in args.table:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    return _coerce(given, args.table)


def _require(params, key):
    """Remove and return a parameter that has no library default."""
    if key not in params:
        raise ConfigError(f"field {key!r}: required")
    return params.pop(key)


def _check_out(out):
    """Raise ConfigError when `out` is an existing non-directory or lies below
    one, where `_write` could not make it, before any work is done."""
    path = out
    while path and not os.path.isdir(path):
        if os.path.lexists(path):
            raise ConfigError(f"field 'out': {path!r} is not a directory")
        path = os.path.dirname(path)


def _write(out, files):
    """Make the directory `out` and write each file into it: a `.csv` name
    takes trace records, any other a JSON report.  No `out`, no files."""
    if not out:
        return
    os.makedirs(out, exist_ok=True)
    for name, payload in files.items():
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            reports.write_trace_csv(path, flowmod.TRACE_COLUMNS, payload)
        else:
            reports.write_report(path, payload)


# ---------------------------------------------------------------------------
# verify-identities


def cmd_verify_identities(args):
    result = identities.run_all(**_params(args))
    for suite in result["suites"]:
        status = "ok" if suite["pass"] else "EXCEEDED"
        print(
            f"{suite['suite']}: worst {suite['worst_ratio']:.3e}"
            f"  bound {suite['bound']:.0e}  {status}"
        )
    return (EXIT_OK if result["pass"] else EXIT_VIOLATION), {"identities.json": result}


# ---------------------------------------------------------------------------
# q-sign


def cmd_q_sign(args):
    params = _params(args)
    family = _require(params, "family")
    alpha = _require(params, "alpha")
    report = certify_nonpositive(family, alpha, **params)
    line = f"{family} alpha={alpha:g}: {report.verdict}"
    if report.verdict == "violated":
        line += f"  witness t={report.witness_t:.6g} q={report.witness_q:.3e}"
    print(line)
    exits = {"violated": EXIT_VIOLATION, "inconclusive": EXIT_NUMERIC}
    return exits.get(report.verdict, EXIT_OK), {"qsign.json": report}


# ---------------------------------------------------------------------------
# threshold


def cmd_threshold(args):
    params = _params(args)
    family = _require(params, "family")
    bracket = (_require(params, "alpha_lo"), _require(params, "alpha_hi"))
    result = find_threshold(family, bracket, **params)
    mid = 0.5 * (result.alpha_lo + result.alpha_hi)
    print(
        f"{family}: threshold in [{result.alpha_lo:.6g}, {result.alpha_hi:.6g}]"
        f"  midpoint {mid:.6g}  width {result.width:.3g}"
    )
    return EXIT_OK, {"threshold.json": result}


# ---------------------------------------------------------------------------
# flow


def _flow_config(params):
    family, alpha = _require(params, "family"), _require(params, "alpha")
    return flowmod.FlowConfig(family, alpha, **params)


def _run_flow(config):
    """One flow's exit code and files (on a convexity loss, the partial trace)."""
    try:
        trace = flowmod.run(config)
        code = EXIT_OK
    except ConvexityLossError as err:
        trace = err.trace
        code = EXIT_NUMERIC
    return code, {"trace.csv": trace.records, "summary.json": trace.summary_dict()}


def cmd_flow(args):
    config = _flow_config(_params(args))
    code, files = _run_flow(config)
    summary = files["summary.json"]
    mono = summary["monotonicity"]["monotone"]
    print(
        f"{config.family} alpha={config.alpha:g} a={config.a:g} b={config.b:g}:"
        f" status={summary['status']} steps={summary['steps']}"
    )
    if summary["t_extinct"] is not None:
        print(f"  extinction estimate T={summary['t_extinct']:.9g}")
    if summary["deviation"] is not None:
        print(f"  rescaled deviation {summary['deviation']:.3e}")
    print(
        "  monotone: "
        + "  ".join(f"{k}={'yes' if v else 'NO'}" for k, v in mono.items())
    )
    return code, files


# ---------------------------------------------------------------------------
# sweep


def _expand_sweep(doc):
    base = doc.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("field 'base': must be a JSON object")
    if ("runs" in doc) == ("sweep" in doc):
        raise ConfigError("field 'runs': provide exactly one of 'runs' or 'sweep'")
    runs = []
    if "runs" in doc:
        if not isinstance(doc["runs"], list):
            raise ConfigError("field 'runs': must be a list of run objects")
        for i, entry in enumerate(doc["runs"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"field 'runs[{i}]': must be a JSON object")
            runs.append({**base, **entry})
    else:
        axes = doc["sweep"]
        if not isinstance(axes, dict) or not axes:
            raise ConfigError("field 'sweep': must be a non-empty JSON object")
        keys = sorted(axes)
        for key in keys:
            if not isinstance(axes[key], list) or not axes[key]:
                raise ConfigError(f"field 'sweep.{key}': must be a non-empty list")
        combos = [{}]
        for key in keys:
            combos = [{**c, key: v} for c in combos for v in axes[key]]
        runs = [{**base, **combo} for combo in combos]
    return runs


def _sweep_worker(item):
    """One sweep run, written to its own directory so a pool writes in parallel."""
    config, run_dir = item
    code, files = _run_flow(config)
    _write(run_dir, files)
    return code, files["summary.json"]


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("field 'config': sweep requires --config")
    doc = _load_config_file(args.config)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ConfigError("field 'workers': must be >= 1")
    configs = [
        _flow_config(_coerce(entry, _FLOW_FIELDS)) for entry in _expand_sweep(doc)
    ]
    items = [
        (c, args.out and os.path.join(args.out, f"run_{i:03d}"))
        for i, c in enumerate(configs)
    ]
    if workers == 1 or len(items) <= 1:
        results = [_sweep_worker(item) for item in items]
    else:
        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            results = list(pool.map(_sweep_worker, items))
    codes = [code for code, _ in results]
    for index, (code, summary) in enumerate(results):
        cfg = summary["config"]
        print(
            f"run {index:03d}: {cfg['family']} alpha={cfg['alpha']:g}"
            f" a={cfg['a']:g} b={cfg['b']:g} status={summary['status']}"
            f" exit={code}"
        )
    # worker count deliberately left out: reports must not depend on it
    combined = {"runs": [summary for _, summary in results], "exit_codes": codes}
    return max(codes, default=EXIT_OK), {"sweep.json": combined}


# ---------------------------------------------------------------------------
# parser

# name -> (handler, parameter table, help).  A table maps each parameter to
# its type; the flags (--t-max for t_max), the config-file keys and the
# coercion all come from it, and defaults and range checks from the library.
# A handler returns (exit code, {file name: report}).  A sweep coerces each
# of its runs by the flow's table; its --workers follows --config and --out.
_COMMANDS = {
    "verify-identities": (
        cmd_verify_identities,
        {"draws": int, "seed": int},
        "randomized identity suites (status 1 on any exceed)",
    ),
    "q-sign": (
        cmd_q_sign,
        {"family": str, "alpha": float, "t_max": float},
        "certify Q1, Q2 <= 0 over the ratio ray",
    ),
    "threshold": (
        cmd_threshold,
        {"family": str, "alpha_lo": float, "alpha_hi": float, "tol": float, "t_max": float},
        "bisect the largest certifiable exponent",
    ),
    "flow": (cmd_flow, _FLOW_FIELDS, "integrate the axisymmetric support-function flow"),
    "sweep": (cmd_sweep, {}, "run a batch of flows on a worker pool"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pinchflow",
        description="sign certificates and axisymmetric flows for homogeneous curvature speeds",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, table, help) in _COMMANDS.items():
        p = subs.add_parser(name, help=help)
        for key, kind in table.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=kind,
                choices=FAMILIES if key == "family" else None,
            )
        p.add_argument("--config", help="JSON file supplying any of this command's fields")
        p.add_argument("--out", help="directory for report files")
        p.set_defaults(func=func, table=table)
    subs.choices["sweep"].add_argument("--workers", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        code, files = args.func(args)
    except (ConfigError, BracketError, DomainError, ResolutionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SignBudgetError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    _write(args.out, files)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
