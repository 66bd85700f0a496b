"""Command-line behavior: exit codes, determinism, config validation."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest

from pinchflow import certificates, cli, pinching, speeds
from pinchflow.certificates import Probe, QReport, ThresholdResult
from pinchflow.reports import strip_timestamp


def invoke(*argv):
    return cli.main(list(argv))


# --- verify-identities -------------------------------------------------------


def test_verify_identities_ok(tmp_path, capsys):
    code = invoke("verify-identities", "--draws", "500", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "zero_order" in out and "ok" in out
    doc = json.loads((tmp_path / "identities.json").read_text())
    assert doc["pass"] is True


def test_verify_identities_seed_independent_status():
    assert invoke("verify-identities", "--draws", "400", "--seed", "0") == 0
    assert invoke("verify-identities", "--draws", "400", "--seed", "12345") == 0


def test_verify_identities_negative_control(tmp_path):
    # a 1e-6 relative error in one derivative, for every family or for one,
    # must trip the comparison of the two independent gradient-term routes;
    # Z and the reduction are algebraic identities in the derivative values
    # and cannot see it
    corruptions = (  # (name, speeds function, scaled output, family or all)
        ("fdot", "_f_derivs", 1, None),  # f1
        ("fddot", "_f_derivs", 4, None),  # f12
        ("mean_k1", "_k_derivs", 1, "mean_power"),
    )
    for name, attr, index, family in corruptions:
        exact = getattr(speeds, attr)

        def corrupted(*args, exact=exact, index=index, family=family):
            out = list(exact(*args))
            if family in (None, args[0]):
                out[index] = out[index] * (1 + 1e-6)
            return tuple(out)

        out = tmp_path / name
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(speeds, attr, corrupted)
            mp.setattr(pinching, attr, corrupted)
            code = invoke("verify-identities", "--draws", "200", "--out", str(out))
        assert code == 1, name
        doc = json.loads((out / "identities.json").read_text())
        failing = [suite["suite"] for suite in doc["suites"] if not suite["pass"]]
        assert failing == ["closed_agreement"], name
    assert invoke("verify-identities", "--draws", "200") == 0


def test_verify_identities_bad_draws():
    assert invoke("verify-identities", "--draws", "-5") == 2
    assert invoke("verify-identities", "--seed", "-1") == 2


# --- q-sign ------------------------------------------------------------------


def test_q_sign_exit_codes(tmp_path):
    assert invoke("q-sign", "--family", "gauss_power", "--alpha", "2.0") == 0
    assert invoke("q-sign", "--family", "gauss_power", "--alpha", "0.4") == 1
    assert invoke("q-sign", "--family", "sum_power", "--alpha", "101") == 2
    assert invoke("q-sign", "--alpha", "2.0") == 2  # family required
    assert (
        invoke("q-sign", "--family", "gauss_power", "--alpha", "2.0", "--t-max", "1.2")
        == 2
    )
    assert (
        invoke("q-sign", "--family", "gauss_power", "--alpha", "2.0", "--t-max", "inf")
        == 2
    )


def test_q_sign_report_file(tmp_path):
    code = invoke(
        "q-sign", "--family", "gauss_power", "--alpha", "1.5", "--out", str(tmp_path)
    )
    assert code == 0
    doc = json.loads((tmp_path / "qsign.json").read_text())
    assert doc["verdict"] == "nonpositive_certified"
    assert doc["family"] == "gauss_power"


def test_sign_budget_exhaustion_exits_numeric(tmp_path, capsys, monkeypatch):
    # gauss 2.1's numerator is positive far out, so its first piece, the whole
    # ray, fails Descartes' rule and a one-piece budget runs out
    monkeypatch.setattr(certificates, "_PIECE_BUDGET", 1)
    argv = ("--family", "gauss_power", "--out", str(tmp_path))
    assert invoke("q-sign", "--alpha", "2.1", *argv) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert not (tmp_path / "qsign.json").exists()
    code = invoke("threshold", "--alpha-lo", "1.5", "--alpha-hi", "3", *argv)
    assert code == cli.EXIT_NUMERIC


def test_q_sign_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert (
            invoke(
                "q-sign",
                "--family",
                "mean_power",
                "--alpha",
                "2.5",
                "--t-max",
                "1e4",
                "--out",
                str(d),
            )
            == 0
        )
    a = (d1 / "qsign.json").read_text()
    b = (d2 / "qsign.json").read_text()
    assert strip_timestamp(a) == strip_timestamp(b)
    assert json.loads(a).keys() == json.loads(b).keys()


def test_q_sign_config_file(tmp_path):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({"family": "gauss_power", "alpha": 2.0}))
    assert invoke("q-sign", "--config", str(cfg)) == 0
    # explicit flags override the file
    assert invoke("q-sign", "--config", str(cfg), "--alpha", "2.1") == 1
    # unknown keys are rejected with the field named
    cfg.write_text(json.dumps({"family": "gauss_power", "alpha": 2.0, "spam": 1}))
    assert invoke("q-sign", "--config", str(cfg)) == 2
    # the interval engine's depth limit is gone, as a key and as a flag
    cfg.write_text(json.dumps({"family": "mean_power", "alpha": 3.0, "depth_limit": 60}))
    assert invoke("q-sign", "--config", str(cfg)) == 2
    with pytest.raises(SystemExit) as exc:
        invoke("q-sign", "--family", "mean_power", "--alpha", "3", "--depth-limit", "60")
    assert exc.value.code == 2


# sha256 of report files, JSON with its timestamp stripped: the gauss_power
# q-sign and threshold reports, each its record's fields, a mean_power
# threshold and a norm_power violation from the certificates' tables in
# alpha, and a flow's summary and every-step trace as the RKC stepper writes
# them.  Each case has a fixed id, so re-freezing a digest keeps its name.
FLOW_ARGV = ("flow", "--family", "mean_power", "--alpha", "1.5", "--a", "2") + (
    "--b", "1", "--n-nodes", "33", "--stop-fraction", "0.2", "--record-every", "1"
)
REPORT_SHA256 = [
    pytest.param(
        ("q-sign", "--family", "gauss_power", "--alpha", "1.5"),
        "qsign.json",
        "e43c72231c08bdd7a7e1dc39052c58af6d4d71eb418a229e9c9fcdf8b38b65fb",
        id="qsign-gauss-1.5",
    ),
    pytest.param(
        ("q-sign", "--family", "gauss_power", "--alpha", "0.4"),
        "qsign.json",
        "eb17d7f12d519051d32db07737599b9da4dd2fee1ff43b5b2054af7d77f1771c",
        id="qsign-gauss-0.4",
    ),
    pytest.param(
        ("q-sign", "--family", "gauss_power", "--alpha", "2.1"),
        "qsign.json",
        "ad42b0bc17d490ef69d2682577875ca15209899f120f2c3e756adf748fa4a80a",
        id="qsign-gauss-2.1",
    ),
    pytest.param(
        ("q-sign", "--family", "gauss_power", "--alpha", "3.0"),
        "qsign.json",
        "346132f3d89d09d57cca69acbc3f9ac3bba169f5a9f6c69d32f650bf8c630747",
        id="qsign-gauss-3.0",
    ),
    pytest.param(
        ("threshold", "--family", "gauss_power", "--alpha-lo", "1.5")
        + ("--alpha-hi", "3", "--tol", "0.05"),
        "threshold.json",
        "919a7b15da0b4dc5c9360f5ed6a102859593e3b37b1ab0e6a94be4bbe1ee7d16",
        id="threshold-gauss-tol",
    ),
    pytest.param(
        FLOW_ARGV,
        "summary.json",
        "2f9ca88f19dacd7443eba035e4324984d6b17004d73d8ac22207abdaf0ba4287",
        id="flow-mean-summary",
    ),
    pytest.param(
        FLOW_ARGV,
        "trace.csv",
        "2cff850e271dd3ca3737bdcfe208f0a4df082670a970cdc1cf68f39ea40c1911",
        id="flow-mean-trace",
    ),
    pytest.param(  # find_threshold's default tolerance is 0.05
        ("threshold", "--family", "gauss_power", "--alpha-lo", "1.5")
        + ("--alpha-hi", "3"),
        "threshold.json",
        "919a7b15da0b4dc5c9360f5ed6a102859593e3b37b1ab0e6a94be4bbe1ee7d16",
        id="threshold-gauss-default-tol",
    ),
    pytest.param(
        ("threshold", "--family", "mean_power", "--alpha-lo", "4", "--alpha-hi", "6"),
        "threshold.json",
        "05eb4abe8bdf5d863269007fd203144c54ec6526d2b30a1c1182105014978b34",
        id="threshold-mean",
    ),
    pytest.param(
        ("q-sign", "--family", "norm_power", "--alpha", "8.15625"),
        "qsign.json",
        "b2b93d3b50d14985592f08f89d7a1260caf24d6e63acfb45183112a8b1f32555",
        id="qsign-norm-8.15625",
    ),
]


@pytest.mark.parametrize("argv, name, digest", REPORT_SHA256)
def test_report_bytes_pinned(tmp_path, argv, name, digest):
    invoke(*argv, "--out", str(tmp_path))
    text = (tmp_path / name).read_text()
    if name.endswith(".json"):
        text = strip_timestamp(text)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- report fields -----------------------------------------------------------

# (report file, exit code, argv): a certified and an exactly violated gauss
# verdict, the sum_power scan fallback (inconclusive, a `replace` of its sign
# scan), a threshold search and the identity suites
REPORT_CASES = [
    ("qsign.json", 0, ("q-sign", "--family", "gauss_power", "--alpha", "1.5")),
    ("qsign.json", 1, ("q-sign", "--family", "gauss_power", "--alpha", "0.4")),
    ("qsign.json", 3, ("q-sign", "--family", "sum_power", "--alpha", "0.38")),
    (
        "threshold.json",
        0,
        ("threshold", "--family", "gauss_power", "--alpha-lo", "1.5", "--alpha-hi", "3"),
    ),
    ("identities.json", 0, ("verify-identities", "--draws", "200")),
]
RECORD_FIELDS = {
    "qsign.json": {f.name for f in fields(QReport)},
    "threshold.json": {f.name for f in fields(ThresholdResult)},
    "identities.json": {"suites", "pass"},
}


@pytest.mark.parametrize("name, code, argv", REPORT_CASES)
def test_report_keys_are_record_fields(tmp_path, name, code, argv):
    assert invoke(*argv, "--out", str(tmp_path)) == code
    doc = json.loads((tmp_path / name).read_text())
    assert set(doc) == RECORD_FIELDS[name] | {"timestamp"}
    for probe in doc.get("probes", ()):
        assert set(probe) == set(Probe._fields)
    for suite in doc.get("suites", ()):
        assert {"worst_ratio", "bound", "worst_case", "pass"} <= set(suite)
    if name != "qsign.json":  # the loops above saw a probe or a suite
        assert doc.get("probes") or doc.get("suites")


# --- config files ------------------------------------------------------------

# per command: a config carrying its fields, the field it gives as a numeric
# string, and values its flags' text would not convert: booleans, and
# non-integral numbers for int fields
CONFIG_CASES = {
    "threshold": (
        {"family": "gauss_power", "alpha_lo": "1.5", "alpha_hi": 3.0, "tol": 0.05},
        "alpha_lo",
        {"alpha_hi": True, "tol": False},
    ),
    "verify-identities": (
        {"draws": "200", "seed": 0},
        "draws",
        {"draws": 2.5, "seed": True},
    ),
    "flow": (
        {"family": "gauss_power", "alpha": 2.0, "n_nodes": "33", "stop_fraction": 0.2},
        "n_nodes",
        {"n_nodes": 33.9, "max_steps": 5.7, "alpha": True, "record_every": 1.0},
    ),
}


def stripped_reports(out):
    return {
        p.name: strip_timestamp(p.read_text()) if p.suffix == ".json" else p.read_text()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_file_matches_flags(tmp_path, capsys, command):
    doc, string_key, unconvertible = CONFIG_CASES[command]
    flags = [
        arg
        for key, value in doc.items()
        for arg in ("--" + key.replace("_", "-"), str(value))
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = invoke(command, *flags, "--out", str(tmp_path / "flags"))
    flags_stdout = capsys.readouterr().out
    assert invoke(command, "--config", str(cfg), "--out", str(tmp_path / "file")) == code
    assert capsys.readouterr().out == flags_stdout
    assert stripped_reports(tmp_path / "file") == stripped_reports(tmp_path / "flags")

    bad = tmp_path / "bad"
    cfg.write_text(json.dumps({**doc, "spam": 1}))
    assert invoke(command, "--config", str(cfg), "--out", str(bad)) == 2
    cfg.write_text(json.dumps({**doc, string_key: "not a number"}))
    assert invoke(command, "--config", str(cfg), "--out", str(bad)) == 2
    for key, value in unconvertible.items():
        cfg.write_text(json.dumps({**doc, key: value}))
        assert invoke(command, "--config", str(cfg), "--out", str(bad)) == 2, key
        assert f"field {key!r}" in capsys.readouterr().err
    assert not bad.exists()


# --- threshold ---------------------------------------------------------------


def test_threshold_gauss(tmp_path, capsys):
    code = invoke(
        "threshold",
        "--family",
        "gauss_power",
        "--alpha-lo",
        "1.5",
        "--alpha-hi",
        "3.0",
        "--tol",
        "0.05",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "threshold.json").read_text())
    lo, hi = doc["alpha_lo"], doc["alpha_hi"]
    assert lo <= 2.0 <= hi
    assert hi - lo <= 0.05
    assert "midpoint" in capsys.readouterr().out


def test_threshold_non_bracketing():
    code = invoke(
        "threshold",
        "--family",
        "gauss_power",
        "--alpha-lo",
        "0.6",
        "--alpha-hi",
        "1.9",
    )
    assert code == 2


def test_threshold_bad_range():
    assert (
        invoke(
            "threshold", "--family", "gauss_power", "--alpha-lo", "3", "--alpha-hi", "1"
        )
        == 2
    )


# --- flow --------------------------------------------------------------------


def test_flow_sphere_summary(tmp_path, capsys):
    code = invoke(
        "flow",
        "--family",
        "gauss_power",
        "--alpha",
        "2",
        "--n-nodes",
        "101",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["status"] == "extinct_fraction"
    assert doc["t_extinct"] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert doc["sphere_t_exact"] == pytest.approx(1.0 / 3.0)
    assert doc["rejected"] == 0 and doc["stages"] >= 2 * doc["steps"]
    assert 0 < doc["dt_min"] < doc["dt_max"]
    assert all(doc["monotonicity"]["monotone"].values())
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("step,t,dt,min_support")
    assert len(lines) > 10


def test_flow_invalid_config_no_partial_output(tmp_path, capsys):
    out = tmp_path / "never"
    code = invoke(
        "flow",
        "--family",
        "gauss_power",
        "--alpha",
        "2",
        "--n-nodes",
        "12",
        "--out",
        str(out),
    )
    assert code == 2
    # the step floor is a constant of the stepper, neither a key nor a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gauss_power", "alpha": 2, "safety": 0.3}))
    assert invoke("flow", "--config", str(cfg), "--out", str(out)) == 2
    assert "field 'safety'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        invoke("flow", "--family", "gauss_power", "--alpha", "2", "--safety", "0.3")
    assert exc.value.code == 2
    assert not out.exists()


def test_flow_rejects_infinite_semi_axes(tmp_path, capsys):
    out = tmp_path / "never"
    argv = ("flow", "--family", "gauss_power", "--alpha", "2", "--n-nodes", "33")
    assert invoke(*argv, "--b", "inf", "--out", str(out)) == 2
    assert "semi-axis b must be finite" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    # JSON reads a number beyond the float range as inf
    cfg.write_text('{"family": "gauss_power", "alpha": 2, "n_nodes": 33, "a": 1e400}')
    assert invoke("flow", "--config", str(cfg), "--out", str(out)) == 2
    assert "semi-axis a must be finite" in capsys.readouterr().err
    assert not out.exists()
    # finite semi-axes whose speed leaves the float range: the diffusion cap
    # overflows to inf or underflows to 0 at the first step (without --out,
    # since the output directory is made before the flow runs); the flow
    # silences the overflow, so no warning comes before the message
    for alpha, a, b, cap in (
        ("1", "1e-160", "2e-160", "inf"),
        ("10", "2e40", "1e40", "0.0"),
        ("10", "2e-40", "1e-40", "inf"),
    ):
        argv = ("flow", "--family", "gauss_power", "--n-nodes", "33")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(*argv, "--alpha", alpha, "--a", a, "--b", b) == 2
        assert capsys.readouterr().err.strip().endswith(
            f"speed out of the float range: diffusion cap {cap} is not finite"
            " and positive"
        )


def test_flow_spectral_bound_overflow_exits_2(capsys):
    # the cap stays finite while (4 / dtheta^2 + 1) * cap overflows, late in
    # the flow: every stage count would exceed the cap on stages
    argv = ("flow", "--family", "gauss_power", "--alpha", "10", "--n-nodes", "33")
    assert invoke(*argv, "--a", "1e-27", "--b", "5e-28") == 2
    assert "speed out of the float range" in capsys.readouterr().err


def test_flow_below_float_range_scales(tmp_path):
    # s -> 1e-100 s scales t by 1e-200 at alpha = 1, and the fit, run on
    # scaled t and a0, follows; the two flows agree to 4e-15 in T
    docs = []
    for i, (a, b) in enumerate((("2", "1"), ("2e-100", "1e-100"))):
        out = tmp_path / str(i)
        argv = ("flow", "--family", "gauss_power", "--alpha", "1", "--n-nodes", "33")
        assert invoke(*argv, "--a", a, "--b", b, "--out", str(out)) == 0
        docs.append(json.loads((out / "summary.json").read_text()))
    unit, tiny = docs
    assert tiny["status"] == "extinct_fraction" and tiny["steps"] == unit["steps"]
    assert tiny["t_extinct"] == pytest.approx(1e-200 * unit["t_extinct"], rel=1e-12)


def test_flow_convexity_loss_exit_and_partial_trace(tmp_path, monkeypatch):
    # the real dt-halving abort: every RKC step fails from step 100 on
    real = cli.flowmod._rkc
    accepted = []

    def rkc_until_step_100(*args):
        if len(accepted) == 100:
            return None
        out = real(*args)
        if out is not None:
            accepted.append(out)
        return out

    monkeypatch.setattr(cli.flowmod, "_rkc", rkc_until_step_100)
    code = invoke(
        "flow",
        "--family",
        "gauss_power",
        "--alpha",
        "2",
        "--a",
        "2",
        "--n-nodes",
        "33",
        "--record-every",
        "1",
        "--out",
        str(tmp_path),
    )
    assert code == 3
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["status"] == "convexity_loss" and doc["steps"] == 100
    assert doc["rejected"] == 8
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + doc["steps"] + 1  # header, steps 0 to 100


# --- sweep -------------------------------------------------------------------


def sweep_config(tmp_path, body):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(body))
    return str(path)


def test_sweep_runs_and_merges(tmp_path):
    cfg = sweep_config(
        tmp_path,
        {
            "base": {
                "family": "gauss_power",
                "a": 1.0,
                "b": 1.0,
                "n_nodes": 101,
                "record_every": 400,
            },
            "sweep": {"alpha": [1.0, 2.0]},
        },
    )
    out = tmp_path / "out"
    code = invoke("sweep", "--config", cfg, "--workers", "2", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["config"]["alpha"] for r in doc["runs"]] == [1.0, 2.0]
    assert doc["exit_codes"] == [0, 0]
    for i in range(2):
        assert (out / f"run_{i:03d}" / "summary.json").exists()


def test_sweep_explicit_runs_sequential(tmp_path):
    cfg = sweep_config(
        tmp_path,
        {
            "runs": [
                {"family": "gauss_power", "alpha": 2.0, "n_nodes": 101},
                {"family": "mean_power", "alpha": 1.0, "n_nodes": 101},
            ]
        },
    )
    out = tmp_path / "out"
    assert invoke("sweep", "--config", cfg, "--workers", "1", "--out", str(out)) == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["config"]["family"] for r in doc["runs"]] == [
        "gauss_power",
        "mean_power",
    ]


def test_sweep_validates_all_before_output(tmp_path):
    cfg = sweep_config(
        tmp_path,
        {
            "runs": [
                {"family": "gauss_power", "alpha": 2.0, "n_nodes": 101},
                {"family": "gauss_power", "alpha": 2.0, "n_nodes": 10},
            ]
        },
    )
    out = tmp_path / "out"
    assert invoke("sweep", "--config", cfg, "--out", str(out)) == 2
    assert not out.exists()


def test_sweep_rejects_ambiguous_config(tmp_path):
    cfg = sweep_config(
        tmp_path,
        {"runs": [{"family": "gauss_power", "alpha": 2.0}], "sweep": {"alpha": [1.0]}},
    )
    assert invoke("sweep", "--config", cfg) == 2
    assert invoke("sweep") == 2  # --config required


def test_sweep_deterministic_across_worker_counts(tmp_path):
    body = {
        "base": {"family": "gauss_power", "n_nodes": 101, "record_every": 500},
        "sweep": {"alpha": [1.0, 1.5, 2.0]},
    }
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        code = invoke(
            "sweep",
            "--config",
            sweep_config(tmp_path, body),
            "--workers",
            workers,
            "--out",
            str(out),
        )
        assert code == 0
        outs.append(strip_timestamp((out / "sweep.json").read_text()))
    assert outs[0] == outs[1]


# --- entry point -------------------------------------------------------------


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "pinchflow.cli", "q-sign", "--family", "gauss_power", "--alpha", "1.0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "nonpositive_certified" in proc.stdout
