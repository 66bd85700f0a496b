"""Canonical serialization: byte determinism, rationals, timestamp isolation."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pinchflow.flow import TRACE_COLUMNS, FlowConfig, run
from pinchflow.reports import (
    canonical_json,
    render_report,
    strip_timestamp,
    write_trace_csv,
)

import oracles


def test_canonical_sorting_and_compactness():
    doc = {"b": 1, "a": [1.5, 2], "c": {"y": None, "x": True}}
    assert canonical_json(doc) == '{"a":[1.5,2],"b":1,"c":{"x":true,"y":null}}'


def test_float_round_trip():
    values = [1 / 3, 1e-300, 6.02e23, -0.0, math.pi]
    text = canonical_json(values)
    back = json.loads(text)
    for orig, rt in zip(values, back):
        assert rt == orig or (orig == 0 and rt == 0)
    assert "-0" not in text  # negative zero collapsed


def test_non_finite_floats_become_strings():
    assert canonical_json(float("nan")) == '"nan"'
    assert canonical_json(float("inf")) == '"inf"'
    assert canonical_json(float("-inf")) == '"-inf"'


def test_fraction_encoding():
    # dyadic/decimal denominators print as decimal strings, others as p/q
    assert canonical_json(Fraction(3, 8)) == '{"rational":true,"value":"0.375"}'
    assert canonical_json(Fraction(-1, 20)) == '{"rational":true,"value":"-0.05"}'
    assert canonical_json(Fraction(7)) == '{"rational":true,"value":"7"}'
    assert canonical_json(Fraction(1, 3)) == '{"rational":true,"value":"1/3"}'


def test_numpy_scalars_and_arrays():
    doc = {"v": np.float64(0.5), "n": np.int32(3), "a": np.array([1.0, 2.0])}
    assert canonical_json(doc) == '{"a":[1,2],"n":3,"v":0.5}'


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        canonical_json(object())


def test_timestamp_isolated_single_key():
    payload = {"z": 1, "a": 2}
    text = render_report(payload)
    doc = json.loads(text)
    assert set(doc) == {"timestamp", "a", "z"}
    assert text.startswith('{"timestamp":"')
    # identical payloads agree byte-for-byte after stripping the stamp
    assert strip_timestamp(text) == strip_timestamp(render_report(payload))
    assert strip_timestamp(text) == canonical_json(payload) + "\n"


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, ("step", "t"), [(0, 0.0), (1, 1 / 3)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t"
    assert float(lines[2].split(",")[1]) == 1 / 3


def test_trace_csv_matches_per_value_writer(tmp_path):
    # an every-step flow trace, then rows whose floats print as nan, inf,
    # -inf and -0: the one-format writer gives the per-value writer's text
    trace = run(FlowConfig("sum_power", 2.0, a=2.0, b=1.0, n_nodes=33, record_every=1))
    assert len(trace.records) == trace.steps + 1 > 100
    last = trace.records[-1]
    odd = [
        last._replace(t=math.nan, dt=math.inf, center_z=-0.0),
        last._replace(step=-1, pinch_sup=-math.inf, max_ratio=-0.0),
    ]
    for rows in (trace.records, odd, []):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_trace_csv(fast, TRACE_COLUMNS, rows)
        oracles.write_trace_csv_per_value(slow, TRACE_COLUMNS, rows)
        assert fast.read_text() == slow.read_text()
        if rows is odd:
            fields = fast.read_text().replace("\n", ",").split(",")
            assert {"nan", "inf", "-inf", "-0", "-1"} <= set(fields)
