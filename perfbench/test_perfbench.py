"""The benchmark's own rules on fixed inputs.

    python3 -m pytest perfbench -q
"""

import pytest

from summary import calibrated_cost, paired_verdict, parse_pieces, tail_percentile
from tracing import layer_metrics, self_times


def span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, note]


def test_self_time_subtracts_children():
    spans = [
        span("op", 0.0, 10.0),
        span("flow.run", 1.0, 9.0, 0, (100, 3)),
        span("flow.diagnostics", 2.0, 3.0, 1),
        span("flow.diagnostics", 5.0, 5.5, 1),
        span("flow.extinction", 8.0, 8.25, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 6.25, 1.0, 0.5, 0.25])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 4.0), span("b", 1.0, 3.0, 0), span("c", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_flow_and_interval_certificates():
    spans = [
        span("op:flow_s", 0.0, 10.0),
        span("flow.run", 0.0, 10.0, 0, (1000, 11)),
        span("flow.diagnostics", 1.0, 2.0, 1),
        span("op:certify_s", 10.0, 14.0),
        span("certificates.certify", 10.0, 14.0, 3, ("sum_power", "x, 500 pieces; y")),
        span("certificates.scan", 10.0, 11.0, 4),
        span("pinching.arrays", 10.2, 10.7, 5),
        span("certificates.certify", 14.0, 14.5, -1, ("gauss_power", "sturm_exact")),
        span("certificates.certify", 15.0, 17.0, -1, ("mean_power", "gave up")),
        span("certificates.scan", 16.0, 16.5, 8),
    ]
    m = layer_metrics(spans)
    assert m["flow.steps"] == 1000 and m["flow.records"] == 11
    assert m["flow.self_s"] == pytest.approx(9.0)
    assert m["flow.us_per_step"] == pytest.approx(9000.0)
    assert m["flow.diagnostics_ms"] == pytest.approx(1000.0)
    assert m["certificates.pieces"] == 500
    # (4 s certificate - 1 s scan) / 500 pieces; the probe that gave up
    # counts toward neither
    assert m["certificates.ms_per_piece"] == pytest.approx(6.0)
    assert m["certificates.scan_ms"] == pytest.approx(1500.0)
    assert m["certificates.sturm_ms"] == pytest.approx(500.0)
    assert m["pinching.arrays_ms"] == pytest.approx(500.0)


def test_layer_metrics_cli_self_time_excludes_flow_and_reports():
    spans = [
        span("op:sweep_s", 0.0, 10.0),
        span("flow.run", 1.0, 6.0, 0, (50, 51)),
        span("flow.diagnostics", 2.0, 4.0, 1),
        span("reports.write", 6.0, 7.5, 0),
    ]
    m = layer_metrics(spans, reports_bytes=1234)
    assert m["cli.self_ms"] == pytest.approx(3500.0)
    assert m["reports.write_ms"] == pytest.approx(1500.0)
    assert m["reports.bytes"] == 1234


@pytest.mark.parametrize(
    "method, pieces",
    [
        ("interval(raw) certificate on (1, t_max], 3234 pieces; maxima sampled"
         " (normalized); tail sampled (alpha cap 100)", 3234),
        ("interval(raw) gave up: piece budget exceeded", 0),
        ("sturm_exact(numerators, cauchy tail); leading coeffs: q1 -1, q2 -2", 0),
        ("scan pre-pass", 0),
        ("interval(raw) certificate on (1, t_max], 1 pieces; x + scan fallback", 1),
    ],
)
def test_parse_pieces(method, pieces):
    assert parse_pieces(method) == pieces


@pytest.mark.parametrize(
    "n, label",
    [(1, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
     (200, "95"), (1000, "99"), (10000, "99.9"), (99999, "99.9"), (100000, "99.99")],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, label):
    samples = list(range(n))
    got = tail_percentile(samples)
    if label is None:
        assert got is None
        return
    assert got[0] == label
    assert sum(s > got[1] for s in samples) >= 10


def test_paired_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [p - 1.0 for p in parent]
    assert paired_verdict(parent, faster, 0.1)["verdict"] == "gain"
    assert paired_verdict(parent, list(parent), 0.1)["verdict"] == "unchanged"
    slower = [p * 1.2 for p in parent]
    assert paired_verdict(parent, slower, 0.1)["verdict"] == "regression"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert paired_verdict(parent, noisy, 0.1)["verdict"] == "unresolved"
    assert paired_verdict([0.0] * 10, [0.0] * 10, 0.1)["verdict"] == "n/a"
    # 8/10 wins is short of nine tenths, however large the gap
    eight = faster[:8] + parent[8:]
    assert paired_verdict(parent, eight, 0.1)["wins"] == 8
    assert paired_verdict(parent, eight, 0.1)["verdict"] != "gain"


def test_calibrated_cost_divides_each_segment_by_its_neighbouring_calibrations():
    # a 1 s operation between loops of 0.02 s and 0.03 s, then a 2 s one
    # cut in two by a checkpoint, ending with a 0.02 s loop
    segments = [(1.0, 0), (0.5, 1), (1.5, 2)]
    cal = [0.02, 0.03, 0.03, 0.02]
    assert calibrated_cost(segments, cal) == pytest.approx(40.0 + 0.5 / 0.03 + 60.0)


def test_calibrated_cost_cancels_a_uniform_host_slowdown():
    segments = [(1.0, 0), (2.0, 1)]
    cal = [0.02, 0.02, 0.02]
    slow = [(1.7 * t, k) for t, k in segments]
    assert calibrated_cost(slow, [1.7 * c for c in cal]) == pytest.approx(
        calibrated_cost(segments, cal)
    )
