"""Sign certification and threshold search."""

from fractions import Fraction

import mpmath
import pytest

from pinchflow import (
    BracketError,
    DomainError,
    RadiiPoint,
    SpeedFunction,
    certify_nonpositive,
    closed_numerator_coeffs,
    find_threshold,
    gradient_terms_gauss_closed,
    gradient_terms_general,
    log_ratio_grid,
    sign_scan,
)


def test_log_ratio_grid_shape():
    g = log_ratio_grid(1e6, 4096)
    assert g.size == 4096
    assert g[0] > 1 and g[-1] == pytest.approx(1e6)
    assert (g[1:] > g[:-1]).all()


def test_sign_scan_frozen_gauss():
    assert sign_scan(SpeedFunction("gauss_power", 2.0)).verdict == "nonpositive_sampled"
    assert sign_scan(SpeedFunction("gauss_power", 0.5)).verdict == "nonpositive_sampled"
    rep = sign_scan(SpeedFunction("gauss_power", 0.4))
    assert rep.verdict == "violated"
    assert rep.witness_t is not None and rep.witness_q > 0


def test_sign_scan_alpha1_universal():
    for fam in ("gauss_power", "mean_power", "norm_power", "sum_power"):
        assert sign_scan(SpeedFunction(fam, 1.0)).verdict == "nonpositive_sampled"


def test_sign_scan_witness_is_real():
    # the scan's witness must reproduce as a positive Q at the same point
    rep = sign_scan(SpeedFunction("mean_power", 6.0))
    assert rep.verdict == "violated"
    q1, q2 = gradient_terms_general(
        SpeedFunction("mean_power", 6.0), RadiiPoint(1.0, rep.witness_t)
    )
    assert max(q1, q2) == pytest.approx(rep.witness_q, rel=1e-9)
    assert rep.witness_q > 0


def test_certify_gauss_certified_range():
    for alpha in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0):
        rep = certify_nonpositive("gauss_power", alpha=alpha)
        assert rep.verdict == "nonpositive_certified", alpha
        assert rep.tail == "certified"
        assert rep.q1_max <= 0 and rep.q2_max <= 0


def test_certify_gauss_leading_coefficients():
    # alpha=1.5: both leading coefficients negative, reported in the method
    rep = certify_nonpositive("gauss_power", alpha=1.5)
    c3 = closed_numerator_coeffs(1.5)[0]
    assert c3 == Fraction(-1)
    assert "leading" in rep.method


def test_certify_gauss_violations_with_witness():
    for alpha in (0.4, 2.1, 3.0):
        rep = certify_nonpositive("gauss_power", alpha=alpha)
        assert rep.verdict == "violated", alpha
        assert rep.witness_t is not None and rep.witness_q > 0
        # the reported value is the failing Q_i at the witness (150-bit
        # evaluation there; float evaluation here)
        q1, q2 = gradient_terms_gauss_closed(RadiiPoint(1.0, rep.witness_t), alpha)
        assert max(q1, q2) == pytest.approx(rep.witness_q, rel=1e-9), alpha
        # confirm the witness against high-precision closed evaluation
        c3, c2, c1, c0 = (float(c) for c in closed_numerator_coeffs(alpha))
        with mpmath.workprec(120):
            t = mpmath.mpf(rep.witness_t)
            n1 = ((c3 * t + c2) * t + c1) * t + c0
            n2 = (((c0 * t + c1) * t + c2) * t + c3) * t * t
        assert max(n1, n2) > 0


def test_certify_interval_families():
    rep = certify_nonpositive("mean_power", alpha=3.0)
    assert rep.verdict == "nonpositive_sampled"
    assert rep.tail == "sampled"
    rep = certify_nonpositive("norm_power", alpha=8.0)
    assert rep.verdict == "nonpositive_sampled"
    rep = certify_nonpositive("mean_power", alpha=6.0)
    assert rep.verdict == "violated"
    assert rep.witness_q > 0


def test_certify_sum_power_and_cap():
    rep = certify_nonpositive("sum_power", alpha=50.0, t_max=1e4)
    assert rep.verdict.startswith("nonpositive")
    with pytest.raises(DomainError):
        certify_nonpositive("sum_power", alpha=101.0)


def test_certify_validates_t_max():
    with pytest.raises(DomainError):
        certify_nonpositive("gauss_power", alpha=1.0, t_max=1.5)


def test_report_shape_and_serialization():
    rep = certify_nonpositive("gauss_power", alpha=2.0)
    doc = rep.to_json_dict()
    assert doc["verdict"] == "nonpositive_certified"
    assert doc["region"]["t_lo"] == 1.0
    from pinchflow.reports import canonical_json

    text = canonical_json(doc)
    assert '"rational":true' in text  # exact zero bounds survive as rationals
    with pytest.raises(ValueError):
        # a violation without a witness is not a legal report
        type(rep)(
            family="gauss_power",
            alpha=3.0,
            t_lo=1.0,
            t_hi=10.0,
            q1_max=1.0,
            q2_max=0.0,
            verdict="violated",
        )


def test_threshold_gauss():
    res = find_threshold("gauss_power", (1.5, 3.0), 0.01)
    assert res.width <= 0.01
    assert res.alpha_lo <= 2.0 <= res.alpha_hi
    assert res.probes  # bisection history retained


def test_threshold_non_bracketing():
    with pytest.raises(BracketError):
        find_threshold("gauss_power", (0.6, 1.9), 0.05)


def test_scale_invariance_of_scan_grid():
    # Q signs depend only on the ratio; scanning scaled grids agrees
    rep1 = sign_scan(SpeedFunction("gauss_power", 2.05), ratio_grid=log_ratio_grid(1e5, 512))
    rep2 = sign_scan(SpeedFunction("gauss_power", 2.05), ratio_grid=log_ratio_grid(1e5, 1024))
    assert rep1.verdict == rep2.verdict == "violated"
