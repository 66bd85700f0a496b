"""Sign certification and threshold search."""

import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pinchflow import (
    BracketError,
    DomainError,
    RadiiPoint,
    SignBudgetError,
    SpeedFunction,
    certificates,
    certify_nonpositive,
    find_threshold,
    gradient_terms_gauss_closed,
    gradient_terms_general,
    log_ratio_grid,
    sign_scan,
)
from pinchflow.certificates import (
    _alpha_table,
    _certify_numerator,
    _nonpositive_on,
    _power_sum_terms,
)
from pinchflow.pinching import (
    _closed_numerator_ints,
    _gdot,
    _gradient_terms_raw,
    _normalize,
    _power_sum_p,
    _power_sum_table,
    _raw_arrays,
    horner,
)

import oracles


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
    c3 = oracles.numerator_coeffs_oracle(1.5)[0]
    assert c3 == Fraction(-1)
    assert "leading" in rep.method


# each side's bound on an exact violated verdict, from the sign engine alone:
# Fraction(0) where it certified that numerator, None where it found a witness
EXACT_SIDES = {
    ("gauss_power", 0.4): (None, 0),
    ("gauss_power", 2.1): (None, None),
    ("gauss_power", 3.0): (None, None),
    ("mean_power", 5.1875): (0, None),
    ("mean_power", 6.0): (None, None),
    ("norm_power", 8.1875): (0, None),
    ("norm_power", 9.0): (0, None),
    ("sum_power", 0.375): (None, 0),
}


def no_scan(*args, **kwargs):
    raise AssertionError("sign_scan ran")


def test_certify_gauss_violations_with_witness(monkeypatch):
    # exact verdicts run no float scan
    monkeypatch.setattr(certificates, "sign_scan", no_scan)
    for alpha in (0.4, 2.1, 3.0):
        rep = certify_nonpositive("gauss_power", alpha=alpha)
        assert rep.verdict == "violated", alpha
        assert rep.witness_t is not None and rep.witness_q > 0
        assert (rep.q1_max, rep.q2_max) == EXACT_SIDES["gauss_power", alpha]
        assert "sampled" not in rep.method
        # the reported value is the failing Q_i at the witness (150-bit
        # evaluation there; float evaluation here)
        q1, q2 = gradient_terms_gauss_closed(RadiiPoint(1.0, rep.witness_t), alpha)
        assert max(q1, q2) == pytest.approx(rep.witness_q, rel=1e-9), alpha
        # confirm the witness against high-precision closed evaluation
        c3, c2, c1, c0 = (float(c) for c in oracles.numerator_coeffs_oracle(alpha))
        with mpmath.workprec(120):
            t = mpmath.mpf(rep.witness_t)
            n1 = ((c3 * t + c2) * t + c1) * t + c0
            n2 = (((c0 * t + c1) * t + c2) * t + c3) * t * t
        assert max(n1, n2) > 0


# certify_nonpositive's verdict on the three power-sum families
POWER_SUM_LADDER = [
    *(("mean_power", a, "nonpositive_certified") for a in (3.0, 4.5, 5.15625)),
    *(("mean_power", a, "violated") for a in (5.1875, 6.0)),
    *(("norm_power", a, "nonpositive_certified") for a in (7.0, 8.0, 8.125)),
    *(("norm_power", a, "violated") for a in (8.1875, 9.0)),
    *(
        ("sum_power", a, "nonpositive_certified")
        for a in (0.5, 0.7, 1.5, 3.0, 3.3, 10.0, 10.7, 50.0, 100.0)
    ),
    ("sum_power", 0.3, "violated"),
    ("sum_power", 0.375, "violated"),  # exact witness at t ~ 33.43, q = 8
    ("sum_power", 0.38, "inconclusive"),
    ("sum_power", 0.390625, "nonpositive_certified"),  # sandwich at q = 8
]


def q_reference(family, alpha, t):
    """(Q1, Q2) at r = (1, t) from sympy's exact derivatives at 50 digits: the
    float routes lose up to ~1e-9 to cancellation next to a sign change."""
    with mpmath.workdps(50):
        fd = oracles.sympy_f_derivs(family, alpha, 1, t, convert=mpmath.mpf)
        q1, q2 = _normalize(*_gradient_terms_raw(fd, mpmath.mpf(t) - 1), fd[0])
        return float(q1), float(q2)


@pytest.mark.parametrize("family, alpha, verdict", POWER_SUM_LADDER)
def test_certify_power_sum_ladder(family, alpha, verdict, monkeypatch):
    rep = certify_nonpositive(family, alpha=alpha)
    assert rep.verdict == verdict
    assert "pieces" not in rep.method
    # only sum_power's fallback scans; an exact verdict is the same without it
    scanned = rep.method.startswith("scan(")
    monkeypatch.setattr(certificates, "sign_scan", no_scan)
    if scanned:
        with pytest.raises(AssertionError, match="sign_scan ran"):
            certify_nonpositive(family, alpha=alpha)
    else:
        assert certify_nonpositive(family, alpha=alpha) == rep
    if verdict == "nonpositive_certified":
        assert rep.tail == "certified"
        assert rep.q1_max == rep.q2_max == Fraction(0)
        return
    if verdict == "inconclusive":
        assert scanned and rep.witness_t is None
        return
    assert rep.witness_q > 0
    q1, q2 = q_reference(family, alpha, rep.witness_t)
    assert max(q1, q2) == pytest.approx(rep.witness_q, rel=1e-9)
    # an exact witness covers the tail; a scan witness does not
    assert rep.tail == ("none" if scanned else "certified")
    if not scanned:
        assert (rep.q1_max, rep.q2_max) == EXACT_SIDES[family, alpha]


def grid_numerators():
    """(family, alpha, numerator) for every numerator in x alone on a grid:
    gauss at k/16 up to 6, mean and norm at k/4 up to 12, sum at 1 to 20."""
    grid = [("gauss_power", k / 16) for k in range(1, 97)]
    grid += [(f, k / 4) for f in ("mean_power", "norm_power") for k in range(1, 49)]
    grid += [("sum_power", float(k)) for k in range(1, 21)]
    for family, alpha in grid:
        if family == "gauss_power":
            numerators = _closed_numerator_ints(alpha)[1:]
        else:
            terms, exact = _power_sum_terms(family, Fraction(alpha), 1)
            assert exact
            numerators = [term.numerator(1, alpha)[0] for term in terms]
        for coeffs in numerators:
            yield family, alpha, coeffs


def test_descartes_matches_sturm_reference():
    # the bisected-ray decision against the Sturm engine it replaced
    violated = 0
    for family, alpha, coeffs in grid_numerators():
        old = oracles.sturm_certify_numerator(coeffs, Fraction(10**6))
        new = _certify_numerator(coeffs)
        assert (old is None) == (new is None), (family, alpha)
        if new is not None:
            violated += 1
            assert new > 1 and horner(coeffs, new) > 0, (family, alpha)
            assert abs(new - old) <= old / 2**15, (family, alpha)
    assert violated  # gauss, mean and norm cross their thresholds on the grid


def test_nonpositive_on_intervals_and_rays():
    assert _nonpositive_on([1, -3], 1, 3)  # x - 3 <= 0 on [1, 3]
    assert not _nonpositive_on([1, -3], 1, 4)
    assert _nonpositive_on([1, -3], 1, 10, 2)  # on [1/4, 5/2]
    assert _nonpositive_on([1, -3], 1, 12, 2)  # on [1/4, 3], its root an end
    assert not _nonpositive_on([1, -3], 1, 13, 2)  # on [1/4, 13/4]
    assert not _nonpositive_on([1, -3], 3)  # p(3 + u) = u
    assert _nonpositive_on([-1, 4, -4], 2)  # -(x - 2)^2 from its root on
    assert _nonpositive_on([-1, 4, -4], 8, None, 2)  # the same ray, as 8/4
    assert not _nonpositive_on([-1, 4, -4], 7, None, 2)  # -(u - 1/4)^2 from 7/4
    assert _nonpositive_on([], 1)


def test_integer_engine_matches_fraction_oracle(monkeypatch):
    # every numerator certify_nonpositive decides at alpha = k/16 (gauss in
    # (0, 4], mean in (0, 7.5], norm in (0, 10], sum_power in (0, 12] where
    # its q reaches an exact build), and the tangency examples: the integer
    # pieces and the Fraction engine they replaced give the same verdict
    # and the same witness rational; every family hands over lists of ints
    seen = []
    monkeypatch.setattr(certificates, "_certify_numerator", seen.append)
    grid = {"gauss_power": 64, "mean_power": 120, "norm_power": 160, "sum_power": 192}
    for family, top in grid.items():
        for k in range(1, top + 1):
            certify_nonpositive(family, k / 16)
    assert len(seen) > 2 * (64 + 120 + 160)  # Q1 and Q2 of each, and some sum_power
    assert all(type(p) is list and all(type(c) is int for c in p) for p in seen)
    seen += [[-1, 4, -4], [3, -6, -6, 9, 9, -9]]
    violated = 0
    for coeffs in seen:
        witness = _certify_numerator(coeffs)
        assert witness == oracles.fraction_certify_numerator(coeffs), coeffs
        violated += witness is not None
    assert violated > 100
    # tangencies off the dyadics exhaust both engines' budgets
    monkeypatch.setattr(certificates, "_PIECE_BUDGET", 300)
    for coeffs in ([-9, 42, -49], [-1, 0, 4, 0, -4]):  # -(3x - 7)^2, -(x^2 - 2)^2
        with pytest.raises(SignBudgetError):
            _certify_numerator(coeffs)
        with pytest.raises(SignBudgetError):
            oracles.fraction_certify_numerator(coeffs, budget=300)


def test_certify_numerator_double_root_at_one():
    # 3 (x - 1)^2 (x^3 - 3x - 3), positive past the cubic's root near 2.1
    coeffs = [3, -6, -6, 9, 9, -9]
    witness = _certify_numerator(coeffs)
    assert witness > 1 and horner(coeffs, witness) > 0


def test_certify_numerator_dyadic_tangency():
    assert _certify_numerator([-1, 4, -4]) is None  # -(x - 2)^2


def test_certify_numerator_tangency_off_dyadic_exhausts_budget():
    # -(3x - 7)^2: no piece around 7/3 passes Descartes' rule and no midpoint
    # is positive, so the search gives up rather than decide
    with pytest.raises(SignBudgetError):
        _certify_numerator([-9, 42, -49])


@pytest.mark.parametrize(
    "family, alpha", [("mean_power", 3.0), ("norm_power", 7.0), ("sum_power", 3.0)]
)
def test_ring_numerators_match_raw_arrays(family, alpha):
    # N_i = D t^-lo w^-k Qraw_i, with Qraw_i the table's raw Q; the table's
    # normalized Q is Qraw_i (-2/f) / g_i^2 / S^(2 - alpha/p)
    t = np.geomspace(1.5, 1e3, 200)
    terms, exact = _power_sum_terms(family, Fraction(alpha), 1)
    assert exact
    p = _power_sum_p(family, alpha)
    fd = _power_sum_table(alpha, p, 1.0, t**-p, 1.0, 1 / t)
    g = _gdot(fd, t - 1)
    scale = 1.0 if alpha == p else (1 + t**-p) ** (2 - alpha / p)
    for term, g_i, q_i in zip(terms, g, _raw_arrays(family, alpha, t)):
        (coeffs,) = term.numerator(1, alpha)
        k = min(w for _, _, w, _ in term.at(alpha)[1].terms)
        n = horner([float(c) for c in coeffs], t) * (t - 1) ** k
        q = n * (-2 / fd[0]) / (g_i * g_i) / scale
        # D t^-lo: a positive constant times an integer power of t
        lo = round(float(np.log(q[-1] / q_i[-1] * q_i[0] / q[0]) / np.log(t[0] / t[-1])))
        factor = q[0] / q_i[0] * t[0] ** lo
        assert factor > 0
        np.testing.assert_allclose(q * t**lo / factor, q_i, rtol=1e-12)


@pytest.mark.parametrize("family", ["mean_power", "norm_power"])
def test_alpha_table_matches_per_alpha_build(family):
    # every k/16 in (0, 12]: the alpha == p table (mean 1, norm 2) and the
    # neighbourhoods of both thresholds (5.16, 8.16)
    assert max(a for term in _alpha_table(family, False) for *_, a in term.terms) == 3
    for k in range(1, 193):
        terms, exact = _power_sum_terms(family, Fraction(k, 16), 1)
        assert exact
        table = [term.numerator(1, Fraction(k, 16)) for term in terms]
        assert table == oracles.power_sum_numerators(family, k / 16), k


def test_certify_sum_power_and_cap():
    rep = certify_nonpositive("sum_power", alpha=50.0, t_max=1e4)
    assert rep.verdict.startswith("nonpositive")
    with pytest.raises(DomainError):
        certify_nonpositive("sum_power", alpha=101.0)


def test_certify_validates_t_max():
    for t_max in (1.5, float("inf")):
        with pytest.raises(DomainError):
            certify_nonpositive("gauss_power", alpha=1.0, t_max=t_max)


def test_report_shape_and_serialization():
    rep = certify_nonpositive("gauss_power", alpha=2.0)
    from pinchflow.reports import canonical_json

    text = canonical_json(rep)
    doc = json.loads(text)
    assert doc["verdict"] == "nonpositive_certified"
    assert doc["t_lo"] == 1.0
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
