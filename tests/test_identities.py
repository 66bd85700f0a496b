"""The identity suites' array evaluation against the per-draw and
per-alpha references."""

import numpy as np
import pytest

from pinchflow.errors import DomainError
from pinchflow.identities import (
    _agreement_grid,
    _reduction_rows,
    closed_agreement_suite,
    reduction_suite,
    run_all,
    z_residual_suite,
)
from pinchflow.pinching import _raw_arrays, gradient_terms_general_arrays
from pinchflow.reports import canonical_json
from pinchflow.speeds import FAMILIES, SpeedFunction

import oracles

SUITES = (
    (z_residual_suite, oracles.z_residual_suite_loop),
    (reduction_suite, oracles.reduction_suite_loop),
)

# seeds 7, 17, 34, 134 and 310 are the reduction suite's known red
CASES = [
    (seed, draws)
    for seed in (0, 1, 7, 17, 34, 134, 310, 12345)
    for draws in (1, 3, 2000)
] + [(0, 10000), (134, 10000)]


@pytest.mark.parametrize("seed,draws", CASES)
def test_suites_match_per_draw_reference(seed, draws):
    for suite, reference in SUITES:
        got = canonical_json(suite(draws=draws, seed=seed))
        assert got == canonical_json(reference(draws=draws, seed=seed)), suite.__name__


@pytest.mark.parametrize("seed", [0, 7, 17, 34, 134, 310, 12345])
@pytest.mark.parametrize("draws", [-3, 0, 1, 2, 3, 4, 5, 1000])
def test_reduction_rows_match_per_scalar_draws(draws, seed):
    rows = _reduction_rows(draws, seed)
    assert rows.shape == (max(draws, 0), 6)
    assert np.array_equal(rows, oracles.reduction_rows_loop(draws, seed))


@pytest.mark.parametrize("draws", [0, -3])
def test_suites_reject_no_draws(draws):
    # a suite without draws would pass on nothing, and numpy rejects a
    # negative seed with a bare ValueError
    for suite, _ in SUITES:
        with pytest.raises(DomainError, match="draws must be >= 1"):
            suite(draws=draws, seed=0)
        with pytest.raises(DomainError, match="seed >= 0"):
            suite(draws=10, seed=-1)
    for kwargs in ({"draws": draws}, {"seed": -1}):
        with pytest.raises(DomainError):
            run_all(**kwargs)


@pytest.mark.parametrize("draws", [1, 2, 3])
def test_suites_with_empty_families(draws):
    # fewer draws than families: the families past the last draw get none
    for suite, reference in SUITES:
        res = suite(draws=draws, seed=12345)
        assert res["worst_case"]["family"] in FAMILIES[:draws]
        assert canonical_json(res) == canonical_json(reference(draws=draws, seed=12345))


def test_closed_agreement_matches_per_alpha_reference():
    got = canonical_json(closed_agreement_suite(n_t=64, n_alpha=64))
    assert got == canonical_json(oracles.closed_agreement_suite_loop(n_t=64, n_alpha=64))


@pytest.mark.parametrize("n_t,n_alpha", [(64, 64), (16, 7), (5, 64), (3, 1)])
def test_closed_agreement_grid_entries_match_per_alpha(n_t, n_alpha):
    # a broadcast exponent column misses numpy's scalar-exponent fast paths
    # (reciprocal, sqrt, square), so rows with alpha in {0.5, 1, 1.5, 2} can
    # differ from the per-alpha route in the last bits; no other row may
    t = np.geomspace(1e3 ** (1.0 / n_t), 1e3, n_t)
    alpha = np.linspace(0.5, 2.0, n_alpha)
    for family in FAMILIES:
        raw, closed = _agreement_grid(family, alpha[:, None], t)
        for row, a in enumerate(map(float, alpha)):
            expected = (
                _raw_arrays(family, a, t),
                gradient_terms_general_arrays(SpeedFunction(family, a), t),
            )
            for got, want in zip((raw[row], closed[row]), expected):
                if a in (0.5, 1.0, 1.5, 2.0):
                    np.testing.assert_allclose(got, want, rtol=1e-14)
                else:
                    np.testing.assert_array_equal(got, want)
