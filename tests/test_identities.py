"""The identity suites' array evaluation against the per-draw reference."""

import pytest

from pinchflow.identities import reduction_suite, z_residual_suite
from pinchflow.reports import canonical_json
from pinchflow.speeds import FAMILIES

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


@pytest.mark.parametrize("draws", [0, -3])
def test_suites_without_draws(draws):
    for suite, reference in SUITES:
        res = suite(draws=draws, seed=0)
        assert res["worst_ratio"] == 0.0
        assert res["worst_case"] is None
        assert res["pass"] is True
        assert res["draws"] == draws
        assert canonical_json(res) == canonical_json(reference(draws=draws, seed=0))


@pytest.mark.parametrize("draws", [1, 2, 3])
def test_suites_with_empty_families(draws):
    # fewer draws than families: the families past the last draw get none
    for suite, reference in SUITES:
        res = suite(draws=draws, seed=12345)
        assert res["worst_case"]["family"] in FAMILIES[:draws]
        assert canonical_json(res) == canonical_json(reference(draws=draws, seed=12345))
