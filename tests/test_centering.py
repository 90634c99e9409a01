"""The centering target of the Newton direction: gap term with a per-pair floor."""

import numpy as np
import pytest

from combust import mncp
from combust.mncp import MncpProblem, SolverOptions, direction, merit_vector

from conftest import dense


def diagonal_problem(slope, offset):
    """NCP with r(z) = slope * z + offset, one pair per entry."""
    return MncpProblem(
        size=slope.size, comp_index=np.arange(slope.size),
        residual=lambda z: slope * z + offset,
        jacobian=dense(lambda z: np.diag(slope), np.arange(slope.size)),
    )


def test_floor_binds_on_one_pair():
    # r = z at z = (0.1, 0.001): h = (1e-2, 1e-6), ||H|| ~ 1e-2 and the gap
    # mu ~ 5e-3, so the gap target min(1, ||H||) mu ~ 5e-5 lies between the
    # floors kappa h = (2e-4, 2e-8): pair 0 takes its floor, pair 1 the gap.
    prob = diagonal_problem(np.ones(2), np.zeros(2))
    z = np.array([0.1, 0.001])
    h = z * z
    sigma = 0.5
    kappa = mncp._KAPPA
    target_gap = np.sqrt(h @ h) * h.mean()
    assert kappa * h[1] < target_gap < kappa * h[0]

    d, g_dot_d = direction(z, prob, SolverOptions(sigma_c=sigma))
    # Newton matrix diag(z * 1 + r) = diag(2 z)
    expected = np.array([-h[0] * (1.0 - sigma * kappa), -h[1] + sigma * target_gap]) / (2.0 * z)
    np.testing.assert_allclose(d, expected, rtol=1e-13)
    assert d[0] == pytest.approx(-0.0495, rel=1e-13)
    assert g_dot_d == pytest.approx(h @ (2.0 * z * expected), rel=1e-13)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_descent_bound_with_many_skewed_pairs(sigma):
    # grad(S)^T d <= -(1 - sigma_c) ||H||^2 must survive the floor, which can
    # only bind above the gap target when there are more than 1/kappa pairs
    # or ||H|| < 1, so both regimes are sampled with products over 20 decades.
    rng = np.random.default_rng(17)
    opts = SolverOptions(sigma_c=sigma)
    floor_bound = {True: 0, False: 0}    # keyed by ||H|| >= 1
    for trial in range(40):
        n = int(rng.integers(200, 601))
        slope = rng.uniform(0.5, 2.0, n)
        offset = 10.0 ** rng.uniform(-8.0, 2.0, n)
        prob = diagonal_problem(slope, offset)
        z = 10.0 ** rng.uniform(-8.0, 2.0, n) * (1e-6 if trial % 2 else 1.0)
        r = prob.residual(z)
        h = merit_vector(z, r, prob)
        norm_h2 = float(h @ h)
        gap_target = min(1.0, np.sqrt(norm_h2)) * h.mean()
        if (mncp._KAPPA * h > gap_target).any():
            floor_bound[norm_h2 >= 1.0] += 1
        _, g_dot_d = direction(z, prob, opts, r=r, h=h)
        assert g_dot_d <= -(1.0 - sigma) * norm_h2 * (1.0 - 1e-12)
    assert min(floor_bound.values()) >= 5
