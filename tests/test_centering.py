"""The centering target of the Newton direction: one gap target for every pair."""

import numpy as np
import pytest

from combust import mncp
from combust.mncp import MncpProblem, direction

from conftest import dense, evaluated


def diagonal_problem(slope, offset):
    """NCP with r(z) = slope * z + offset, one pair per entry."""
    return MncpProblem(
        n_pairs=slope.size,
        residual=lambda z: slope * z + offset,
        jacobian=dense(lambda z: np.diag(slope)),
    )


def test_scalar_target_hand_value():
    # r = z at z = (0.1, 1e-4): h = (1e-2, 1e-8), ||H|| = 1e-2 (1 + 5e-13)
    # and the gap mu = 5.000005e-3, so both pairs aim at min(1, ||H||) mu =
    # 5.000005e-5 (1 + 5e-13).  With the Newton matrix diag(z * 1 + r) =
    # diag(2 z) and sigma_c = 0.01, d = (-h + 5.000005e-7 (1 + 5e-13)) / (2 z):
    # pair 0 shrinks its product, and pair 1, far below the target, grows it.
    prob = diagonal_problem(np.ones(2), np.zeros(2))
    z = np.array([0.1, 1e-4])
    assert mncp._SIGMA_C == 0.01
    d, g_dot_d = direction(z, *evaluated(z, prob), prob)
    assert d[0] == pytest.approx(-0.04999749999749999875, rel=1e-13)
    assert d[1] == pytest.approx(0.0024500025000012500, rel=1e-13)
    h = z * z
    assert g_dot_d == pytest.approx(h @ (2.0 * z * d), rel=1e-13)


def test_no_centering_when_the_gap_is_negative():
    # r = z - 1 at z = (0.6, 1.15): h = (-0.24, 0.1725), so mu < 0 and
    # the target is 0, which leaves the plain Newton step d = -h / (2 z - 1)
    prob = diagonal_problem(np.ones(2), -np.ones(2))
    z = np.array([0.6, 1.15])
    r, h, s = evaluated(z, prob)
    assert h.mean() < 0.0
    d, g_dot_d = direction(z, r, h, s, prob)
    np.testing.assert_allclose(d, -h / (2.0 * z - 1.0), rtol=1e-14)
    assert g_dot_d == pytest.approx(-float(h @ h), rel=1e-14)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_descent_bound_with_many_skewed_pairs(sigma, monkeypatch):
    # grad(S)^T d <= -(1 - sigma_c) ||H||^2 for products over 20 decades, in
    # both regimes ||H|| >= 1 and ||H|| < 1, and for pair residuals of
    # either sign: every fourth trial has some h_i < 0 with mu > 0, and
    # every fourth has mu < 0
    rng = np.random.default_rng(17)
    monkeypatch.setattr(mncp, "_SIGMA_C", sigma)
    negative_gap = mixed_signs = 0
    for trial in range(40):
        n = int(rng.integers(200, 601))
        slope = rng.uniform(0.5, 2.0, n)
        offset = 10.0 ** rng.uniform(-8.0, 2.0, n)
        if trial % 4 == 2:
            offset[rng.random(n) < 0.2] *= -1.0
        elif trial % 4 == 3:
            offset[rng.random(n) < 0.8] *= -1.0
        prob = diagonal_problem(slope, offset)
        z = 10.0 ** rng.uniform(-8.0, 2.0, n) * (1e-6 if trial % 2 else 1.0)
        r, h, s = evaluated(z, prob)
        norm_h2 = float(h @ h)
        if (h < 0.0).any():
            if h.mean() < 0.0:
                negative_gap += 1
            else:
                mixed_signs += 1
        _, g_dot_d = direction(z, r, h, s, prob)
        assert g_dot_d <= -(1.0 - sigma) * norm_h2 * (1.0 - 1e-12)
    assert negative_gap >= 5 and mixed_signs >= 5
