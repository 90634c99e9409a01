import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from combust.model import (
    BASE_PARAMS,
    TYPICAL_RESERVOIR,
    TYPICAL_SCALES,
    DimensionalParams,
    DimensionlessParams,
    Scales,
    flux,
    flux_d,
    nondimensionalize,
    phi,
    phi_deta,
    phi_dtheta,
)


class TestNondimensionalize:
    def test_typical_values(self):
        p = nondimensionalize(TYPICAL_RESERVOIR, TYPICAL_SCALES)
        assert p.beta == 372.0 * 500.0 * 4e5 == 7.44e10
        assert p.e_act == pytest.approx(93.8, abs=0.05)
        assert p.theta0 == pytest.approx(3.67, abs=0.005)
        assert p.pe_t == pytest.approx(1406.0, abs=1.0)
        assert p.u == pytest.approx(3.74, abs=0.01)

    def test_identity_scales(self):
        dim = DimensionalParams(*([1.0] * 11))
        p = nondimensionalize(dim, Scales(1.0, 1.0, 1.0))
        assert (p.pe_t, p.beta, p.e_act, p.theta0, p.u) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError, match="lambda_th"):
            DimensionalParams(273.0, 2e6, 27.42, 0.0, 4e5, 0.0023, 58000.0, 500.0,
                              8.314, 101325.0, 372.0)
        with pytest.raises(ValueError, match="x_star"):
            Scales(-1.0, 1.0, 1.0)

    def test_theta0_whose_square_overflows_rejected(self):
        # F'(theta) squares theta0 as a Python float, which raises OverflowError
        # past sqrt(max float); the largest theta0 with a finite square is kept
        largest = math.sqrt(sys.float_info.max)
        assert replace(BASE_PARAMS, theta0=largest).theta0 == largest
        with pytest.raises(ValueError, match="theta0"):
            replace(BASE_PARAMS, theta0=1e200)
        with pytest.raises(ValueError, match="theta0"):
            nondimensionalize(TYPICAL_RESERVOIR, Scales(9.1e4, 1.48e8, 1e-200))

    def test_h_diff_inverse_of_peclet(self):
        assert BASE_PARAMS.h_diff * BASE_PARAMS.pe_t == pytest.approx(1.0, rel=1e-15)


class TestClosures:
    def test_flux_closed_forms(self):
        p = BASE_PARAMS
        assert flux(0.0, p) == 0.0
        assert flux(p.theta0, p) == pytest.approx(p.u * p.theta0 / 2.0, rel=1e-15)
        assert flux_d(0.0, p) == pytest.approx(p.u, rel=1e-15)

    def test_flux_increasing_below_asymptote(self):
        p = BASE_PARAMS
        theta = np.sort(np.random.default_rng(1).uniform(0.0, 100.0, 200))
        values = flux(theta, p)
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values < p.u * p.theta0)

    def test_phi_exhausted_fuel(self):
        p = BASE_PARAMS
        for theta in (0.0, 1.0, 10.0):
            assert phi(theta, 1.0, p) == 0.0

    def test_phi_cold_unburned_oracle(self):
        p = BASE_PARAMS
        expected = 7.44e10 * math.exp(-93.8 / 3.67)
        assert phi(0.0, 0.0, p) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.59, abs=0.01)

    def test_phi_sign_vs_eta(self):
        p = BASE_PARAMS
        assert phi(1.0, 0.5, p) > 0.0
        assert phi(1.0, 1.5, p) < 0.0

    def test_phi_deta_independent_of_eta(self):
        p = BASE_PARAMS
        # phi is affine in eta, so the eta-slope depends only on theta
        for theta in (0.0, 2.0):
            slopes = [(phi(theta, e + 1e-6, p) - phi(theta, e - 1e-6, p)) / 2e-6
                      for e in (0.0, 0.3, 0.9)]
            assert np.ptp(slopes) <= 1e-6 * abs(slopes[0])
            assert slopes[0] == pytest.approx(phi_deta(theta, p), rel=1e-8)


class TestAnalyticDerivatives:
    """Each analytic partial must match a central finite difference."""

    @pytest.fixture()
    def points(self):
        rng = np.random.default_rng(42)
        return rng.uniform(0.0, 10.0, 100), rng.uniform(0.0, 1.0, 100)

    def test_flux_d(self, points):
        p = BASE_PARAMS
        theta, _ = points
        step = 1e-6
        fd = (flux(theta + step, p) - flux(theta - step, p)) / (2.0 * step)
        np.testing.assert_allclose(flux_d(theta, p), fd, rtol=1e-6)

    def test_phi_dtheta(self, points):
        p = BASE_PARAMS
        theta, eta = points
        step = 1e-6
        fd = (phi(theta + step, eta, p) - phi(theta - step, eta, p)) / (2.0 * step)
        np.testing.assert_allclose(phi_dtheta(theta, eta, p), fd, rtol=1e-6)

    def test_phi_deta(self, points):
        p = BASE_PARAMS
        theta, eta = points
        step = 1e-6
        fd = (phi(theta, eta + step, p) - phi(theta, eta - step, p)) / (2.0 * step)
        np.testing.assert_allclose(phi_deta(theta, p), fd, rtol=1e-6)
