import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from combust.model import (
    BASE_PARAMS,
    TYPICAL_RESERVOIR,
    ClosureConstants,
    DimensionalParams,
    constant,
    flux,
    flux_d,
    nondimensionalize,
    phi,
    phi_deta,
    phi_dtheta,
)

from conftest import CONSTANT_PARAMS, same_double


class TestNondimensionalize:
    def test_typical_values(self):
        p = nondimensionalize(TYPICAL_RESERVOIR)
        assert p.beta == 372.0 * 500.0 * 4e5 == 7.44e10
        assert p.e_act == pytest.approx(93.8, abs=0.05)
        assert p.theta0 == pytest.approx(3.67, abs=0.005)
        assert p.pe_t == pytest.approx(1406.0, abs=1.0)
        assert p.u == pytest.approx(3.74, abs=0.01)

    def test_identity_scales(self):
        dim = DimensionalParams(t_res=1.0, lambda_th=1.0, q_r=1.0, u_inj=1.0, e_r=1.0, k_p=1.0,
                                r_gas=1.0, rho_f_res=1.0, x_star=1.0, t_star=1.0, dt_star=1.0)
        p = nondimensionalize(dim)
        assert (p.pe_t, p.beta, p.e_act, p.theta0, p.u) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError, match="lambda_th"):
            replace(TYPICAL_RESERVOIR, lambda_th=0.0)
        with pytest.raises(ValueError, match="x_star"):
            replace(TYPICAL_RESERVOIR, x_star=-1.0)

    def test_theta0_whose_square_overflows_rejected(self):
        # F'(theta) squares theta0 as a Python float, which raises OverflowError
        # past sqrt(max float); the largest theta0 with a finite square is kept
        largest = math.sqrt(sys.float_info.max)
        assert replace(BASE_PARAMS, theta0=largest).theta0 == largest
        with pytest.raises(ValueError, match="theta0"):
            replace(BASE_PARAMS, theta0=1e200)
        with pytest.raises(ValueError, match="theta0"):
            nondimensionalize(replace(TYPICAL_RESERVOIR, dt_star=1e-200))

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


class TestClosureConstants:
    @pytest.mark.parametrize("p", CONSTANT_PARAMS)
    def test_each_is_the_float_expression_it_replaces(self, p):
        expected = {"theta0": p.theta0, "neg_e_act": -p.e_act, "e_act": p.e_act, "beta": p.beta,
                    "neg_beta": -p.beta, "one": 1.0, "u_theta0": p.u * p.theta0,
                    "u_theta0_sq": p.u * p.theta0**2}
        c = ClosureConstants(p)
        assert set(ClosureConstants.__slots__) == set(expected)
        for name, value in expected.items():
            assert same_double(getattr(c, name), value), name

    def test_constant_is_read_only(self):
        c = constant(2.5)
        assert same_double(c, 2.5)
        with pytest.raises(ValueError):
            c[...] = 3.0


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
