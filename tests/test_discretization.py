import warnings

import numpy as np
import pytest

from combust import mncp
from combust.discretization import (
    Grid,
    NumericError,
    SchemeCache,
    State,
    StepJacobian,
    THETA_B,
    ThetaJacobian,
    assemble_LD,
    assemble_LDQ,
    assemble_matrices,
    assemble_P,
    constant,
    jacobian,
    residual,
)
from combust.mncp import direction
from combust.model import (
    BASE_PARAMS,
    DimensionlessParams,
    flux,
    flux_d,
    phi,
    phi_deta,
    phi_dtheta,
)
from combust.timestepper import MNCP, NCP

from conftest import (CONSTANT_PARAMS, DenseJacobian, MncpProblem, a_dense, b_dense, evaluated,
                      same_double, stacked_terms, to_dense)

# grid with h = 1, k = 0.2, h_diff = 0.5 -> mu * h_diff = 0.1
UNIT_PARAMS = DimensionlessParams(pe_t=2.0, beta=1.0, e_act=1.0, theta0=1.0, u=1.0)
UNIT_GRID = Grid(length=3.0, m=3, k=0.2, n_steps=1)
EPS = np.finfo(float).eps


def base_grid(m=10):
    return Grid(length=0.05, m=m, k=1e-5, n_steps=1)


def level_of(state, cache):
    """The stacked level data (LD; LDQ) of a state."""
    return np.concatenate((assemble_LD(state, cache), assemble_LDQ(state, cache)))


def theta_level_of(state, cache):
    """The level data (LD; beta (2 - LDQ)) of the theta problem of a state."""
    ldq = assemble_LDQ(state, cache)
    return np.concatenate((assemble_LD(state, cache), cache.params.beta * (2.0 - ldq)))


class TestGrid:
    def test_derived_coefficients(self):
        g = base_grid(50)
        assert g.h == pytest.approx(0.001)
        assert g.lambda_s * g.h == pytest.approx(g.k, rel=1e-15)
        assert g.mu * g.h**2 == pytest.approx(g.k, rel=1e-15)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            Grid(length=1.0, m=1, k=0.1, n_steps=1)

    @pytest.mark.parametrize("length, k", [
        (np.nan, 0.1), (np.inf, 0.1), (0.0, 0.1), (1.0, np.nan), (1.0, np.inf), (1.0, 0.0),
    ])
    def test_length_and_step_positive_and_finite(self, length, k):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(length=length, m=4, k=k, n_steps=1)


class TestAssembleMatrices:
    def test_small_instance(self):
        cache = assemble_matrices(UNIT_GRID, UNIT_PARAMS)
        expected = np.array([
            [4.4, -0.2, 0.0],
            [-0.2, 4.4, -0.2],
            [0.0, -0.4, 4.4],
        ])
        np.testing.assert_allclose(a_dense(cache), expected, rtol=1e-15)

    def test_a_plus_b_is_eight_identity(self):
        for m in (2, 3, 17):
            cache = assemble_matrices(base_grid(m), BASE_PARAMS)
            total = a_dense(cache) + b_dense(cache)
            np.testing.assert_array_equal(total, 8.0 * np.eye(m))

    def test_row_sums(self):
        cache = assemble_matrices(base_grid(12), BASE_PARAMS)
        muh = cache.grid.mu * BASE_PARAMS.h_diff
        sums = a_dense(cache).sum(axis=1)
        assert sums[0] == pytest.approx(4.0 + 2.0 * muh, rel=1e-14)
        np.testing.assert_allclose(sums[1:], 4.0, rtol=1e-14)

    @pytest.mark.parametrize("grid", [UNIT_GRID, base_grid(12)], ids=["unit", "base"])
    @pytest.mark.parametrize("p", CONSTANT_PARAMS)
    def test_constants_are_the_float_expressions_they_replace(self, grid, p):
        muh = grid.mu * p.h_diff
        k = grid.k
        lam = grid.lambda_s
        expected = {"a_diag": 4.0 + 4.0 * muh, "a_off": -2.0 * muh, "a_corner": 2.0 * (-2.0 * muh),
                    "b_diag": 4.0 - 4.0 * muh, "b_off": 2.0 * muh, "k": k, "two_k": 2.0 * k,
                    "neg_k": -k, "two": 2.0, "k_beta": k * p.beta, "lambda_s": lam,
                    "theta0": p.theta0, "neg_e_act": -p.e_act, "e_act": p.e_act, "beta": p.beta,
                    "one": 1.0, "lam_u_theta0": lam * (p.u * p.theta0),
                    "lam_u_theta0_sq": lam * (p.u * p.theta0**2), "four_k_e_act": 4.0 * k * p.e_act}
        cache = assemble_matrices(grid, p)
        assert set(SchemeCache.__slots__) == set(expected) | {"grid", "params"}
        assert (cache.grid, cache.params) == (grid, p)
        for name, value in expected.items():
            assert same_double(getattr(cache, name), value), name

    def test_constant_is_read_only(self):
        c = constant(2.5)
        assert same_double(c, 2.5)
        with pytest.raises(ValueError):
            c[...] = 3.0

    def test_outputs_are_float64_arrays(self):
        # the kernels combine arrays with 0-d constants; two 0-d arrays give an
        # np.float64 scalar, so a term built from constants alone would show here
        m = 7
        cache = assemble_matrices(base_grid(m), BASE_PARAMS)
        assert type(cache.two * cache.k) is np.float64
        state = State(theta=np.linspace(0.0, 1.0, m), eta=np.linspace(0.0, 0.5, m))
        r, terms = residual(state.z + 0.01, cache, level_of(state, cache))
        jac = jacobian(terms, cache)
        shapes = [(r, 2 * m)] + [(t, m) for t in terms] + [
            (jac.sub, m - 1), (jac.diag, m), (jac.sup, m - 1), (jac.g_eta, m), (jac.q_theta, m),
            (jac.q_eta, m)]
        r, terms = residual(state.theta + 0.01, cache, theta_level_of(state, cache))
        jac = jacobian(terms, cache)
        shapes += [(r, m)] + [(t, m) for t in terms] + [
            (jac.sub, m - 1), (jac.diag, m), (jac.sup, m - 1)]
        for value, size in shapes:
            assert type(value) is np.ndarray
            assert value.dtype == np.float64
            assert value.shape == (size,)


class TestAssembleP:
    def test_constant_field_cancels(self):
        # the interior rows cancel; row 1 differences against the boundary value
        p_vec = assemble_P(np.full(8, 0.7), BASE_PARAMS)
        np.testing.assert_allclose(p_vec[1:], np.zeros(7), atol=1e-16)
        assert p_vec[0] == pytest.approx(flux(0.7, BASE_PARAMS) - flux(THETA_B, BASE_PARAMS), rel=1e-15)

    def test_last_component_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.uniform(0.0, 5.0, 9)
            assert assemble_P(theta, BASE_PARAMS)[-1] == 0.0

    def test_small_instance_closed_form(self):
        p = BASE_PARAMS
        theta = np.array([1.0, 2.0, 3.0])
        p_vec = assemble_P(theta, p)
        assert p_vec[0] == pytest.approx(flux(2.0, p) - flux(0.0, p), rel=1e-15)
        assert p_vec[1] == pytest.approx(flux(3.0, p) - flux(1.0, p), rel=1e-15)
        assert p_vec[2] == 0.0


class TestLevelNVectors:
    def test_ld_cold_unburned(self):
        grid = base_grid(5)
        cache = assemble_matrices(grid, BASE_PARAMS)
        state = State(theta=np.zeros(5), eta=np.zeros(5))
        expected = 2.0 * grid.k * phi(0.0, 0.0, BASE_PARAMS)
        np.testing.assert_allclose(assemble_LD(state, cache), np.full(5, expected), rtol=1e-14)

    def test_ld_burned_out(self):
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.zeros(5), eta=np.ones(5))
        np.testing.assert_allclose(assemble_LD(state, cache), np.zeros(5), atol=1e-16)

    def test_ldq_burned_out(self):
        cache = assemble_matrices(base_grid(4), BASE_PARAMS)
        state = State(theta=np.zeros(4), eta=np.ones(4))
        np.testing.assert_array_equal(assemble_LDQ(state, cache), np.full(4, 2.0))

    def test_ldq_cold_unburned_oracle(self):
        grid = base_grid(4)
        state = State(theta=np.zeros(4), eta=np.zeros(4))
        expected = grid.k * phi(0.0, 0.0, BASE_PARAMS)
        np.testing.assert_allclose(assemble_LDQ(state, assemble_matrices(grid, BASE_PARAMS)),
                                   np.full(4, expected), rtol=1e-14)
        assert expected == pytest.approx(5.9e-6, rel=0.01)


    @pytest.mark.parametrize("m", [2, 3, 17])
    def test_ld_matches_banded_expression_bit_for_bit(self, m):
        # LD = B theta - lambda_s P + 2k Phi with B theta summed band by band
        # from b_dense(); at M = 2 the Neumann corner is the only sub-diagonal
        rng = np.random.default_rng(m)
        grid = base_grid(m)
        cache = assemble_matrices(grid, BASE_PARAMS)
        b = b_dense(cache)
        for _ in range(20):
            theta = rng.uniform(0.0, 3.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            b_theta = np.diag(b) * theta
            b_theta[1:] += np.diag(b, -1) * theta[:-1]
            b_theta[:-1] += np.diag(b, 1) * theta[1:]
            expected = (b_theta - grid.lambda_s * assemble_P(theta, BASE_PARAMS)
                        + 2.0 * grid.k * phi(theta, eta, BASE_PARAMS))
            np.testing.assert_array_equal(assemble_LD(State(theta, eta), cache), expected)


class TestResidual:
    def test_burned_out_equilibrium_is_root(self):
        grid = base_grid(6)
        cache = assemble_matrices(grid, BASE_PARAMS)
        state = State(theta=np.zeros(6), eta=np.ones(6))
        res, _ = residual(np.concatenate((np.zeros(6), np.ones(6))), cache, level_of(state, cache))
        assert res.shape == (12,)
        np.testing.assert_allclose(res[:6], np.zeros(6), atol=1e-15)
        np.testing.assert_allclose(res[6:], np.zeros(6), atol=1e-15)

    def test_same_level_identity(self):
        # evaluating G at the state used to build LD must reduce to
        # (A - B) theta + 2 lambda P - 4 k Phi, recomputed independently
        rng = np.random.default_rng(11)
        grid = base_grid(8)
        cache = assemble_matrices(grid, BASE_PARAMS)
        for _ in range(20):
            theta = rng.uniform(0.0, 3.0, 8)
            eta = rng.uniform(0.0, 1.0, 8)
            state = State(theta=theta, eta=eta)
            res, _ = residual(state.z, cache, level_of(state, cache))
            direct_g = (
                (a_dense(cache) - b_dense(cache)) @ theta
                + 2.0 * grid.lambda_s * assemble_P(theta, BASE_PARAMS)
                - 4.0 * grid.k * phi(theta, eta, BASE_PARAMS)
            )
            np.testing.assert_allclose(res[:8], direct_g, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(res[8:], -2.0 * grid.k * phi(theta, eta, BASE_PARAMS),
                                       rtol=1e-10, atol=1e-15)

    def test_stationary_point_infeasibility_sign(self):
        # Q at the warm start is -2k Phi <= 0 whenever eta <= 1
        grid = base_grid(5)
        cache = assemble_matrices(grid, BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        res, _ = residual(state.z, cache, level_of(state, cache))
        assert np.all(res[5:] < 0.0)

    @pytest.mark.parametrize("m", [2, 3, 17])
    def test_matches_unfused_expressions_bit_for_bit(self, m):
        # G and Q rebuilt as whole-vector expressions in the kernel's grouping:
        # G = A theta + lambda_s P - 2k Phi - LD with row m adding
        # v-_{m-1} = a_off theta_{m-1} - lambda_s F_{m-1} and v+_{m+1}, and the
        # Neumann row adding v+_{M-1}; Q = 2 eta - k Phi - LDQ
        rng = np.random.default_rng(m)
        grid = base_grid(m)
        p = BASE_PARAMS
        cache = assemble_matrices(grid, p)
        a = a_dense(cache)
        for _ in range(20):
            state = State(theta=rng.uniform(0.0, 3.0, m), eta=rng.uniform(0.0, 1.0, m))
            ld = assemble_LD(state, cache)
            ldq = assemble_LDQ(state, cache)
            theta = rng.uniform(0.0, 3.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            lam_f = grid.lambda_s * (p.u * p.theta0) * theta / (theta + p.theta0)
            off = np.diag(a, 1)
            g = np.diag(a) * theta
            g[1:] += off * theta[:-1] - lam_f[:-1]
            g[:-1] += off * theta[1:] + lam_f[1:]
            g[-1] += off[-1] * theta[-2] + lam_f[-2]
            phi_next = phi(theta, eta, p)
            g = g - 2.0 * grid.k * phi_next - ld
            q = 2.0 * eta - grid.k * phi_next - ldq
            res, _ = residual(np.concatenate((theta, eta)), cache, np.concatenate((ld, ldq)))
            np.testing.assert_array_equal(res[:m], g)
            np.testing.assert_array_equal(res[m:], q)

    @pytest.mark.parametrize("m", [2, 3, 17])
    @pytest.mark.parametrize("mode", [MNCP, NCP])
    def test_within_rounding_of_the_paper_expression(self, mode, m):
        # the unfused G = A theta + lambda_s P(theta) - 2k Phi - LD from
        # flux(), phi() and the dense A, with Phi at eta(theta) in MNCP mode;
        # every row within 8 eps of the sum of its terms' magnitudes, where
        # the Neumann row's P_M = F_{M+1} - F_{M-1} counts both mirrored fluxes
        rng = np.random.default_rng(100 + m)
        for p in CONSTANT_PARAMS:
            grid = base_grid(m)
            cache = assemble_matrices(grid, p)
            a = a_dense(cache)
            lam, k = grid.lambda_s, grid.k
            for _ in range(20):
                state = State(theta=rng.uniform(0.0, 3.0, m), eta=rng.uniform(0.0, 0.9, m))
                ld = assemble_LD(state, cache)
                ldq = assemble_LDQ(state, cache)
                theta = rng.uniform(0.0, 3.0, m)
                if mode == MNCP:
                    k_beta_e = -k * phi_deta(theta, p)
                    eta = (ldq + k_beta_e) / (2.0 + k_beta_e)
                    res, _ = residual(theta, cache, theta_level_of(state, cache))
                else:
                    eta = rng.uniform(0.0, 1.0, m)
                    res, _ = residual(np.concatenate((theta, eta)), cache, level_of(state, cache))
                f = flux(theta, p)
                f_pad = np.concatenate(([0.0], f, [f[-2]]))   # F(THETA_B) = 0, mirror F_{M+1}
                phi_next = phi(theta, eta, p)
                g = a @ theta + lam * (f_pad[2:] - f_pad[:-2]) - 2.0 * k * phi_next - ld
                size = (np.abs(a) @ np.abs(theta) + lam * (np.abs(f_pad[2:]) + np.abs(f_pad[:-2]))
                        + 2.0 * k * np.abs(phi_next) + np.abs(ld))
                expected, bound = [g], [size]
                if mode == NCP:
                    expected.append(2.0 * eta - k * phi_next - ldq)
                    bound.append(2.0 * np.abs(eta) + k * np.abs(phi_next) + np.abs(ldq))
                err = np.abs(res - np.concatenate(expected))
                assert np.all(err <= 8.0 * EPS * np.concatenate(bound))

    @pytest.mark.parametrize("row, node", [(0, 1), (7, 3), (3, 4), (9, 5)])
    def test_non_finite_entry_names_its_node(self, row, node):
        # with M = 5, rows i-1 and i+4 are G_i and Q_i; the non-finite
        # level-n data reaches exactly one of them
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        level = level_of(state, cache)
        level[row] = np.nan
        with pytest.raises(NumericError) as err:
            residual(state.z, cache, level)
        assert err.value.node == node
        assert str(err.value) == f"non-finite residual {'G' if row < 5 else 'Q'} at node {node}"

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("row, node", [(0, 1), (7, 3), (3, 4), (9, 5)])
    def test_infinite_entry_names_its_node(self, row, node, value):
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        level = level_of(state, cache)
        level[row] = value
        with pytest.raises(NumericError) as err:
            residual(state.z, cache, level)
        assert err.value.node == node
        assert str(err.value) == f"non-finite residual {'G' if row < 5 else 'Q'} at node {node}"

    def test_huge_finite_entries_pass_without_warning(self):
        # the squared norm of the residual overflows, its entries do not:
        # the finiteness check must fall back to the entries, warning-free
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        level = level_of(state, cache)
        level[[1, 8]] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, _ = residual(state.z, cache, level)
            assert not np.isfinite(np.vdot(res, res))
        assert np.all(np.isfinite(res))
        np.testing.assert_array_equal(res[[1, 8]], -1e300)

    def test_nan_among_huge_finite_entries_names_its_node(self):
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        level = level_of(state, cache)
        level[[1, 8]] = 1e300
        level[6] = np.nan
        with pytest.raises(NumericError) as err:
            residual(state.z, cache, level)
        assert err.value.node == 2
        assert str(err.value) == "non-finite residual Q at node 2"

    def test_theta_problem_is_the_stacked_residual_at_eta_of_theta(self):
        # G~(theta) = G(theta, eta(theta)), eta(theta) = (LDQ + k beta e) / (2 + k beta e),
        # at which Q vanishes to round-off
        rng = np.random.default_rng(13)
        grid = base_grid(8)
        cache = assemble_matrices(grid, BASE_PARAMS)
        p = BASE_PARAMS
        for _ in range(20):
            state = State(theta=rng.uniform(0.0, 3.0, 8), eta=rng.uniform(0.0, 1.0, 8))
            theta = rng.uniform(0.0, 3.0, 8)
            k_beta_e = grid.k * p.beta * np.exp(-p.e_act / (theta + p.theta0))
            eta = (assemble_LDQ(state, cache) + k_beta_e) / (2.0 + k_beta_e)
            g, terms = residual(theta, cache, theta_level_of(state, cache))
            r, _ = residual(np.concatenate((theta, eta)), cache, level_of(state, cache))
            assert g.shape == (8,) and len(terms) == 5
            np.testing.assert_allclose(g, r[:8], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(r[8:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("row, node", [(0, 1), (3, 4), (7, 3), (9, 5)])
    def test_theta_problem_non_finite_entry_names_its_node(self, row, node):
        # with M = 5, level entries i-1 and i+4 are LD_i and beta (2 - LDQ_i);
        # either reaches G~_i, the one residual of node i
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        level = theta_level_of(state, cache)
        level[row] = np.nan
        with pytest.raises(NumericError) as err:
            residual(state.theta, cache, level)
        assert err.value.node == node
        assert str(err.value) == f"non-finite residual G at node {node}"


def dense_jacobian_fd(theta, eta, cache, step=1e-6):
    """Finite-difference oracle in the stacked ordering: unknowns (theta; eta),
    rows (G; Q)."""
    grid = cache.grid
    m = grid.m
    state = State(theta=theta, eta=eta)
    level = level_of(state, cache)

    def f(z):
        return residual(z, cache, level)[0]

    z0 = np.concatenate((theta, eta))
    jac = np.zeros((2 * m, 2 * m))
    for j in range(2 * m):
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += step
        zm[j] -= step
        jac[:, j] = (f(zp) - f(zm)) / (2.0 * step)
    return jac


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        cache = assemble_matrices(base_grid(10), BASE_PARAMS)
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0, 10)
            eta = rng.uniform(0.0, 1.0, 10)
            analytic = to_dense(jacobian(stacked_terms(theta, eta, cache), cache))
            fd = dense_jacobian_fd(theta, eta, cache)
            scale = np.max(np.abs(fd))
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale

    def test_theta_jacobian_matches_finite_differences(self):
        # dG~/dtheta of the theta problem, on 100 random states at M = 10, as
        # acceptance criterion 2 checks the stacked Jacobian
        rng = np.random.default_rng(8)
        cache = assemble_matrices(base_grid(10), BASE_PARAMS)
        step = 1e-6
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0, 10)
            level = theta_level_of(State(theta=theta, eta=rng.uniform(0.0, 1.0, 10)), cache)
            theta = theta + rng.uniform(0.0, 0.1, 10)
            jac = jacobian(residual(theta, cache, level)[1], cache)
            assert type(jac) is ThetaJacobian
            fd = np.empty((10, 10))
            for j in range(10):
                shift = np.zeros(10)
                shift[j] = step
                fd[:, j] = (residual(theta + shift, cache, level)[0]
                            - residual(theta - shift, cache, level)[0]) / (2.0 * step)
            assert np.max(np.abs(to_dense(jac) - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_vanishing_time_step_limit(self):
        grid = Grid(length=0.05, m=6, k=1e-300, n_steps=1)
        cache = assemble_matrices(grid, BASE_PARAMS)
        terms = stacked_terms(np.linspace(0.1, 1.0, 6), np.linspace(0.0, 0.9, 6), cache)
        jac = to_dense(jacobian(terms, cache))
        expected = np.zeros((12, 12))
        expected[:6, :6] = a_dense(cache)
        expected[6:, 6:] = 2.0 * np.eye(6)
        np.testing.assert_allclose(jac, expected, atol=1e-250)

    def test_eta_block_closed_form_at_burnout(self):
        grid = base_grid(4)
        cache = assemble_matrices(grid, BASE_PARAMS)
        jac = to_dense(jacobian(stacked_terms(np.zeros(4), np.ones(4), cache), cache))
        p = BASE_PARAMS
        expected = 2.0 + grid.k * p.beta * np.exp(-p.e_act / p.theta0)
        np.testing.assert_allclose(np.diag(jac)[4:], np.full(4, expected), rtol=1e-14)

    @pytest.mark.parametrize("p", CONSTANT_PARAMS)
    def test_pointwise_factors_match_model_bit_for_bit(self, p):
        # the Jacobian shares one exponential between phi_theta, phi_eta and
        # the theta problem's diagonal term: the stacked Jacobian's blocks
        # equal their form through phi_dtheta() and phi_deta() exactly, the
        # flux bands are a_off -/+ lambda_s u theta0^2 / s^2 and the theta
        # problem's diagonal is a_diag - Phi (4k e_act) / s^2 / q_eta
        rng = np.random.default_rng(5)
        m = 40
        grid = base_grid(m)
        cache = assemble_matrices(grid, p)
        a = a_dense(cache)
        k = grid.k
        for _ in range(20):
            theta = rng.uniform(0.0, 5.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            jac = jacobian(stacked_terms(theta, eta, cache), cache)
            pt = phi_dtheta(theta, eta, p)
            pe = phi_deta(theta, p)
            s2 = (theta + p.theta0) ** 2
            lam_fd = grid.lambda_s * (p.u * p.theta0**2) / s2
            np.testing.assert_array_equal(jac.diag, np.diag(a) - 2.0 * k * pt)
            np.testing.assert_array_equal(jac.g_eta, -2.0 * k * pe)
            np.testing.assert_array_equal(jac.q_theta, -k * pt)
            np.testing.assert_array_equal(jac.q_eta, 2.0 - k * pe)
            np.testing.assert_array_equal(jac.sup, np.diag(a, 1) + lam_fd[1:])
            np.testing.assert_array_equal(jac.sub[:-1], np.diag(a, -1)[:-1] - lam_fd[:-2])
            np.testing.assert_array_equal(jac.sub[-1], np.diag(a, -1)[-1])
            terms = residual(theta, cache, rng.uniform(0.0, 2.0, 2 * m))[1]
            theta_jac = jacobian(terms, cache)
            np.testing.assert_array_equal(
                theta_jac.diag, np.diag(a) - terms[2] * (4.0 * k * p.e_act) / s2 / terms[4])
            np.testing.assert_array_equal(theta_jac.sup, jac.sup)
            np.testing.assert_array_equal(theta_jac.sub, jac.sub)

    @pytest.mark.parametrize("m", [2, 3, 17])
    @pytest.mark.parametrize("mode", [MNCP, NCP])
    def test_within_rounding_of_the_model_derivatives(self, mode, m):
        # every entry against A + lambda_s dP/dtheta - 2k diag(phi_theta) and
        # the eta blocks from phi_dtheta(), phi_deta() and flux_d(), or
        # A + lambda_s dP/dtheta - 4k diag(phi_theta / q_eta) at eta(theta) in
        # MNCP mode; each within 8 eps of the sum of its terms' magnitudes
        rng = np.random.default_rng(200 + m)
        for p in CONSTANT_PARAMS:
            grid = base_grid(m)
            cache = assemble_matrices(grid, p)
            a = a_dense(cache)
            lam, k = grid.lambda_s, grid.k
            for _ in range(20):
                state = State(theta=rng.uniform(0.0, 3.0, m), eta=rng.uniform(0.0, 0.9, m))
                theta = rng.uniform(0.0, 3.0, m)
                pe = phi_deta(theta, p)
                q_eta = 2.0 - k * pe
                if mode == MNCP:
                    eta = (assemble_LDQ(state, cache) - k * pe) / q_eta
                    jac = jacobian(residual(theta, cache, theta_level_of(state, cache))[1], cache)
                else:
                    eta = rng.uniform(0.0, 1.0, m)
                    jac = jacobian(stacked_terms(theta, eta, cache), cache)
                pt = phi_dtheta(theta, eta, p)
                lam_fd = lam * flux_d(theta, p)
                up, down = np.diag(a, 1), np.diag(a, -1).copy()
                down[:-1] -= lam_fd[:-2]
                pairs = [(jac.sup, up + lam_fd[1:], np.abs(up) + lam_fd[1:]),
                         (jac.sub, down, np.abs(np.diag(a, -1)) + np.append(lam_fd[:-2], 0.0))]
                if mode == MNCP:
                    pairs.append((jac.diag, np.diag(a) - 4.0 * k * pt / q_eta,
                                  np.abs(np.diag(a)) + 4.0 * k * np.abs(pt / q_eta)))
                else:
                    pairs += [(jac.diag, np.diag(a) - 2.0 * k * pt,
                               np.abs(np.diag(a)) + 2.0 * k * np.abs(pt)),
                              (jac.g_eta, -2.0 * k * pe, 2.0 * k * np.abs(pe)),
                              (jac.q_theta, -k * pt, k * np.abs(pt)),
                              (jac.q_eta, q_eta, 2.0 + k * np.abs(pe))]
                for got, expected, size in pairs:
                    assert np.all(np.abs(got - expected) <= 8.0 * EPS * size)


def zero_pivot_jacobian(g_eta=0.0):
    """M = 2 with dG/dtheta = diag(0, 1): node 1's theta column is zero but for
    dG_1/deta_1 = g_eta, so at z = 1, r = 0 the first pivot is exactly zero."""
    return StepJacobian(sub=np.zeros(1), diag=np.array([0.0, 1.0]), sup=np.zeros(1),
                        g_eta=np.array([g_eta, 0.0]), q_theta=np.zeros(2), q_eta=np.ones(2))


def zero_pivot_theta_jacobian():
    """M = 2 with dG~/dtheta = diag(0, 1): at theta = 1, r = 0 the first pivot is zero."""
    return ThetaJacobian(np.zeros(1), np.array([0.0, 1.0]), np.zeros(1))


class TestNewtonSolve:
    @pytest.mark.parametrize("m", [2, 3, 50])
    @pytest.mark.parametrize("mode", [MNCP, NCP])
    def test_matches_dense_solve(self, m, mode):
        # the Newton matrix of each mode's step Jacobian: the theta problem's
        # in MNCP, the stacked one's in NCP.  At a strictly interior iterate
        # the pair variables and the pair residuals (row scale and diagonal
        # addend) are positive on every row
        rng = np.random.default_rng(m)
        cache = assemble_matrices(base_grid(m), BASE_PARAMS)
        n = m if mode == MNCP else 2 * m
        for _ in range(20):
            state = State(theta=rng.uniform(0.01, 2.0, m), eta=rng.uniform(0.01, 0.99, m))
            if mode == MNCP:
                z = state.theta
                jac = jacobian(residual(z, cache, theta_level_of(state, cache))[1], cache)
            else:
                z = state.z
                jac = jacobian(stacked_terms(state.theta, state.eta, cache), cache)
            r = rng.uniform(1e-6, 1.0, n)
            rhs = rng.normal(size=n)
            d = jac.newton_solve(z, r, rhs)
            ref = DenseJacobian(to_dense(jac)).newton_solve(z, r, rhs)
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_pivot_retries_perturbed(self):
        # the retry solves the Newton matrix with 1e-12 (1 + |d_ii|) on its
        # diagonal: (theta_1, theta_2, eta_1, eta_2) for the stacked
        # Jacobian, (theta_1, theta_2) for the theta problem's
        for jac, diag in ((zero_pivot_jacobian(), np.array([0.0, 1.0, 1.0, 1.0])),
                          (zero_pivot_theta_jacobian(), np.array([0.0, 1.0]))):
            n = diag.size
            rhs = np.arange(1.0, n + 1.0)
            d = jac.newton_solve(np.ones(n), np.zeros(n), rhs)
            perturbed = to_dense(jac) + np.diag(1e-12 * (1.0 + diag))
            np.testing.assert_allclose(d, np.linalg.solve(perturbed, rhs), rtol=1e-14)
            assert d[0] == pytest.approx(1e12)
            # the perturbation is the solve's own: the Jacobian and the
            # right-hand side are left as they were
            np.testing.assert_array_equal(jac.diag, [0.0, 1.0])
            np.testing.assert_array_equal(rhs, np.arange(1.0, n + 1.0))
        np.testing.assert_array_equal(zero_pivot_jacobian().q_eta, np.ones(2))

    def test_huge_finite_direction_is_returned(self):
        # d is about 1e200: its squared norm overflows, no entry does, so the
        # solve neither retries nor raises
        for jac, rhs in ((zero_pivot_jacobian(), np.array([1e200, -2e200, 3e200, 4.0])),
                         (zero_pivot_theta_jacobian(), np.array([1e200, -2e200]))):
            jac.diag[0] = 1.0
            n = rhs.size
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = jac.newton_solve(np.ones(n), np.zeros(n), rhs)
            assert not np.isfinite(np.vdot(d, d))
            np.testing.assert_allclose(d, np.linalg.solve(to_dense(jac), rhs), rtol=1e-14)

    def test_singular_after_retry_raises(self):
        # after the retry the zero pivot is 1e-12, and eliminating eta_1
        # moves 1e200 * 1e100 onto it: theta_1 overflows
        jac = zero_pivot_jacobian(g_eta=1e200)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            jac.newton_solve(np.ones(4), np.zeros(4), np.array([0.0, 0.0, 1e100, 0.0]))
        # the theta problem's: 1e300 over the retry's pivot 1e-12 overflows
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            zero_pivot_theta_jacobian().newton_solve(np.ones(2), np.zeros(2),
                                                     np.array([1e300, 0.0]))

        # the same through the solver: at theta = 1 the first pair's residual
        # is 0, so the first pivot is too, and the centring term of the
        # right-hand side on that row is 0.01 mean(H) = 5e297
        prob = MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([0.0, 1e300]),
            jacobian=lambda z: zero_pivot_theta_jacobian(),
        )
        with np.errstate(all="ignore"), pytest.raises(mncp.SingularJacobian):
            z = np.ones(2)
            direction(z, *evaluated(z, prob), prob)

    def test_eta_overflow_after_finite_theta_solve_raises(self, monkeypatch):
        # with r_1 = -1e10 on the diagonal the theta pivot is 1, so the Schur
        # solve in theta gives theta_1 = 1e10, finite, on both tries; eta_1's
        # back-substitution then overflows, -1e300 * 1e10
        jac = StepJacobian(sub=np.zeros(1), diag=np.array([1e10 + 1.0, 1.0]), sup=np.zeros(1),
                           g_eta=np.zeros(2), q_theta=np.array([1e300, 0.0]), q_eta=np.ones(2))
        r = np.array([-1e10, 0.0, 0.0, 0.0])
        theta_parts, raised = [], []
        theta_solve, step_solve = ThetaJacobian._solve, StepJacobian._solve

        def recording_theta(self, *args):
            theta_parts.append(theta_solve(self, *args))
            return theta_parts[-1]

        def recording_step(self, *args):
            try:
                return step_solve(self, *args)
            except np.linalg.LinAlgError:
                raised.append(True)
                raise

        monkeypatch.setattr(ThetaJacobian, "_solve", recording_theta)
        monkeypatch.setattr(StepJacobian, "_solve", recording_step)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            jac.newton_solve(np.ones(4), r, np.array([1e10, 0.0, 0.0, 0.0]))
        assert raised == [True, True]
        assert len(theta_parts) == 2
        for x_t in theta_parts:
            assert x_t[0] == pytest.approx(1e10) and np.all(np.isfinite(x_t))

        # the same through the solver: at z = 1, H = r and its mean is
        # negative, so the right-hand side is -H, 1e10 on the first row
        prob = MncpProblem(n_pairs=4, residual=lambda z: r.copy(), jacobian=lambda z: jac)
        with np.errstate(all="ignore"), pytest.raises(mncp.SingularJacobian):
            z = np.ones(4)
            direction(z, *evaluated(z, prob), prob)
