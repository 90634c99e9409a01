import numpy as np
import pytest

from combust import mncp
from combust.discretization import (
    Grid,
    NumericError,
    State,
    StepJacobian,
    assemble_LD,
    assemble_LDQ,
    assemble_matrices,
    assemble_P,
    jacobian,
    residual,
)
from combust.mncp import MncpProblem, SolverOptions, direction
from combust.model import (
    BASE_PARAMS,
    DimensionlessParams,
    flux,
    flux_d,
    phi,
    phi_deta,
    phi_dtheta,
)

from conftest import DenseJacobian

# grid with h = 1, k = 0.2, h_diff = 0.5 -> mu * h_diff = 0.1
UNIT_PARAMS = DimensionlessParams(pe_t=2.0, beta=1.0, e_act=1.0, theta0=1.0, u=1.0)
UNIT_GRID = Grid(length=3.0, m=3, k=0.2, n_steps=1)


def base_grid(m=10):
    return Grid(length=0.05, m=m, k=1e-5, n_steps=1)


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
        np.testing.assert_allclose(cache.a_dense(), expected, rtol=1e-15)

    def test_a_plus_b_is_eight_identity(self):
        for m in (2, 3, 17):
            cache = assemble_matrices(base_grid(m), BASE_PARAMS)
            total = cache.a_dense() + cache.b_dense()
            np.testing.assert_array_equal(total, 8.0 * np.eye(m))

    def test_row_sums(self):
        cache = assemble_matrices(base_grid(12), BASE_PARAMS)
        muh = cache.grid.mu * BASE_PARAMS.h_diff
        sums = cache.a_dense().sum(axis=1)
        assert sums[0] == pytest.approx(4.0 + 2.0 * muh, rel=1e-14)
        np.testing.assert_allclose(sums[1:], 4.0, rtol=1e-14)


class TestAssembleP:
    def test_constant_field_cancels(self):
        p_vec = assemble_P(np.full(8, 0.7), 0.7, BASE_PARAMS)
        np.testing.assert_allclose(p_vec, np.zeros(8), atol=1e-16)

    def test_last_component_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.uniform(0.0, 5.0, 9)
            assert assemble_P(theta, 0.0, BASE_PARAMS)[-1] == 0.0

    def test_small_instance_closed_form(self):
        p = BASE_PARAMS
        theta = np.array([1.0, 2.0, 3.0])
        p_vec = assemble_P(theta, 0.0, p)
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
        b = cache.b_dense()
        for _ in range(20):
            theta = rng.uniform(0.0, 3.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            b_theta = np.diag(b) * theta
            b_theta[1:] += np.diag(b, -1) * theta[:-1]
            b_theta[:-1] += np.diag(b, 1) * theta[1:]
            expected = (b_theta - grid.lambda_s * assemble_P(theta, 0.0, BASE_PARAMS)
                        + 2.0 * grid.k * phi(theta, eta, BASE_PARAMS))
            np.testing.assert_array_equal(assemble_LD(State(theta, eta), cache), expected)


class TestResidual:
    def test_burned_out_equilibrium_is_root(self):
        grid = base_grid(6)
        cache = assemble_matrices(grid, BASE_PARAMS)
        state = State(theta=np.zeros(6), eta=np.ones(6))
        ld = assemble_LD(state, cache)
        ldq = assemble_LDQ(state, cache)
        res, _ = residual(np.zeros(6), np.ones(6), cache, ld, ldq)
        assert res.shape == (12,)
        np.testing.assert_allclose(res[0::2], np.zeros(6), atol=1e-15)
        np.testing.assert_allclose(res[1::2], np.zeros(6), atol=1e-15)

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
            ld = assemble_LD(state, cache)
            ldq = assemble_LDQ(state, cache)
            res, _ = residual(theta, eta, cache, ld, ldq)
            direct_g = (
                (cache.a_dense() - cache.b_dense()) @ theta
                + 2.0 * grid.lambda_s * assemble_P(theta, 0.0, BASE_PARAMS)
                - 4.0 * grid.k * phi(theta, eta, BASE_PARAMS)
            )
            np.testing.assert_allclose(res[0::2], direct_g, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(res[1::2], -2.0 * grid.k * phi(theta, eta, BASE_PARAMS),
                                       rtol=1e-10, atol=1e-15)

    def test_stationary_point_infeasibility_sign(self):
        # Q at the warm start is -2k Phi <= 0 whenever eta <= 1
        grid = base_grid(5)
        cache = assemble_matrices(grid, BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        ld = assemble_LD(state, cache)
        ldq = assemble_LDQ(state, cache)
        res, _ = residual(state.theta, state.eta, cache, ld, ldq)
        assert np.all(res[1::2] < 0.0)

    @pytest.mark.parametrize("m", [2, 3, 17])
    def test_matches_unfused_expressions_bit_for_bit(self, m):
        # G = A theta + lambda_s P - 2k Phi - LD and Q = 2 eta - k Phi - LDQ,
        # evaluated as separate whole-vector expressions
        rng = np.random.default_rng(m)
        grid = base_grid(m)
        cache = assemble_matrices(grid, BASE_PARAMS)
        for _ in range(20):
            state = State(theta=rng.uniform(0.0, 3.0, m), eta=rng.uniform(0.0, 1.0, m))
            ld = assemble_LD(state, cache)
            ldq = assemble_LDQ(state, cache)
            theta = rng.uniform(0.0, 3.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            a_theta = np.diag(cache.a_dense()) * theta
            a_theta[1:] += np.diag(cache.a_dense(), -1) * theta[:-1]
            a_theta[:-1] += np.diag(cache.a_dense(), 1) * theta[1:]
            phi_next = phi(theta, eta, BASE_PARAMS)
            g = (a_theta + grid.lambda_s * assemble_P(theta, 0.0, BASE_PARAMS)
                 - 2.0 * grid.k * phi_next - ld)
            q = 2.0 * eta - grid.k * phi_next - ldq
            res, _ = residual(theta, eta, cache, ld, ldq)
            np.testing.assert_array_equal(res[0::2], g)
            np.testing.assert_array_equal(res[1::2], q)

    @pytest.mark.parametrize("row, node", [(0, 1), (5, 3), (6, 4), (9, 5)])
    def test_non_finite_entry_names_its_node(self, row, node):
        # rows 2i-2 and 2i-1 are G_i and Q_i; the non-finite level-n data
        # reaches exactly one of them
        cache = assemble_matrices(base_grid(5), BASE_PARAMS)
        state = State(theta=np.full(5, 0.5), eta=np.full(5, 0.5))
        ld = assemble_LD(state, cache)
        ldq = assemble_LDQ(state, cache)
        (ld if row % 2 == 0 else ldq)[row // 2] = np.nan
        with pytest.raises(NumericError) as err:
            residual(state.theta, state.eta, cache, ld, ldq)
        assert err.value.node == node
        assert f"node {node}" in str(err.value)


def dense_jacobian_fd(theta, eta, cache, step=1e-6):
    """Finite-difference oracle in the interleaved ordering."""
    grid = cache.grid
    m = grid.m
    state = State(theta=theta, eta=eta)
    ld = assemble_LD(state, cache)
    ldq = assemble_LDQ(state, cache)

    def f(z):
        return residual(z[0::2], z[1::2], cache, ld, ldq)[0]

    z0 = np.empty(2 * m)
    z0[0::2] = theta
    z0[1::2] = eta
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
            analytic = jacobian(theta, eta, cache).to_dense()
            fd = dense_jacobian_fd(theta, eta, cache)
            scale = np.max(np.abs(fd))
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale

    def test_vanishing_time_step_limit(self):
        grid = Grid(length=0.05, m=6, k=1e-300, n_steps=1)
        cache = assemble_matrices(grid, BASE_PARAMS)
        jac = jacobian(np.linspace(0.1, 1.0, 6), np.linspace(0.0, 0.9, 6), cache).to_dense()
        expected = np.zeros((12, 12))
        expected[0::2, 0::2] = cache.a_dense()
        expected[1::2, 1::2] = 2.0 * np.eye(6)
        np.testing.assert_allclose(jac, expected, atol=1e-250)

    def test_eta_block_closed_form_at_burnout(self):
        grid = base_grid(4)
        cache = assemble_matrices(grid, BASE_PARAMS)
        jac = jacobian(np.zeros(4), np.ones(4), cache).to_dense()
        p = BASE_PARAMS
        expected = 2.0 + grid.k * p.beta * np.exp(-p.e_act / p.theta0)
        np.testing.assert_allclose(np.diag(jac)[1::2], np.full(4, expected), rtol=1e-14)

    def test_pointwise_factors_match_model_bit_for_bit(self):
        # the Jacobian shares one exponential between phi_theta, phi_eta and
        # F'; the result must equal the single-purpose model functions exactly
        rng = np.random.default_rng(5)
        m = 40
        grid = base_grid(m)
        cache = assemble_matrices(grid, BASE_PARAMS)
        k, p = grid.k, BASE_PARAMS
        for _ in range(20):
            theta = rng.uniform(0.0, 5.0, m)
            eta = rng.uniform(0.0, 1.0, m)
            jac = jacobian(theta, eta, cache)
            pt = phi_dtheta(theta, eta, p)
            pe = phi_deta(theta, p)
            fd = flux_d(theta, p)
            np.testing.assert_array_equal(jac.diag, np.diag(cache.a_dense()) - 2.0 * k * pt)
            np.testing.assert_array_equal(jac.g_eta, -2.0 * k * pe)
            np.testing.assert_array_equal(jac.q_theta, -k * pt)
            np.testing.assert_array_equal(jac.q_eta, 2.0 - k * pe)
            np.testing.assert_array_equal(jac.sup, np.diag(cache.a_dense(), 1) + grid.lambda_s * fd[1:])


def zero_pivot_jacobian(g_eta=0.0, eta_pairs=False):
    """M = 2 with dG/dtheta = diag(0, 1): node 1's theta column is zero but for
    dG_1/deta_1 = g_eta, so at z = 1, r = 0 the first pivot is exactly zero."""
    return StepJacobian(sub=np.zeros(1), diag=np.array([0.0, 1.0]), sup=np.zeros(1),
                        g_eta=np.array([g_eta, 0.0]), q_theta=np.zeros(2), q_eta=np.ones(2),
                        eta_pairs=eta_pairs)


class TestNewtonSolve:
    @pytest.mark.parametrize("m", [2, 3, 50])
    @pytest.mark.parametrize("mode", [mncp.MNCP, mncp.NCP])
    def test_matches_dense_solve(self, m, mode):
        # at a strictly interior iterate the pair variables and the pair
        # residuals (row scale and diagonal addend) are positive; the
        # equality rows' residuals must not enter the matrix
        rng = np.random.default_rng(m)
        cache = assemble_matrices(base_grid(m), BASE_PARAMS)
        pairs = np.arange(0, 2 * m, 2) if mode == mncp.MNCP else np.arange(2 * m)
        for _ in range(20):
            theta = rng.uniform(0.01, 2.0, m)
            eta = rng.uniform(0.01, 0.99, m)
            z = np.empty(2 * m)
            z[0::2] = theta
            z[1::2] = eta
            r = rng.normal(size=2 * m)
            r[pairs] = rng.uniform(1e-6, 1.0, pairs.size)
            rhs = rng.normal(size=2 * m)
            jac = jacobian(theta, eta, cache, eta_pairs=mode == mncp.NCP)
            d = jac.newton_solve(z, r, rhs)
            ref = DenseJacobian(jac.to_dense(), pairs).newton_solve(z, r, rhs)
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_pivot_retries_perturbed(self):
        # at z = 1, r = 0 both pair layouts give the same Newton matrix
        for eta_pairs in (False, True):
            jac = zero_pivot_jacobian(eta_pairs=eta_pairs)
            rhs = np.array([1.0, 2.0, 3.0, 4.0])
            d = jac.newton_solve(np.ones(4), np.zeros(4), rhs)
            # the retry solves the matrix with 1e-12 (1 + |d_ii|) on its diagonal
            diag = np.array([0.0, 1.0, 1.0, 1.0])
            perturbed = jac.to_dense() + np.diag(1e-12 * (1.0 + diag))
            np.testing.assert_allclose(d, np.linalg.solve(perturbed, rhs), rtol=1e-14)
            assert d[0] == pytest.approx(1e12)
            # the perturbation is the solve's own: the Jacobian is left as it was
            np.testing.assert_array_equal(jac.q_eta, np.ones(2))
            np.testing.assert_array_equal(jac.diag, [0.0, 1.0])

    def test_singular_after_retry_raises(self):
        # after the retry the zero pivot is 1e-12, and eliminating eta_1
        # moves 1e200 * 1e100 onto it: theta_1 overflows
        jac = zero_pivot_jacobian(g_eta=1e200)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            jac.newton_solve(np.ones(4), np.zeros(4), np.array([0.0, 1e100, 0.0, 0.0]))

        # the same through the solver: the theta rows are the pairs, the
        # residual of the first is 0, and the right-hand side on the eta_1
        # row is again 1e100
        prob = MncpProblem(
            size=4,
            residual=lambda z: np.array([0.0, -1e100, 1.0, 0.0]),
            jacobian=lambda z: jac,
            comp_index=np.array([0, 2]),
        )
        with np.errstate(all="ignore"), pytest.raises(mncp.SingularJacobian):
            direction(np.ones(4), prob, SolverOptions())
