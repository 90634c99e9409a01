import warnings

import numpy as np
import pytest

from combust import mncp
from combust.mncp import (
    InfeasibleStart,
    MaxIterations,
    MncpProblem,
    SolverOptions,
    direction,
    line_search,
    merit,
    merit_vector,
    natural_residual,
    restore_feasibility,
    solve,
)

from conftest import dense


def scalar_affine(slope=1.0, offset=2.0):
    """One-dimensional problem r(z) = slope*z + offset."""
    return MncpProblem(
        size=1, comp_index=[0],
        residual=lambda z: slope * z + offset,
        jacobian=dense(lambda z: np.array([[slope]]), [0]),
    )


class TestProblemSetup:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(sigma_c=1.5)
        with pytest.raises(ValueError):
            SolverOptions(nu_backtrack=0.0)
        with pytest.raises(ValueError):
            SolverOptions(tol=-1e-8)


class TestMeritAndResidual:
    def test_hand_value(self):
        # z = 1, r = 3 on the single pair row: H = 3, S = 4.5
        prob = scalar_affine()
        s, h = merit(np.array([1.0]), prob)
        assert s == 4.5
        np.testing.assert_array_equal(h, [3.0])

    def test_equality_rows_pass_through(self):
        prob = MncpProblem(
            size=2, comp_index=[0],
            residual=lambda z: np.array([z[0] - 1.0, z[1] + 5.0]),
            jacobian=dense(lambda z: np.eye(2), [0]),
        )
        h = merit_vector(np.array([2.0, 3.0]), prob.residual(np.array([2.0, 3.0])), prob)
        np.testing.assert_array_equal(h, [2.0, 8.0])

    def test_natural_residual_sees_masked_pair(self):
        # a tiny variable against a large residual: the product is tiny but
        # the pair is far from complementary
        prob = scalar_affine(offset=2.0)
        z = np.array([1e-12])
        r = prob.residual(z)
        assert abs(merit_vector(z, r, prob)[0]) < 1e-8
        assert natural_residual(z, r, prob) == pytest.approx(1e-12)

        z = np.array([0.5])
        assert natural_residual(z, prob.residual(z), prob) == pytest.approx(0.5)

    def test_natural_residual_no_pairs(self):
        prob = MncpProblem(
            size=1, comp_index=[],
            residual=lambda z: z - 1.0,
            jacobian=dense(lambda z: np.eye(1), []),
        )
        assert natural_residual(np.array([4.0]), np.array([3.0]), prob) == 0.0

    def test_solve_without_pairs(self):
        # a pure equality system has no centering term to spread over pairs
        prob = MncpProblem(
            size=1, comp_index=[],
            residual=lambda z: z - 1.0,
            jacobian=dense(lambda z: np.eye(1), []),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, report = solve(prob, np.array([4.0]))
        assert report.converged
        assert z[0] == pytest.approx(1.0, abs=1e-8)


class TestDirection:
    def test_hand_value_with_centering(self):
        # z = 1, r = z + 2: H = 3, J_H = z*1 + r = 4,
        # rho = 0.5 * min(1, 3) * 3 = 1.5, so d = (-3 + 1.5) / 4 = -0.375
        prob = scalar_affine()
        opts = SolverOptions(sigma_c=0.5)
        d, g_dot_d = direction(np.array([1.0]), prob, opts)
        assert d[0] == pytest.approx(-0.375, rel=1e-14)
        assert g_dot_d == pytest.approx(3.0 * 4.0 * -0.375, rel=1e-14)

    def test_small_centering_is_newton(self):
        prob = scalar_affine()
        opts = SolverOptions(sigma_c=1e-14)
        d, _ = direction(np.array([1.0]), prob, opts)
        assert d[0] == pytest.approx(-0.75, rel=1e-10)

    def test_descent_bound(self):
        # grad(S)^T d <= -(1 - sigma_c) ||H||^2 must hold at any interior point
        rng = np.random.default_rng(5)
        prob = MncpProblem(
            size=2, comp_index=[0, 1],
            residual=lambda z: np.array([z[0] ** 2 + z[1] + 0.5, z[0] + 2.0 * z[1] + 1.0]),
            jacobian=dense(lambda z: np.array([[2.0 * z[0], 1.0], [1.0, 2.0]]), [0, 1]),
        )
        for sigma in (0.1, 0.5, 0.9):
            opts = SolverOptions(sigma_c=sigma)
            for _ in range(25):
                z = rng.uniform(0.05, 3.0, 2)
                r = prob.residual(z)
                h = merit_vector(z, r, prob)
                _, g_dot_d = direction(z, prob, opts, r=r)
                assert g_dot_d <= -(1.0 - sigma) * float(h @ h) + 1e-10

    def test_singular_jacobian_raises(self):
        prob = MncpProblem(
            size=2, comp_index=[0, 1],
            residual=lambda z: np.array([1.0, 1.0]),
            jacobian=dense(lambda z: np.full((2, 2), np.inf), [0, 1]),
        )
        with pytest.raises(mncp.SingularJacobian):
            direction(np.array([1.0, 1.0]), prob, SolverOptions())


class TestLineSearch:
    def test_full_step_accepted(self):
        prob = scalar_affine()
        z = np.array([1.0])
        s0, _ = merit(z, prob)
        d = np.array([-0.375])
        g_dot_d = -4.5
        t, z_t, r_t, h_t, s_t, n_evals = line_search(z, d, g_dot_d, s0, prob, SolverOptions())
        assert t == 1.0
        assert z_t[0] == pytest.approx(0.625)
        assert s_t < s0
        assert n_evals == 1

    def test_backtracks_on_interiority(self):
        # the full step would cross z = 0, so the ladder drops to nu = 0.8
        prob = scalar_affine()
        z = np.array([1.0])
        s0, _ = merit(z, prob)
        t, z_t, _, _, _, _ = line_search(z, np.array([-1.05]), -4.5, s0, prob, SolverOptions())
        assert t == pytest.approx(0.8)
        assert z_t[0] == pytest.approx(1.0 - 0.8 * 1.05)

    def test_step_is_on_ladder(self):
        prob = MncpProblem(
            size=1, comp_index=[0],
            residual=lambda z: 10.0 * z - 1.0,
            jacobian=dense(lambda z: np.array([[10.0]]), [0]),
        )
        opts = SolverOptions()
        z = np.array([2.0])
        s0, _ = merit(z, prob)
        d, g_dot_d = direction(z, prob, opts)
        t, *_ = line_search(z, d, g_dot_d, s0, prob, opts)
        k = round(np.log(t) / np.log(opts.nu_backtrack))
        assert t == pytest.approx(opts.nu_backtrack ** k, rel=1e-12)

    def test_zero_is_not_interior(self):
        # along d = -1, the full step from z = 2 lands on a pair residual
        # r(z) = z - 1 of exactly 0.0, which the line search evaluates and
        # rejects; the full step from z = 1 lands on a pair variable of
        # exactly 0.0 (r(z) = z + 2), which it rejects before evaluating
        opts = SolverOptions()
        for prob, z0, n_expected in ((scalar_affine(offset=-1.0), 2.0, 2), (scalar_affine(), 1.0, 1)):
            z = np.array([z0])
            s0, _ = merit(z, prob)
            t, z_t, r_t, _, _, n_evals = line_search(z, np.array([-1.0]), -4.0, s0, prob, opts)
            assert t == opts.nu_backtrack
            assert z_t[0] > 0.0 and r_t[0] > 0.0
            assert n_evals == n_expected

    def test_stall_raises(self):
        prob = scalar_affine()
        z = np.array([1.0])
        s0, _ = merit(z, prob)
        with pytest.raises(mncp.LineSearchStall):
            # an ascent direction with a claimed steep descent slope can
            # never satisfy Armijo
            line_search(z, np.array([1.0]), -100.0, s0, prob, SolverOptions())


class TestRestoreFeasibility:
    def test_clamps_to_interior(self):
        prob = scalar_affine()
        opts = SolverOptions(eps_interior=1e-6)
        z, r, _, _ = restore_feasibility(np.array([-3.0]), prob, opts)
        assert z[0] == pytest.approx(1e-6)
        assert r[0] > 0.0

    def test_doubling_shift(self):
        # r(z) = z - 1 is non-positive at the clamped start, so the shift
        # must walk z past 1
        prob = scalar_affine(offset=-1.0)
        z, r, n_evals, _ = restore_feasibility(np.array([0.0]), prob, SolverOptions())
        assert z[0] > 1.0
        assert r[0] > 0.0
        assert n_evals > 1

    def test_zero_residual_keeps_doubling(self):
        # r(z) = z - 2 eps: the first doubling lands on r = 0.0 exactly,
        # which is not interior, so restoration doubles once more
        eps = SolverOptions().eps_interior
        seen = []

        def residual(z):
            seen.append(z[0] - 2.0 * eps)
            return z - 2.0 * eps

        prob = MncpProblem(size=1, comp_index=[0], residual=residual,
                           jacobian=dense(lambda z: np.eye(1), [0]))
        z, r, n_evals, shift = restore_feasibility(np.array([0.0]), prob, SolverOptions())
        assert seen == [-eps, 0.0, 2.0 * eps]
        assert n_evals == 3
        assert shift == 3.0 * eps
        assert z[0] == 4.0 * eps and r[0] == 2.0 * eps

    def test_unrestorable_raises(self):
        prob = MncpProblem(
            size=1, comp_index=[0],
            residual=lambda z: np.full(1, -1.0),
            jacobian=dense(lambda z: np.eye(1), [0]),
        )
        with pytest.raises(InfeasibleStart):
            restore_feasibility(np.array([1.0]), prob, SolverOptions(max_restore=8))


def toy_problems():
    """Small complementarity problems with known solutions."""
    cases = []

    # interior root: z* = 1 with r = 0
    cases.append((
        scalar_affine(slope=1.0, offset=-1.0),
        np.array([5.0]),
        lambda z: abs(z[0] - 1.0) < 1e-6,
    ))

    # boundary solution: z* = 0 with r = 1 > 0
    cases.append((
        scalar_affine(slope=1.0, offset=1.0),
        np.array([5.0]),
        lambda z: z[0] < 1e-6,
    ))

    # two coupled pairs, both ending at interior roots z* = (0.5, 0.5)
    cases.append((
        MncpProblem(
            size=2, comp_index=[0, 1],
            residual=lambda z: np.array([z[0] - 0.5, z[0] + z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 0.0], [1.0, 1.0]]), [0, 1]),
        ),
        np.array([2.0, 2.0]),
        lambda z: np.allclose(z, [0.5, 0.5], atol=1e-6),
    ))

    # mixed: one pair plus one equality row, z* = (1, 1)
    cases.append((
        MncpProblem(
            size=2, comp_index=[0],
            residual=lambda z: np.array([z[0] + z[1] - 2.0, z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 1.0], [0.0, 1.0]]), [0]),
        ),
        np.array([2.0, 2.0]),
        lambda z: np.allclose(z, [1.0, 1.0], atol=1e-6),
    ))
    return cases


class TestSolve:
    @pytest.mark.parametrize("case", range(4))
    def test_toy_problems(self, case):
        prob, z0, check = toy_problems()[case]
        z, report = solve(prob, z0, SolverOptions(tol=1e-8))
        assert report.converged
        assert report.iterations <= 30
        assert check(z)
        r = np.atleast_1d(prob.residual(z))
        assert np.max(np.abs(merit_vector(z, r, prob))) <= 1e-8

    def test_iterates_stay_interior_and_merit_decreases(self):
        prob, z0, _ = toy_problems()[2]
        opts = SolverOptions()
        z, r, _, _ = restore_feasibility(z0, prob, opts)
        s, h = 0.5 * float(merit_vector(z, r, prob) @ merit_vector(z, r, prob)), None
        for _ in range(15):
            r = prob.residual(z)
            if np.max(np.abs(merit_vector(z, r, prob))) <= 1e-10:
                break
            d, g_dot_d = direction(z, prob, opts, r=r)
            t, z, r, h, s_next, _ = line_search(z, d, g_dot_d, s, prob, opts)
            assert np.all(z[prob.comp_index] > 0.0)
            assert np.all(r[prob.comp_index] > 0.0)
            assert s_next < s
            s = s_next

    def test_deterministic(self):
        prob, z0, _ = toy_problems()[3]
        z1, rep1 = solve(prob, z0.copy())
        z2, rep2 = solve(prob, z0.copy())
        np.testing.assert_array_equal(z1, z2)
        assert rep1.iterations == rep2.iterations
        assert rep1.s_evals == rep2.s_evals

    def test_max_iterations_carries_iterate(self):
        prob, z0, _ = toy_problems()[2]
        with pytest.raises(MaxIterations) as excinfo:
            solve(prob, z0, SolverOptions(max_iter=1))
        assert excinfo.value.report.iterations == 1
        assert excinfo.value.iterate is not None

    def test_report_counters(self):
        prob, z0, _ = toy_problems()[0]
        _, report = solve(prob, z0)
        assert report.js_evals == report.iterations
        assert report.s_evals >= report.iterations + 1
        assert 0.0 < report.last_step <= 1.0
        assert report.h_inf <= 1e-8
