"""Acceptance gate: one pass/fail line per criterion.

Each test prints "ACCEPTANCE <n> (<label>): PASS" on success; a failure
shows up as an ordinary pytest failure for that criterion.
"""

import numpy as np
import pytest

from combust.analysis import refine_errors
from combust.cli import emit_profiles
from combust.discretization import Grid, State, assemble_matrices, jacobian
from combust.mncp import (
    MNCP,
    MncpProblem,
    SolverOptions,
    direction,
    line_search,
    merit_vector,
    restore_feasibility,
    solve,
)
from combust.model import BASE_PARAMS, DimensionlessParams, closure
from combust.timestepper import RunConfig, initial_state, run

from conftest import TABLE_TIMES, base_config, dense
from test_discretization import dense_jacobian_fd


def _passed(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def acceptance_toys():
    """The four analytic complementarity problems with their starts."""
    mixed1 = MncpProblem(
        n_pairs=1,
        residual=lambda z: np.array([z[0] + z[1] - 2.0, z[1] - 1.0]),
        jacobian=dense(lambda z: np.array([[1.0, 1.0], [0.0, 1.0]])),
    )
    mixed2 = MncpProblem(
        n_pairs=1,
        residual=lambda z: np.array([z[0] + z[1], z[1] - 1.0]),
        jacobian=dense(lambda z: np.array([[1.0, 1.0], [0.0, 1.0]])),
    )
    scalar1 = MncpProblem(
        n_pairs=1,
        residual=lambda z: z - 2.0,
        jacobian=dense(lambda z: np.eye(1)),
    )
    scalar2 = MncpProblem(
        n_pairs=1,
        residual=lambda z: z + 2.0,
        jacobian=dense(lambda z: np.eye(1)),
    )
    return [
        (mixed1, np.array([2.0, 2.0]), np.array([1.0, 1.0])),
        (mixed2, np.array([2.0, 2.0]), np.array([0.0, 1.0])),
        (scalar1, np.array([5.0]), np.array([2.0])),
        (scalar2, np.array([5.0]), np.array([0.0])),
    ]


def test_criterion_1_solver_toys():
    """Analytic toys converge in <= 30 iterations, interior, monotone merit."""
    opts = SolverOptions(tol=1e-8)
    for prob, z0, z_star in acceptance_toys():
        # instrumented replay of the solve loop
        z, r, _, _ = restore_feasibility(z0, prob)
        h = merit_vector(z, r, prob)
        s = 0.5 * float(h @ h)
        iterations = 0
        while np.max(np.abs(h)) > opts.tol or \
                np.max(np.minimum(z[:prob.n_pairs], r[:prob.n_pairs])) > opts.tol:
            assert iterations < 30, f"more than 30 iterations for solution {z_star}"
            d, g_dot_d = direction(z, r, h, s, prob)
            _, z, r, h, s_next, _ = line_search(z, r, d, g_dot_d, s, prob)
            assert np.all(z[:prob.n_pairs] > 0.0)
            assert np.all(r[:prob.n_pairs] > 0.0)
            assert s_next < s
            s = s_next
            iterations += 1
        np.testing.assert_allclose(z, z_star, atol=2e-5)

        z_solve, report = solve(prob, z0, opts)
        assert report.iterations <= 30
        np.testing.assert_array_equal(z_solve, z)
    _passed(1, "solver toy suite")


def test_criterion_2_jacobian_fd():
    """Analytic Jacobian matches central differences on 100 random states, M = 10."""
    rng = np.random.default_rng(2024)
    grid = Grid(length=0.05, m=10, k=1e-5, n_steps=1)
    cache = assemble_matrices(grid, BASE_PARAMS)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0, 10)
        eta = rng.uniform(0.0, 1.0, 10)
        analytic = jacobian(closure(theta, eta, cache.params), cache).to_dense()
        fd = dense_jacobian_fd(theta, eta, cache)
        rel = np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))
        assert rel <= 1e-6
    _passed(2, "Jacobian vs finite differences")


def test_criterion_3_structural_identities():
    """A + B = 8 I exactly; last P component zero; A row sums."""
    rng = np.random.default_rng(99)
    from combust.discretization import assemble_P

    for m in (2, 10, 50):
        grid = Grid(length=0.05, m=m, k=1e-5, n_steps=1)
        cache = assemble_matrices(grid, BASE_PARAMS)
        np.testing.assert_array_equal(cache.a_dense() + cache.b_dense(), 8.0 * np.eye(m))
        sums = cache.a_dense().sum(axis=1)
        muh = grid.mu * BASE_PARAMS.h_diff
        assert sums[0] == pytest.approx(4.0 + 2.0 * muh, rel=1e-14)
        np.testing.assert_allclose(sums[1:], 4.0, rtol=1e-14)
        for _ in range(20):
            theta = rng.uniform(0.0, 5.0, m)
            assert assemble_P(theta, rng.uniform(0.0, 2.0), BASE_PARAMS)[-1] == 0.0
    _passed(3, "structural identities")


def test_criterion_4_heat_regression():
    """Spatial order >= 1.9 for the pure-diffusion limit against the exact mode."""
    pe_t = 2.0
    params = DimensionlessParams(pe_t=pe_t, beta=1e-300, e_act=1.0, theta0=1.0, u=1e-300)
    length = 1.0
    t_end = 0.25
    decay = params.h_diff * (np.pi / (2.0 * length)) ** 2

    errors = []
    spacings = []
    for m, n_steps in ((8, 20), (16, 80), (32, 320)):
        grid = Grid(length=length, m=m, k=t_end / n_steps, n_steps=n_steps)
        x = grid.x_nodes()[1:]
        init = State(theta=np.sin(np.pi * x / (2.0 * length)), eta=np.ones(m), n=0)
        config = RunConfig(grid=grid, params=params, method=MNCP,
                           solver_opts=SolverOptions(tol=1e-12), record_times=(t_end,))
        series = run(config, initial=init)
        _, final = series.snapshots[-1]
        exact = np.sin(np.pi * x / (2.0 * length)) * np.exp(-decay * t_end)
        errors.append(np.max(np.abs(final.theta - exact)))
        spacings.append(grid.h)

    orders = [np.log(errors[i] / errors[i + 1]) / np.log(spacings[i] / spacings[i + 1])
              for i in range(2)]
    assert min(orders) >= 1.9, f"observed orders {orders}"
    _passed(4, f"heat regression, orders {[round(float(o), 2) for o in orders]}")


def test_criterion_5_base_case_run(run_m50_mncp, tmp_path):
    """Base case at M = 50: every step converges; bounds and monotonicity hold."""
    series = run_m50_mncp
    assert len(series.per_step) == 1000
    prev_eta = None
    for _, state in series.snapshots:
        assert np.all(state.theta >= 0.0)
        assert np.all(state.eta >= 0.0)
        assert np.all(state.eta <= 1.0 + 1e-8)
        if prev_eta is not None:
            assert np.all(state.eta >= prev_eta - 1e-10)
        prev_eta = state.eta

    out = tmp_path / "profiles_m50.csv"
    grid = Grid(length=0.05, m=50, k=1e-5, n_steps=1000)
    fig_snaps = [(t, s) for t, s in series.snapshots
                 if any(abs(t - ft) < 1e-12 for ft in (0.0, 0.002, 0.004, 0.006, 0.008, 0.01))]
    emit_profiles(type(series)(snapshots=fig_snaps, per_step=series.per_step), grid, out)
    assert out.exists() and out.stat().st_size > 0
    _passed(5, f"base-case run, profiles at {out}")


def test_criterion_6_method_agreement(run_m50_mncp, run_m50_ncp,
                                      run_m100_mncp, run_m100_ncp):
    """Methods agree to 1e-3 at t = 0.01 and not worse when M doubles."""
    def final_diffs(ts_a, ts_b):
        sa = ts_a.snapshots[-1][1]
        sb = ts_b.snapshots[-1][1]
        return (float(np.max(np.abs(sa.theta - sb.theta))),
                float(np.max(np.abs(sa.eta - sb.eta))))

    d_theta_50, d_eta_50 = final_diffs(run_m50_mncp, run_m50_ncp)
    d_theta_100, d_eta_100 = final_diffs(run_m100_mncp, run_m100_ncp)
    assert d_theta_50 <= 1e-3 and d_eta_50 <= 1e-3
    assert d_theta_100 <= d_theta_50
    assert d_eta_100 <= d_eta_50
    _passed(6, f"method agreement, max diffs {d_theta_50:.2e}/{d_eta_50:.2e} at M=50")


def test_criterion_7_refinement_study():
    """Errors shrink under refinement at all ten times; final ratio in range."""
    config = base_config(50, MNCP, record_times=())
    rows = refine_errors(config, times=TABLE_TIMES)
    assert len(rows) == 20
    for row in rows:
        assert row.e_h2 < row.e_h, f"{row.variable} at t={row.time}"
        assert row.e_h4 < row.e_h2, f"{row.variable} at t={row.time}"
    final_theta = [r for r in rows if r.variable == "theta" and r.time == 0.01][0]
    assert 2.5 <= final_theta.ratio2 <= 4.5
    _passed(7, f"refinement study, final theta ratio {final_theta.ratio2:.2f}")


def test_criterion_8_count_statistics(run_m50_mncp, run_m50_ncp):
    """Step lengths sit on the 0.8 ladder; iteration counts stay in range."""
    nu = 0.8
    for series, bound in ((run_m50_mncp, 60), (run_m50_ncp, 40)):
        for stats in series.per_step:
            assert 1 <= stats.iterations <= bound
            j = round(np.log(stats.last_step) / np.log(nu))
            assert stats.last_step == pytest.approx(nu ** j, rel=1e-12)
    _passed(8, "count statistics and step-length ladder")
