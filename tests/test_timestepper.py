import numpy as np
import pytest

from combust import timestepper
from combust.discretization import Grid, State, assemble_matrices
from combust.mncp import MNCP, NCP, SolverOptions, merit_vector, solve
from combust.model import BASE_PARAMS, phi
from combust.timestepper import (
    RunConfig,
    StepEquations,
    StepFailed,
    initial_state,
    run,
    snapshot_indices,
    step,
)


def tiny_config(m=10, n_steps=5, method=MNCP, record_times=()):
    grid = Grid(length=0.05, m=m, k=1e-5, n_steps=n_steps)
    return RunConfig(grid=grid, params=BASE_PARAMS, method=method,
                     solver_opts=SolverOptions(tol=1e-8), record_times=record_times)


class TestInitialState:
    def test_reservoir_start(self):
        state = initial_state(Grid(length=0.05, m=7, k=1e-5, n_steps=1))
        np.testing.assert_array_equal(state.theta, np.zeros(7))
        np.testing.assert_array_equal(state.eta, np.zeros(7))
        assert state.n == 0


class TestStepEquations:
    def test_interleaving_and_pairs(self):
        config = tiny_config(m=4)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        equations = StepEquations(cache, MNCP, state)
        prob = equations.problem
        assert prob.size == 8
        np.testing.assert_array_equal(prob.comp_index, [0, 2, 4, 6])
        assert not equations.jacobian(np.full(8, 0.1)).eta_pairs

        equations_ncp = StepEquations(cache, NCP, state)
        np.testing.assert_array_equal(equations_ncp.problem.comp_index, np.arange(8))
        assert equations_ncp.jacobian(np.full(8, 0.1)).eta_pairs

    def test_unknown_method(self):
        config = tiny_config(m=3)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        with pytest.raises(ValueError):
            StepEquations(cache, "simplex", state)


class TestStep:
    def test_burned_out_fixed_point(self):
        # theta = 0, eta = 1 is an equilibrium: the step must stay there
        config = tiny_config(m=8)
        cache = assemble_matrices(config.grid, config.params)
        state = State(theta=np.zeros(8), eta=np.ones(8), n=0)
        next_state, _ = step(state, StepEquations(cache, MNCP, state), config)
        assert np.max(np.abs(next_state.theta)) < 1e-7
        assert np.max(np.abs(next_state.eta - 1.0)) < 1e-7

    def test_first_step_burn_rate(self):
        # from the cold unburned start, eta grows by roughly k * Phi(0, 0)
        config = tiny_config(m=8)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        next_state, report = step(state, StepEquations(cache, MNCP, state), config)
        expected = config.grid.k * phi(0.0, 0.0, config.params)
        np.testing.assert_allclose(next_state.eta, np.full(8, expected), rtol=0.01)
        assert next_state.n == 1
        assert report.iterations >= 1

    def test_returns_the_solvers_report(self, monkeypatch):
        reports = []

        def recording(*args):
            z, report = solve(*args)
            reports.append(report)
            return z, report

        monkeypatch.setattr(timestepper, "solve", recording)
        config = tiny_config(m=6, n_steps=3)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        _, report = step(state, StepEquations(cache, MNCP, state), config)
        assert report is reports[-1]
        series = run(config)
        assert all(a is b for a, b in zip(series.per_step, reports[1:], strict=True))

    def test_failure_carries_time_index(self):
        config = tiny_config(m=6)
        config.solver_opts = SolverOptions(tol=1e-8, max_iter=1)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        state = State(theta=state.theta, eta=state.eta, n=3)
        with pytest.raises(StepFailed) as excinfo:
            step(state, StepEquations(cache, MNCP, state), config)
        assert excinfo.value.time_index == 3


class TestSnapshotIndices:
    def test_exact_hits(self):
        grid = Grid(length=0.05, m=4, k=1e-5, n_steps=1000)
        out = snapshot_indices(grid, (0.0, 0.002, 0.01))
        assert out == {0: 0.0, 200: 0.002, 1000: 0.01}

    def test_nearest_with_tie_to_lower(self):
        grid = Grid(length=1.0, m=4, k=0.1, n_steps=10)
        out = snapshot_indices(grid, (0.24, 0.26, 0.25))
        assert set(out) == {2, 3}
        assert out[2] == 0.24
        assert out[3] == 0.26

    def test_clamped_to_run_range(self):
        grid = Grid(length=1.0, m=4, k=0.1, n_steps=5)
        out = snapshot_indices(grid, (99.0,))
        assert out == {5: 99.0}


class TestRun:
    def test_every_step_solves_one_shared_problem(self, monkeypatch):
        # the pair index and the problem are built once per run, not per step
        problems = []
        original = timestepper.solve

        def recording(problem, *args):
            problems.append(problem)
            return original(problem, *args)

        monkeypatch.setattr(timestepper, "solve", recording)
        run(tiny_config(m=6, n_steps=4))
        assert len(problems) == 4
        assert all(p is problems[0] for p in problems)

    def test_zero_steps_records_initial(self):
        config = tiny_config(m=5, n_steps=0, record_times=(0.0,))
        series = run(config)
        assert len(series.per_step) == 0
        assert len(series.snapshots) == 1
        t0, s0 = series.snapshots[0]
        assert t0 == 0.0
        np.testing.assert_array_equal(s0.theta, np.zeros(5))

    def test_step_count_and_snapshot_times(self):
        config = tiny_config(m=6, n_steps=20, record_times=(0.0, 1e-4, 2e-4))
        series = run(config)
        assert len(series.per_step) == 20
        times = [t for t, _ in series.snapshots]
        assert times == [0.0, 1e-4, 2e-4]
        assert [s.n for _, s in series.snapshots] == [0, 10, 20]

    def test_eta_monotone_and_bounded(self):
        config = tiny_config(m=10, n_steps=30,
                             record_times=tuple(i * 1e-5 for i in range(31)))
        series = run(config)
        prev = None
        for _, state in series.snapshots:
            assert np.all(state.eta >= -1e-14)
            assert np.all(state.eta <= 1.0 + 1e-10)
            assert np.all(state.theta >= -1e-14)
            if prev is not None:
                assert np.all(state.eta >= prev.eta - 1e-12)
            prev = state

    def test_methods_agree(self):
        series_m = run(tiny_config(m=8, n_steps=10, method=MNCP, record_times=(1e-4,)))
        series_n = run(tiny_config(m=8, n_steps=10, method=NCP, record_times=(1e-4,)))
        _, sm = series_m.snapshots[-1]
        _, sn = series_n.snapshots[-1]
        np.testing.assert_allclose(sm.theta, sn.theta, atol=1e-6)
        np.testing.assert_allclose(sm.eta, sn.eta, atol=1e-6)

    def test_solution_satisfies_complementarity(self):
        config = tiny_config(m=8, n_steps=5, record_times=())
        grid = config.grid
        cache = assemble_matrices(grid, config.params)
        state = initial_state(grid)
        equations = StepEquations(cache, MNCP, state)
        for _ in range(5):
            # the problem of this step, kept at its level while the step advances `equations`
            prob = StepEquations(cache, MNCP, state).problem
            state, _ = step(state, equations, config)
            z = np.empty(2 * grid.m)
            z[0::2] = state.theta
            z[1::2] = state.eta
            r = prob.residual(z)
            assert np.max(np.abs(merit_vector(z, r, prob))) <= 1e-8
            assert np.all(state.theta >= 0.0)
            assert np.all(r[prob.comp_index] >= 0.0)

    def test_custom_initial_state(self):
        config = tiny_config(m=6, n_steps=3, record_times=(0.0,))
        warm = State(theta=np.full(6, 0.25), eta=np.zeros(6), n=0)
        series = run(config, initial=warm)
        _, s0 = series.snapshots[0]
        np.testing.assert_array_equal(s0.theta, np.full(6, 0.25))

    def test_failure_attaches_partial_series(self):
        config = tiny_config(m=6, n_steps=10, record_times=(0.0,))
        config.solver_opts = SolverOptions(tol=1e-16, max_iter=2)
        with pytest.raises(StepFailed) as excinfo:
            run(config)
        partial = excinfo.value.partial
        assert partial is not None
        assert len(partial.snapshots) == 1
