from dataclasses import replace

import numpy as np
import pytest

from combust import timestepper
from combust.discretization import Grid, State, assemble_matrices, residual
from combust.mncp import MNCP, NCP, MaxIterations, MncpProblem, SolverOptions, merit_vector, solve
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

from conftest import DenseJacobian, to_dense


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


class TestState:
    def test_fields_are_views_of_the_stacked_vector(self):
        theta, eta = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        state = State(theta, eta, 7)
        np.testing.assert_array_equal(state.z, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert state.n == 7
        assert state.theta.base is state.z and state.eta.base is state.z
        # the fields are copied in, and writes through a view reach z
        theta[0] = 9.0
        state.eta[-1] = -6.0
        np.testing.assert_array_equal(state.theta, [1.0, 2.0, 3.0])
        assert state.z[-1] == -6.0

    def test_fields_must_match(self):
        with pytest.raises(ValueError):
            State(np.zeros(3), np.zeros(4))

    def test_copy_is_independent(self):
        state = State(np.arange(4.0), np.arange(4.0, 8.0), 2)
        twin = state.copy()
        assert twin.n == 2 and not np.shares_memory(twin.z, state.z)
        twin.theta[0] = 99.0
        twin.n = 3
        assert state.theta[0] == 0.0 and state.n == 2



class TestStepEquations:
    def test_stacking_and_pairs(self):
        config = tiny_config(m=4)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        rng = np.random.default_rng(4)
        for method, n_pairs in ((MNCP, 4), (NCP, 8)):
            equations = StepEquations(cache, method, state)
            assert equations.n_pairs == n_pairs
            # every unknown is a pair: z = theta and r = G~ in MNCP,
            # z = (theta; eta) and r = (G; Q) in NCP
            theta, eta = np.linspace(0.1, 0.4, 4), np.linspace(0.5, 0.8, 4)
            z = np.concatenate((theta, eta))[:n_pairs]
            r = equations.residual(z)
            assert r.shape == (n_pairs,)
            np.testing.assert_array_equal(r, residual(z, cache, equations.level)[0])
            # the Newton matrix scales every row
            rhs = rng.normal(size=n_pairs)
            jac = equations.jacobian(z)
            d = jac.newton_solve(z, r, rhs)
            ref = DenseJacobian(to_dense(jac)).newton_solve(z, r, rhs)
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))

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

    def test_eta_kept_where_the_exponential_underflows(self):
        # e_act = 1e4 makes exp(-e_act / s) underflow to 0 at every node: no
        # fuel burns, and MNCP's eta' = (LDQ + k beta e') / (2 + k beta e')
        # keeps eta exactly, where 1 - Phi' / (beta e') would be 0/0
        grid = Grid(length=0.05, m=6, k=1e-5, n_steps=3)
        config = RunConfig(grid=grid, params=replace(BASE_PARAMS, e_act=1e4),
                           record_times=(3e-5,))
        eta0 = np.linspace(0.1, 0.6, 6)
        _, final = run(config, State(np.zeros(6), eta0)).snapshots[-1]
        assert final.n == 3
        np.testing.assert_array_equal(final.eta, eta0)

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

    def test_leaves_its_input_states_unchanged(self):
        # on the first step z0 is state.z itself, and restoration clamps the
        # theta entries of zero up to eps_interior: on its own copy
        config = tiny_config(m=6, n_steps=2)
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        equations = StepEquations(cache, MNCP, state)
        next_state, _ = step(state, equations, config)
        np.testing.assert_array_equal(state.z, np.zeros(12))
        assert state.n == 0
        assert not np.shares_memory(next_state.z, state.z)
        before = (state.z.copy(), next_state.z.copy())
        last_state, _ = step(next_state, equations, config, 0.0, state)
        np.testing.assert_array_equal(state.z, before[0])
        np.testing.assert_array_equal(next_state.z, before[1])
        assert (state.n, next_state.n, last_state.n) == (0, 1, 2)
        assert not np.shares_memory(last_state.z, next_state.z)

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
        with pytest.raises(MaxIterations):
            step(state, StepEquations(cache, MNCP, state), config)
        with pytest.raises(StepFailed) as excinfo:
            run(config, initial=state)
        assert excinfo.value.time_index == 3


class TestSnapshotIndices:
    def test_exact_hits(self):
        grid = Grid(length=0.05, m=4, k=1e-5, n_steps=1000)
        assert snapshot_indices(grid, (0.0, 0.002, 0.01)) == {0, 200, 1000}

    def test_nearest_with_tie_to_lower(self):
        grid = Grid(length=1.0, m=4, k=0.1, n_steps=10)
        assert snapshot_indices(grid, (0.24, 0.26, 0.25)) == {2, 3}
        assert snapshot_indices(grid, (0.25,)) == {2}

    def test_clamped_to_run_range(self):
        grid = Grid(length=1.0, m=4, k=0.1, n_steps=5)
        assert snapshot_indices(grid, (99.0,)) == {5}


class TestRun:
    def test_every_step_solves_one_shared_problem(self, monkeypatch):
        # the step equations are built once per run, not per step, and are
        # themselves the problem every solve is handed
        problems = []
        built = []
        original_solve = timestepper.solve
        original_equations = timestepper.StepEquations

        def recording(problem, *args):
            problems.append(problem)
            return original_solve(problem, *args)

        def building(*args):
            built.append(original_equations(*args))
            return built[-1]

        monkeypatch.setattr(timestepper, "solve", recording)
        monkeypatch.setattr(timestepper, "StepEquations", building)
        run(tiny_config(m=6, n_steps=4))
        assert len(built) == 1 and len(problems) == 4
        assert all(p is built[0] for p in problems)

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
            # the problems of this step, kept at its level while the step
            # advances `equations`: the theta problem and the stacked (G; Q)
            prob = StepEquations(cache, MNCP, state)
            stacked = StepEquations(cache, NCP, state)
            state, _ = step(state, equations, config)
            g = prob.residual(state.theta)
            assert np.all(state.theta >= 0.0)
            assert np.all(g >= 0.0)
            assert np.max(np.abs(merit_vector(state.theta, g, prob))) <= 1e-8
            # the stored eta solves Q = 0 given theta
            q = stacked.residual(state.z)[grid.m:]
            assert np.max(np.abs(q)) <= 1e-14

    def test_custom_initial_state(self):
        config = tiny_config(m=6, n_steps=3, record_times=(0.0,))
        warm = State(theta=np.full(6, 0.25), eta=np.zeros(6), n=0)
        series = run(config, initial=warm)
        _, s0 = series.snapshots[0]
        np.testing.assert_array_equal(s0.theta, np.full(6, 0.25))

    @pytest.mark.parametrize("method", [MNCP, NCP])
    def test_snapshots_own_their_memory(self, monkeypatch, method):
        # snapshots hold the states themselves, not copies: each must be the
        # state step returned, never written since, and no two may share memory
        returned = {}
        original = timestepper.step

        def recording(*args):
            next_state, report = original(*args)
            returned[next_state.n] = next_state.z.copy()
            return next_state, report

        monkeypatch.setattr(timestepper, "step", recording)
        n_steps = 12
        config = tiny_config(m=6, n_steps=n_steps, method=method,
                             record_times=tuple(i * 1e-5 for i in range(n_steps + 1)))
        initial = State(theta=np.full(6, 0.25), eta=np.linspace(0.1, 0.5, 6), n=0)
        before = initial.z.copy()
        series = run(config, initial)
        np.testing.assert_array_equal(initial.z, before)
        states = [state for _, state in series.snapshots]
        assert [state.n for state in states] == list(range(n_steps + 1))
        assert not np.shares_memory(states[0].z, initial.z)
        np.testing.assert_array_equal(states[0].z, before)
        for state in states[1:]:
            np.testing.assert_array_equal(state.z, returned[state.n])
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert not np.shares_memory(a.z, b.z), (a.n, b.n)

    def test_failure_attaches_partial_series(self):
        config = tiny_config(m=6, n_steps=10, record_times=(0.0,))
        config.solver_opts = SolverOptions(tol=1e-16, max_iter=2)
        with pytest.raises(StepFailed) as excinfo:
            run(config)
        partial = excinfo.value.partial
        assert partial is not None
        assert len(partial.snapshots) == 1


def _records():
    """One of each of the solver's named-tuple records, by class name, as a run builds them."""
    config = tiny_config(m=4, n_steps=1)
    cache = assemble_matrices(config.grid, config.params)
    equations = StepEquations(cache, NCP, initial_state(config.grid))
    problem = MncpProblem(n_pairs=4, residual=equations.residual, jacobian=equations.jacobian)
    records = (cache, run(config), problem)
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("name", ["SchemeCache", "TimeSeries", "MncpProblem"])
def test_solver_records_are_immutable(name):
    # no field of these records can be rebound
    record = _records()[name]
    fields = type(record).__annotations__
    assert fields
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
