"""Each step starts from the linear extrapolation of the last two levels."""

from dataclasses import replace

import numpy as np
import pytest

from combust import timestepper
from combust.discretization import State, assemble_matrices
from combust.mncp import MNCP, NCP, SolverOptions
from combust.timestepper import run, step

from conftest import base_config


def interleave(theta, eta):
    z = np.empty(2 * theta.size)
    z[0::2] = theta
    z[1::2] = eta
    return z


def three_steps(method=MNCP, record_times=()):
    """The base case at M = 8, cut to three steps."""
    config = base_config(8, method, record_times)
    return replace(config, grid=replace(config.grid, n_steps=3))


@pytest.fixture
def start_points(monkeypatch):
    """The z0 of every solve the time stepper makes, in call order."""
    seen = []
    original = timestepper.solve

    def recording(problem, z0, *args, **kwargs):
        seen.append(z0.copy())
        return original(problem, z0, *args, **kwargs)

    monkeypatch.setattr(timestepper, "solve", recording)
    return seen


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_step_with_previous_extrapolates(start_points, method):
    config = three_steps(method)
    cache = assemble_matrices(config.grid, config.params)
    rng = np.random.default_rng(3)
    previous = State(theta=rng.uniform(0.0, 1e-3, 8), eta=rng.uniform(0.0, 1e-2, 8), n=4)
    current = State(theta=previous.theta + rng.uniform(0.0, 1e-5, 8),
                    eta=previous.eta + rng.uniform(0.0, 1e-4, 8), n=5)
    step(current, timestepper.StepEquations(cache, method, current), config, 0.0, previous)
    np.testing.assert_array_equal(
        start_points[0],
        interleave(2.0 * current.theta - previous.theta, 2.0 * current.eta - previous.eta))


@pytest.mark.parametrize("initial", [None, State(theta=np.full(8, 0.25), eta=np.full(8, 0.5))])
def test_run_extrapolates_after_the_first_step(start_points, initial):
    config = three_steps(record_times=tuple(i * 1e-5 for i in range(4)))
    series = run(config, initial=initial)
    levels = [s for _, s in series.snapshots]
    assert len(start_points) == 3
    # the first step starts from the initial level itself
    np.testing.assert_array_equal(start_points[0], interleave(levels[0].theta, levels[0].eta))
    for n in (1, 2):
        np.testing.assert_array_equal(
            start_points[n],
            interleave(2.0 * levels[n].theta - levels[n - 1].theta,
                       2.0 * levels[n].eta - levels[n - 1].eta))


@pytest.mark.parametrize("fixture", ["run_m50_mncp", "run_m50_ncp"])
def test_base_case_takes_about_one_iteration_per_step(request, fixture):
    per_step = request.getfixturevalue(fixture).per_step
    assert len(per_step) == 1000
    assert sum(s.iterations for s in per_step) / len(per_step) <= 1.1
    assert sum(s.s_evals for s in per_step) / len(per_step) <= 2.1


@pytest.mark.parametrize("method, fixture", [(MNCP, "run_m50_mncp"), (NCP, "run_m50_ncp")])
def test_final_state_close_to_tight_tolerance_run(request, method, fixture):
    # stopping near tol must not eat the margin to a converged solution
    _, final = request.getfixturevalue(fixture).snapshots[-1]
    config = base_config(50, method, record_times=(0.01,))
    tight = run(replace(config, solver_opts=SolverOptions(tol=1e-12)))
    _, reference = tight.snapshots[-1]
    assert final.n == reference.n == 1000
    assert np.max(np.abs(final.theta - reference.theta)) <= 5e-7
    assert np.max(np.abs(final.eta - reference.eta)) <= 5e-7


@pytest.mark.parametrize("fixture", ["run_m50_mncp", "run_m50_ncp"])
def test_base_case_counts(request, fixture):
    # the counts of the paper's base case (M = 50, k = 1e-5, t = 0.01) in
    # both modes; a change to the iteration shows here first
    per_step = request.getfixturevalue(fixture).per_step
    assert sum(s.iterations for s in per_step) == 1011
    assert sum(s.s_evals for s in per_step) == 2014
    assert sum(s.js_evals for s in per_step) == 1011
    assert max(s.iterations for s in per_step) == 3
