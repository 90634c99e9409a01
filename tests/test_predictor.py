"""Each step starts from the extrapolation of the last two levels, or of the
last three after a slow step."""

from dataclasses import replace

import numpy as np
import pytest

from combust import timestepper
from combust.discretization import State, assemble_matrices
from combust.mncp import MNCP, NCP, SolverOptions
from combust.timestepper import run, step

from conftest import base_config


def three_steps(method=MNCP, record_times=()):
    """The base case at M = 8, cut to three steps."""
    config = base_config(8, method, record_times)
    return replace(config, grid=replace(config.grid, n_steps=3))


@pytest.fixture
def start_points(monkeypatch):
    """The start of every solve the time stepper makes, in call order: the
    leading entries of a stacked z, theta in MNCP and all of z in NCP."""
    seen = []
    original = timestepper.solve

    def recording(problem, z0, *args, **kwargs):
        seen.append(z0.copy())
        return original(problem, z0, *args, **kwargs)

    monkeypatch.setattr(timestepper, "solve", recording)
    return seen


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_step_with_previous_extrapolates(start_points, method):
    # given the previous level, the start is 2 z^n - z^(n-1); given also the
    # level before it, 3 (z^n - z^(n-1)) + z^(n-2), on theta alone in MNCP
    n = 8 if method == MNCP else 16
    config = three_steps(method)
    cache = assemble_matrices(config.grid, config.params)
    rng = np.random.default_rng(3)
    earlier = State(theta=rng.uniform(0.0, 1e-3, 8), eta=rng.uniform(0.0, 1e-2, 8), n=3)
    previous = State(theta=earlier.theta + rng.uniform(0.0, 1e-5, 8),
                     eta=earlier.eta + rng.uniform(0.0, 1e-4, 8), n=4)
    current = State(theta=previous.theta + rng.uniform(0.0, 1e-5, 8),
                    eta=previous.eta + rng.uniform(0.0, 1e-4, 8), n=5)
    step(current, timestepper.StepEquations(cache, method, current), config, 0.0, previous)
    step(current, timestepper.StepEquations(cache, method, current), config, 0.0, previous, earlier)
    np.testing.assert_array_equal(
        start_points[0],
        np.concatenate((2.0 * current.theta - previous.theta,
                        2.0 * current.eta - previous.eta))[:n])
    np.testing.assert_array_equal(
        start_points[1],
        np.concatenate((3.0 * (current.theta - previous.theta) + earlier.theta,
                        3.0 * (current.eta - previous.eta) + earlier.eta))[:n])


@pytest.mark.parametrize("initial", [None, State(theta=np.full(8, 0.25), eta=np.full(8, 0.5))])
def test_run_extrapolates_after_the_first_step(start_points, initial):
    # the first step starts from the initial level and the second from two
    # levels; each later step starts from three levels after a step that
    # took more than two residual evaluations, and from two otherwise.
    # Within 12 steps both initial levels reach both cases.  MNCP's
    # unknowns are the theta entries of the levels
    config = base_config(8, MNCP, record_times=tuple(i * 1e-5 for i in range(13)))
    series = run(replace(config, grid=replace(config.grid, n_steps=12)), initial=initial)
    z = [s.theta for _, s in series.snapshots]
    assert len(start_points) == len(z) - 1 == 12
    np.testing.assert_array_equal(start_points[0], z[0])
    np.testing.assert_array_equal(start_points[1], 2.0 * z[1] - z[0])
    slow_before = []
    for n in range(2, 12):
        slow_before.append(series.per_step[n - 1].s_evals > 2)
        expected = 3.0 * (z[n] - z[n - 1]) + z[n - 2] if slow_before[-1] else 2.0 * z[n] - z[n - 1]
        np.testing.assert_array_equal(start_points[n], expected)
    assert any(slow_before) and not all(slow_before)


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
    assert sum(s.iterations for s in per_step) == 1007
    assert sum(s.s_evals for s in per_step) == 2010
    assert sum(s.js_evals for s in per_step) == 1007
    assert max(s.iterations for s in per_step) == 3


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_m400_counts(method):
    # the same counts at M = 400 (k = 1e-5, t = 0.01), the grid size of the
    # benchmark's fine_m400 and ncp_m400 workloads, where a step can take 4
    per_step = run(base_config(400, method, record_times=())).per_step
    assert sum(s.iterations for s in per_step) == 1011
    assert sum(s.s_evals for s in per_step) == 2016
    assert sum(s.js_evals for s in per_step) == 1011
    assert max(s.iterations for s in per_step) <= 4
