"""The restoration shift: warm-started from the previous time step, and decaying."""

from dataclasses import replace

import numpy as np
import pytest

from combust import mncp, timestepper
from combust.mncp import InfeasibleStart, MncpProblem, SolverOptions, restore_feasibility, solve
from combust.timestepper import run

from conftest import base_config, dense


def counted(residual):
    """One NCP pair with the given residual; returns (problem, list of calls)."""
    calls = []

    def counting(z):
        calls.append(1)
        return residual(z)

    prob = MncpProblem(n_pairs=1, residual=counting,
                       jacobian=dense(lambda z: np.eye(1)))
    return prob, calls


def shifted_line(offset=-1.0):
    """r(z) = z + offset."""
    return counted(lambda z: z + offset)


class TestRestoreFeasibility:
    def test_large_shift_takes_one_evaluation(self):
        prob, calls = shifted_line()
        z, r, n_evals, shift = restore_feasibility(np.array([0.0]), prob, 2.0)
        assert n_evals == 1 and len(calls) == 1
        assert shift == 2.0
        assert z[0] == 1e-6 + 2.0
        assert r[0] > 0.0

    def test_doubling_continues_from_shift(self):
        # 1e-6 + 0.25 and 1e-6 + 0.5 are infeasible; adding 0.5 then reaches 1e-6 + 1
        prob, _ = shifted_line()
        z, r, n_evals, shift = restore_feasibility(np.array([0.0]), prob, 0.25)
        assert n_evals == 3
        assert shift == 1.0
        assert z[0] == pytest.approx(1e-6 + 1.0, rel=1e-15)

    def test_zero_shift_doubles_from_eps_interior(self):
        prob, _ = shifted_line(offset=-3.5e-6)
        z, _, n_evals, shift = restore_feasibility(np.array([0.0]), prob)
        # 1e-6 + (1 + 2) * 1e-6 > 3.5e-6 after two doublings
        assert n_evals == 3
        assert shift == pytest.approx(3e-6, rel=1e-15)
        assert z[0] == pytest.approx(4e-6, rel=1e-15)

    def test_unrestorable_raises_after_max_restore(self, monkeypatch):
        monkeypatch.setattr(mncp, "_MAX_RESTORE", 8)
        prob, calls = counted(lambda z: np.full(1, -1.0))
        with pytest.raises(InfeasibleStart):
            restore_feasibility(np.array([1.0]), prob, 1.0)
        assert len(calls) == 1 + 8

    def test_solve_reports_shift(self):
        # restoration starts from half the previous shift, 0.25, as above
        prob, _ = shifted_line()
        z, report = solve(prob, np.array([0.0]), previous_shift=0.5)
        assert report.shift == 1.0
        assert z[0] == pytest.approx(1.0, abs=1e-6)


def test_run_finds_its_shift_once(monkeypatch):
    # the first step doubles the shift to 7e-6 (4 evaluations); every later
    # step starts from the extrapolated level with half the previous shift,
    # floored at tol, and needs one evaluation
    counts = []
    original = mncp.restore_feasibility

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        counts.append(out[2])
        return out

    monkeypatch.setattr(mncp, "restore_feasibility", counting)
    config = base_config(50, record_times=())
    config = replace(config, grid=replace(config.grid, n_steps=50))
    series = run(config)
    assert len(counts) == 50
    assert sum(counts) <= 53
    assert all(s.shift > 0.0 for s in series.per_step)


def test_run_halves_the_shift_down_to_tol(monkeypatch):
    # run hands each solve the previous solve's total shift s, and the solve
    # starts restoration from max(s / 2, tol); step 5's shift is forced to 0
    # to check that restoration then starts from 0
    handed, started, used = [], [], []
    original_step = timestepper.step
    original_restore = mncp.restore_feasibility

    def recording_step(state, equations, config, previous_shift=0.0, previous=None, earlier=None):
        handed.append(previous_shift)
        next_state, report = original_step(state, equations, config, previous_shift, previous,
                                           earlier)
        if next_state.n == 5:
            report = replace(report, shift=0.0)
        used.append(report.shift)
        return next_state, report

    def recording_restore(z0, problem, shift=0.0):
        started.append(shift)
        return original_restore(z0, problem, shift)

    monkeypatch.setattr(timestepper, "step", recording_step)
    monkeypatch.setattr(mncp, "restore_feasibility", recording_restore)
    config = base_config(50, record_times=())
    config = replace(config, grid=replace(config.grid, n_steps=30))
    tol = config.solver_opts.tol
    run(config)
    assert handed == [0.0] + used[:-1]
    assert started[0] == 0.0
    assert started[5] == 0.0
    for shift, start in zip(used, started[1:]):
        assert start == (max(0.5 * shift, tol) if shift > 0.0 else 0.0)
    # both sides of the floor are reached
    assert any(s > tol for s in started[1:5])
    assert started[-1] == tol


@pytest.mark.parametrize("tol", [1e-3, 1.0, 1e300])
def test_loose_tol_floors_the_shift_at_the_interior_clamp(tol):
    # above the clamp on the pair variables the floor is the clamp itself,
    # 1e-6, so no start is shifted by tol; the run ends with no
    # RuntimeWarning (pytest turns one into an error)
    config = replace(base_config(8, record_times=(3e-5,)), solver_opts=SolverOptions(tol=tol))
    config = replace(config, grid=replace(config.grid, n_steps=3))
    series = run(config)
    assert len(series.per_step) == 3
    _, final = series.snapshots[-1]
    assert np.all(final.theta < 1.0)
    prob, _ = shifted_line(offset=1.0)
    _, report = solve(prob, np.array([0.0]), SolverOptions(tol=tol), previous_shift=1e-9)
    assert report.shift == 1e-6
