"""The restoration shift: warm-started from the previous time step, and decaying."""

from dataclasses import replace

import numpy as np
import pytest

from combust import mncp, timestepper
from combust.mncp import InfeasibleStart, MncpProblem, restore_feasibility, solve
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
        prob, _ = shifted_line()
        z, report = solve(prob, np.array([0.0]), shift=0.25)
        assert report.converged
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
    # each step is handed max(s / 2, tol), where s is the previous step's
    # shift; step 5's shift is forced to 0 to check that 0 is passed on as 0
    passed, used = [], []
    original = timestepper.step

    def recording(state, equations, config, shift=0.0, previous=None, earlier=None):
        passed.append(shift)
        next_state, report = original(state, equations, config, shift, previous, earlier)
        if next_state.n == 5:
            report = replace(report, shift=0.0)
        used.append(report.shift)
        return next_state, report

    monkeypatch.setattr(timestepper, "step", recording)
    config = base_config(50, record_times=())
    config = replace(config, grid=replace(config.grid, n_steps=30))
    tol = config.solver_opts.tol
    run(config)
    assert passed[0] == 0.0
    assert passed[5] == 0.0
    for shift, next_shift in zip(used, passed[1:]):
        assert next_shift == (max(0.5 * shift, tol) if shift > 0.0 else 0.0)
    # both sides of the floor are reached
    assert any(s > tol for s in passed[1:5])
    assert passed[-1] == tol
