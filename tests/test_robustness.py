"""Gates at grid sizes beyond the acceptance runs, and failure messages that explain themselves."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from combust import mncp, timestepper
from combust.cli import main
from combust.discretization import Grid, State, assemble_matrices
from combust.mncp import LineSearchStall, MaxIterations, MncpProblem, SolverOptions, solve
from combust.model import BASE_PARAMS
from combust.timestepper import RunConfig, StepEquations, StepFailed, initial_state, run, step

from conftest import base_config, dense

STATE_TEXT = re.compile(
    r"max\|H\| = \S+, natural residual = \S+, worst pair row (\d+): z = \S+, r = \S+")


@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
def test_base_case_m1600_reaches_t_0_003(method):
    config = base_config(1600, method, record_times=(0.003,))
    config = replace(config, grid=replace(config.grid, n_steps=300))
    series = run(config)
    assert len(series.per_step) == 300
    assert max(s.iterations for s in series.per_step) <= 8
    _, final = series.snapshots[-1]
    assert np.all(final.theta >= 0.0)
    assert np.all((final.eta >= 0.0) & (final.eta <= 1.0 + 1e-8))


@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
def test_base_case_m6400_reaches_t_0_001(method):
    config = base_config(6400, method, record_times=(0.001,))
    config = replace(config, grid=replace(config.grid, n_steps=100))
    series = run(config)
    assert len(series.per_step) == 100
    assert max(s.iterations for s in series.per_step) <= 16
    _, final = series.snapshots[-1]
    assert np.all(final.theta >= 0.0)
    assert np.all((final.eta >= 0.0) & (final.eta <= 1.0 + 1e-8))


def check_bounded_and_burning_forward(series, n_steps):
    """theta >= 0 and 0 <= eta <= 1 (to round-off; NCP reaches 1 + 2e-16)
    at every snapshot, and eta never falls from one snapshot to the next by
    more than round-off."""
    assert len(series.per_step) == n_steps
    theta = np.array([state.theta for _, state in series.snapshots])
    eta = np.array([state.eta for _, state in series.snapshots])
    assert len(eta) == n_steps + 1
    assert np.all(theta >= 0.0)
    assert np.all((eta >= 0.0) & (eta <= 1.0 + 1e-12))
    assert np.diff(eta, axis=0).min() >= -1e-12


@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
@pytest.mark.parametrize("m, max_iterations, max_mean", [(100, 11, 2.6), (400, 22, 7.0)],
                         ids=["m100", "m400"])
def test_ignition_case_reaches_t_1(method, m, max_iterations, max_mean):
    # the base case on a domain 100 times longer with k = 1e-3: the front
    # ignites, and theta >= 0 binds in the troughs of the centred convection
    # wiggles upstream of it (cell Peclet number 264 at M = 100, 66 at
    # M = 400).  Elsewhere G_i = 0 at the solution while theta_i stays
    # large, so a Newton step may take G_i to 0 or below there.  The most
    # iterations a step takes is 9 / 9 at M = 100 and 19 / 20 at M = 400,
    # and the mean per step 2.46 / 2.47 and 6.63 / 6.63 (MNCP / NCP)
    grid = Grid(length=5.0, m=m, k=1e-3, n_steps=1000)
    config = RunConfig(grid=grid, params=BASE_PARAMS, method=method,
                       record_times=tuple(np.arange(grid.n_steps + 1) * grid.k))
    series = run(config)
    check_bounded_and_burning_forward(series, grid.n_steps)
    iterations = [s.iterations for s in series.per_step]
    assert max(iterations) <= max_iterations
    assert sum(iterations) / len(iterations) <= max_mean


@pytest.mark.slow
@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
@pytest.mark.parametrize("m, max_iterations, max_mean", [(1600, 19, 12.0), (6400, 23, 15.0)],
                         ids=["m1600", "m6400"])
def test_ignition_ladder_reaches_t_1(method, m, max_iterations, max_mean):
    # the ignition case at M = 1600 and 6400, about 20 s in all: every step
    # converges, within a small margin over the most iterations a step was
    # measured to take (17 and 21), and the mean per step stays within a
    # small margin over the measured 11.46 / 11.44 and 14.19 / 14.31
    # (MNCP / NCP)
    grid = Grid(length=5.0, m=m, k=1e-3, n_steps=1000)
    series = run(RunConfig(grid=grid, params=BASE_PARAMS, method=method, record_times=(1.0,)))
    iterations = [s.iterations for s in series.per_step]
    assert len(iterations) == 1000
    assert max(iterations) <= max_iterations
    assert sum(iterations) / len(iterations) <= max_mean
    _, final = series.snapshots[-1]
    assert final.n == 1000 and np.all(final.theta >= 0.0)


@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
def test_base_case_m12800_takes_10_steps(method):
    # step 0 drives node 1 to z = r = 3.2e-7; each step takes 11 or 12
    # iterations
    config = base_config(12800, method, record_times=tuple(np.arange(11) * 1e-5))
    series = run(replace(config, grid=replace(config.grid, n_steps=10)))
    check_bounded_and_burning_forward(series, 10)
    assert max(s.iterations for s in series.per_step) <= 14


@pytest.mark.parametrize("eta0", [np.zeros(6), np.linspace(0.0, 0.5, 6)], ids=["eta_zero", "eta_ramp"])
@pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
def test_warm_start_with_zero_eta(method, eta0):
    # theta = 0.25 everywhere and eta = 0 at node 1 at least.  MNCP takes at
    # most 2 iterations per step from these states; NCP takes 7 / 8 on
    # step 0, where it accepts iterates with some pair residual <= 0 on
    # pairs identified active
    grid = Grid(length=0.05, m=6, k=1e-5, n_steps=12)
    config = RunConfig(grid=grid, params=BASE_PARAMS, method=method,
                       record_times=(grid.n_steps * grid.k,))
    series = run(config, State(np.full(6, 0.25), eta0))
    assert len(series.per_step) == 12
    assert max(s.iterations for s in series.per_step) <= 8
    _, final = series.snapshots[-1]
    assert final.n == 12
    assert np.all(final.theta >= 0.0)
    assert np.all((final.eta >= eta0) & (final.eta <= 1.0))


def test_refine_from_m125_cli(tmp_path):
    # grids M = 125, 250, 500, 1000 on the default record times
    out = tmp_path / "errors.csv"
    assert main(["refine", "--m", "125", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 2
    final_theta = [r for r in rows if r["variable"] == "theta" and float(r["t"]) == 0.01][0]
    assert 2.5 <= float(final_theta["ratio2"]) <= 4.5


class TestFailureMessages:
    def test_max_iterations_names_worst_pair(self):
        prob = MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([z[0] - 0.5, z[0] + z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 0.0], [1.0, 1.0]])),
        )
        with pytest.raises(MaxIterations) as excinfo:
            solve(prob, np.array([2.0, 2.0]), SolverOptions(max_iter=1))
        err = excinfo.value
        row, z_row, r_row = err.report.worst_pair
        z = err.iterate
        r = prob.residual(z)
        gap = np.abs(np.minimum(z, r))
        assert row == int(gap.argmax())
        assert (z_row, r_row) == (z[row], r[row])
        assert int(STATE_TEXT.search(str(err)).group(1)) == row
        assert f"natural residual = {gap.max():.3e}," in str(err)
        assert str(err).startswith("no convergence in 1 iterations; ")

    def test_line_search_stall_names_worst_pair(self):
        # a Jacobian of the wrong sign turns every Newton step uphill
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: z + 2.0,
            jacobian=dense(lambda z: np.array([[-10.0]])),
        )
        with pytest.raises(LineSearchStall) as excinfo:
            solve(prob, np.array([5.0]))
        err = excinfo.value
        assert err.report.worst_pair == (0, 5.0, 7.0)
        assert err.report.h_inf == 35.0
        assert STATE_TEXT.search(str(err)).group(1) == "0"

    def test_restoration_failure_carries_timed_report_without_pair(self, monkeypatch):
        # no iterate was restored, so there is no worst pair to name
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: np.full(1, -1.0),
            jacobian=dense(lambda z: np.eye(1)),
        )
        monkeypatch.setattr(mncp, "_MAX_RESTORE", 3)
        with pytest.raises(mncp.InfeasibleStart) as excinfo:
            solve(prob, np.array([1.0]))
        err = excinfo.value
        assert str(err) == "could not restore interiority; violated rows [0]"
        assert err.report.worst_pair is None
        assert err.report.iterations == 0
        assert err.report.wall_time > 0.0

    @pytest.mark.parametrize("method", [mncp.MNCP, mncp.NCP])
    def test_step_failure_names_node(self, method):
        config = base_config(50, method)
        config = replace(config, solver_opts=SolverOptions(max_iter=1))
        cache = assemble_matrices(config.grid, config.params)
        state = initial_state(config.grid)
        with pytest.raises(StepFailed) as excinfo:
            step(state, StepEquations(cache, method, state), config)
        err = excinfo.value
        row, z_row, _ = err.cause.report.worst_pair
        m = config.grid.m
        if method == mncp.MNCP:
            assert row < m           # the pairs are the theta rows
        var, res, node = ("theta", "G", row + 1) if row < m else ("eta", "Q", row - m + 1)
        assert str(err).endswith(f"; row {row} is {var} at node {node}, paired with {res}")
        assert err.cause.iterate[row] == z_row

    @pytest.mark.parametrize("row, text", [
        (2, "row 2 is theta at node 3, paired with G"),
        (4, "row 4 is theta at node 5, paired with G"),
        (5, "row 5 is eta at node 1, paired with Q"),
        (7, "row 7 is eta at node 3, paired with Q"),
    ])
    def test_step_failure_names_stacked_row(self, monkeypatch, row, text):
        # M = 5: rows 0..4 are theta against G, rows 5..9 eta against Q
        def failing(*args, **kwargs):
            raise MaxIterations("no convergence", report=mncp.SolverReport(worst_pair=(row, 0.1, 0.2)))

        monkeypatch.setattr(timestepper, "solve", failing)
        config = base_config(5, mncp.NCP)
        state = initial_state(config.grid)
        equations = StepEquations(assemble_matrices(config.grid, config.params), mncp.NCP, state)
        with pytest.raises(StepFailed) as excinfo:
            step(state, equations, config)
        assert str(excinfo.value) == f"solver failure (MaxIterations) at time step 0: no convergence; {text}"

    def test_cli_prints_cause(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("max_iter = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "solver failure (MaxIterations) at time step 0: no convergence in 1 iterations; " in err
        assert STATE_TEXT.search(err)
        assert re.search(r"is theta at node \d+, paired with G", err)
