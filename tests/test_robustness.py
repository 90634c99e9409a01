"""Gates at grid sizes beyond the acceptance runs, and failure messages that explain themselves."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from combust import mncp
from combust.cli import main
from combust.discretization import assemble_matrices
from combust.mncp import LineSearchStall, MaxIterations, MncpProblem, SolverOptions, solve
from combust.timestepper import StepFailed, initial_state, run, step

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
            size=2, comp_index=[0, 1],
            residual=lambda z: np.array([z[0] - 0.5, z[0] + z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 0.0], [1.0, 1.0]])),
        )
        with pytest.raises(MaxIterations) as excinfo:
            solve(prob, np.array([2.0, 2.0]), SolverOptions(max_iter=1))
        err = excinfo.value
        row, z_row, r_row = err.report.worst_pair
        z = err.iterate
        r = prob.residual(z)
        gap = np.minimum(z, r)
        assert row == int(gap.argmax())
        assert (z_row, r_row) == (z[row], r[row])
        assert int(STATE_TEXT.search(str(err)).group(1)) == row
        assert f"natural residual = {gap.max():.3e}," in str(err)
        assert str(err).startswith("no convergence in 1 iterations; ")

    def test_line_search_stall_names_worst_pair(self):
        # a Jacobian of the wrong sign turns every Newton step uphill
        prob = MncpProblem(
            size=1, comp_index=[0],
            residual=lambda z: z + 2.0,
            jacobian=dense(lambda z: np.array([[-10.0]])),
        )
        with pytest.raises(LineSearchStall) as excinfo:
            solve(prob, np.array([5.0]))
        err = excinfo.value
        assert err.report.worst_pair == (0, 5.0, 7.0)
        assert err.report.h_inf == 35.0
        assert STATE_TEXT.search(str(err)).group(1) == "0"

    def test_restoration_failure_carries_timed_report_without_pair(self):
        # no iterate was restored, so there is no worst pair to name
        prob = MncpProblem(
            size=1, comp_index=[0],
            residual=lambda z: np.full(1, -1.0),
            jacobian=dense(lambda z: np.eye(1)),
        )
        with pytest.raises(mncp.InfeasibleStart) as excinfo:
            solve(prob, np.array([1.0]), SolverOptions(max_restore=3))
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
        with pytest.raises(StepFailed) as excinfo:
            step(initial_state(config.grid), cache, config)
        err = excinfo.value
        row, z_row, _ = err.cause.report.worst_pair
        if method == mncp.MNCP:
            assert row % 2 == 0      # the pairs are the theta rows
        var, res = ("theta", "G") if row % 2 == 0 else ("eta", "Q")
        node = row // 2 + 1
        assert err.reason.endswith(f"; row {row} is {var} at node {node}, paired with {res}")
        assert err.cause.iterate[row] == z_row

    def test_cli_prints_cause(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("max_iter = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "solver failure (MaxIterations) at time step 0: no convergence in 1 iterations; " in err
        assert STATE_TEXT.search(err)
        assert re.search(r"is theta at node \d+, paired with G", err)
