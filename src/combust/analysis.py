"""Experiment drivers: method comparison, iteration statistics, refinement errors."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from combust.discretization import Grid, State
from combust.mncp import MNCP, NCP
from combust.timestepper import RunConfig, TimeSeries, run


class DiffRow(NamedTuple):
    """One row of the `compare` CSV, fields in column order."""

    time: float
    theta_max: float
    theta_l2: float
    eta_max: float
    eta_l2: float


class ErrorRow(NamedTuple):
    """One row of the `refine` CSV, fields in column order."""

    time: float
    e_h: float
    e_h2: float
    e_h4: float
    ratio1: float            # e_h / e_h2, nan when undefined
    ratio2: float            # e_h2 / e_h4, nan when undefined
    variable: str            # "theta" or "eta"


def diff_series(a: TimeSeries, b: TimeSeries) -> list:
    """Node-wise differences between two time series on the same grid: one
    DiffRow per snapshot pair."""
    rows = []
    for (ta, sa), (tb, sb) in zip(a.snapshots, b.snapshots):
        dt_theta = sa.theta - sb.theta
        dt_eta = sa.eta - sb.eta
        rows.append(DiffRow(
            time=ta,
            theta_max=float(np.max(np.abs(dt_theta))),
            theta_l2=float(np.linalg.norm(dt_theta)),
            eta_max=float(np.max(np.abs(dt_eta))),
            eta_l2=float(np.linalg.norm(dt_eta)),
        ))
    return rows


def compare_methods(config: RunConfig) -> list:
    """Run the same configuration under both methods and diff the snapshots."""
    ts_mncp = run(dataclasses.replace(config, method=MNCP))
    ts_ncp = run(dataclasses.replace(config, method=NCP))
    return diff_series(ts_mncp, ts_ncp)


def restrict(fine: State, fine_grid: Grid, coarse_grid: Grid) -> State:
    """Sample a fine-grid state at the coincident nodes of a half-resolution grid."""
    if fine_grid.m != 2 * coarse_grid.m or fine_grid.length != coarse_grid.length:
        raise ValueError(
            f"incompatible grids: fine m={fine_grid.m}, coarse m={coarse_grid.m}, "
            f"lengths {fine_grid.length} vs {coarse_grid.length}"
        )
    return State(fine.theta[1::2], fine.eta[1::2], fine.n)


def _relative_error(coarse_vec: np.ndarray, ref_vec: np.ndarray) -> float:
    denom = float(np.linalg.norm(ref_vec))
    if denom == 0.0:
        return float("nan")
    return float(np.linalg.norm(coarse_vec - ref_vec)) / denom


def refine_errors(base_config: RunConfig, times) -> list:
    """Self-convergence study on grids M, 2M, 4M, 8M with the time step fixed:
    one ErrorRow per snapshot time and variable.

    E at level L is the relative L2 distance between the level-L solution
    and the next-finer solution restricted to the level-L grid.  Rows follow
    the runs' snapshots, which share one time step: times that round to the
    same step give one row, times past the end give the final step's row,
    and each row is labelled with its snapshot time.
    """
    times = tuple(times)
    base_grid = base_config.grid
    grids = []
    series = []
    for factor in (1, 2, 4, 8):
        grid = dataclasses.replace(base_grid, m=base_grid.m * factor)
        cfg = dataclasses.replace(base_config, grid=grid, record_times=times)
        grids.append(grid)
        series.append(run(cfg))

    rows = []
    for snapshots in zip(*(ts.snapshots for ts in series)):
        t = snapshots[0][0]
        errors = {"theta": [], "eta": []}
        for level in range(3):
            coarse = snapshots[level][1]
            fine = snapshots[level + 1][1]
            ref = restrict(fine, grids[level + 1], grids[level])
            errors["theta"].append(_relative_error(coarse.theta, ref.theta))
            errors["eta"].append(_relative_error(coarse.eta, ref.eta))
        for var in ("theta", "eta"):
            e_h, e_h2, e_h4 = errors[var]
            rows.append(ErrorRow(
                time=t, e_h=e_h, e_h2=e_h2, e_h4=e_h4,
                ratio1=e_h / e_h2 if e_h2 > 0.0 else float("nan"),
                ratio2=e_h2 / e_h4 if e_h4 > 0.0 else float("nan"),
                variable=var,
            ))
    return rows


def bench(config: RunConfig) -> list:
    """(snapshot time, method, SolverReport) for each snapshot after step 0, both methods.

    The report is that of the step that reached the snapshot.
    """
    rows = []
    for method in (MNCP, NCP):
        ts = run(dataclasses.replace(config, method=method))
        rows += [(t_snap, method, ts.per_step[state.n - 1])
                 for t_snap, state in ts.snapshots if state.n > 0]
    return rows
