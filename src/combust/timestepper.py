"""Outer time loop: advance the combustion state one complementarity solve per step."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from combust.discretization import (
    Grid,
    SchemeCache,
    State,
    assemble_LD,
    assemble_LDQ,
    assemble_matrices,
    jacobian,
    residual,
)
from combust.mncp import MNCP, NCP, MncpProblem, SolverError, SolverOptions, solve
from combust.model import DimensionlessParams


@dataclass
class RunConfig:
    grid: Grid
    params: DimensionlessParams
    method: str = MNCP
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    record_times: tuple = ()


@dataclass
class TimeSeries:
    snapshots: list          # (time, State) pairs, times strictly increasing
    per_step: list           # the solver's report of each completed step


class StepFailed(RuntimeError):
    """A per-step complementarity solve failed; carries the time index.

    reason is the solver's message, with the worst pair's row named by its
    1-based node and variable when the solver reported one.
    """

    def __init__(self, reason: str, time_index: int, cause: SolverError, partial=None):
        super().__init__(f"solver failed at time step {time_index}: {reason}")
        self.reason = reason
        self.time_index = time_index
        self.cause = cause
        self.partial = partial


def initial_state(grid: Grid) -> State:
    """Reservoir start: theta = 0 and eta = 0 at every interior node."""
    m = grid.m
    return State(theta=np.zeros(m), eta=np.zeros(m), n=0)


class StepEquations:
    """Residual and Jacobian of a run's time steps in the interleaved unknowns
    z = (theta_1, eta_1, theta_2, eta_2, ...), with the level data LD, LDQ of
    the step at hand.

    Built once per run from the run's first level: problem is the
    MncpProblem every step solves, and advance() moves the level data on to
    the next level once a step is solved.  In mncp mode the theta entries
    (even indices) are the complementarity pairs against G; in ncp mode
    every entry is a pair.

    The latest residual evaluation is kept with its point: the residual and
    the closure terms (s, e, Phi, F).  The solver builds each Jacobian at, and
    returns, the point of its latest residual evaluation (see MncpProblem),
    so the Jacobian there reuses the exponential and the next level's data
    follow from the residual alone.  At any other point both are formed
    afresh.
    """

    def __init__(self, cache: SchemeCache, method: str, state: State):
        m = cache.grid.m
        if method == MNCP:
            comp_index = np.arange(0, 2 * m, 2)
        elif method == NCP:
            comp_index = np.arange(2 * m)
        else:
            raise ValueError(f"unknown method {method!r}")
        self.cache = cache
        self.eta_pairs = method == NCP
        self.problem = MncpProblem(2 * m, comp_index, self.residual, self.jacobian)
        self.ld = assemble_LD(state, cache)
        self.ldq = assemble_LDQ(state, cache)
        self._last = (None, None, None)   # (z, r, terms) of the latest residual

    def residual(self, z):
        r, terms = residual(z[0::2], z[1::2], self.cache, self.ld, self.ldq)
        self._last = (z, r, terms)
        return r

    def jacobian(self, z):
        last_z, _, terms = self._last
        return jacobian(z[0::2], z[1::2], self.cache, terms if z is last_z else None,
                        self.eta_pairs)

    def advance(self, z):
        """Move LD, LDQ on to the level that z holds, once z solves this step.

        A + B = 8 I, so with the residual (G, Q) at z
            LD' = B theta' - lambda_s P' + 2k Phi' = 8 theta' - G - LD
            LDQ' = 2 eta' + k Phi' = 4 eta' - Q - LDQ
        in O(M), with no exponential and no flux.
        """
        last_z, r, _ = self._last
        theta, eta = z[0::2], z[1::2]
        if z is last_z:
            self.ld = 8.0 * theta - r[0::2] - self.ld
            self.ldq = 4.0 * eta - r[1::2] - self.ldq
        else:
            state = State(theta=theta, eta=eta)
            self.ld, self.ldq = assemble_LD(state, self.cache), assemble_LDQ(state, self.cache)


def _failure_reason(err: SolverError) -> str:
    """The solver's message, naming the worst pair's interleaved row by node."""
    reason = str(err)
    if err.report is not None and err.report.worst_pair is not None:
        row = err.report.worst_pair[0]
        var, res = ("theta", "G") if row % 2 == 0 else ("eta", "Q")
        reason += f"; row {row} is {var} at node {row // 2 + 1}, paired with {res}"
    return reason


def step(state: State, equations: StepEquations, config: RunConfig, shift: float = 0.0,
         previous: Optional[State] = None):
    """Advance one time level from the restoration shift `shift`.

    equations hold the level data of `state` and are advanced to those of
    the next state.  The solve starts from z^n or, given the previous level,
    from the linear extrapolation 2 z^n - z^(n-1) on both theta and eta.  The
    start is not clipped: restoration clamps the pair variables.
    Returns (next_state, report): report is the SolverReport of the solve,
    whose shift is the total restoration shift the solve used.
    """
    z0 = np.empty(2 * state.theta.size)
    if previous is None:
        z0[0::2] = state.theta
        z0[1::2] = state.eta
    else:
        z0[0::2] = 2.0 * state.theta - previous.theta
        z0[1::2] = 2.0 * state.eta - previous.eta
    try:
        z, report = solve(equations.problem, z0, config.solver_opts, shift)
    except SolverError as err:
        raise StepFailed(_failure_reason(err), time_index=state.n, cause=err) from err
    equations.advance(z)
    return State(theta=z[0::2].copy(), eta=z[1::2].copy(), n=state.n + 1), report


def snapshot_indices(grid: Grid, record_times) -> dict:
    """Map each requested time to the nearest step index (ties to the lower step)."""
    out = {}
    for t in record_times:
        n_lo = int(np.floor(t / grid.k))
        n_lo = min(max(n_lo, 0), grid.n_steps)
        n_hi = min(n_lo + 1, grid.n_steps)
        n = n_lo if (t - n_lo * grid.k) <= (n_hi * grid.k - t) else n_hi
        out.setdefault(n, t)
    return out


def run(config: RunConfig, initial: Optional[State] = None) -> TimeSeries:
    """Run the full time loop, snapshotting at the requested record times.

    A custom initial state may be supplied (used by verification runs);
    by default the reservoir initial condition is used.  The step equations
    are built once, with the level data (LD, LDQ) assembled for the first
    step only; each step advances them to the next level (see
    StepEquations.advance).

    Every step after the first starts from the extrapolation of the last
    two levels, and its restoration starts from max(s / 2, tol), where s is
    the previous step's total shift (a shift of 0 stays 0).  The shift thus
    decays while the predicted start stays interior.  The tol floor keeps G
    at the start point near tol, about 4 times the shift, and one Newton
    step shrinks it 1 / (sigma_c kappa) = 100 fold.  A shift decayed far
    below tol leaves every other start point infeasible, and restoration
    doubles the shift back.
    """
    grid = config.grid
    cache = assemble_matrices(grid, config.params)
    state = initial.copy() if initial is not None else initial_state(grid)
    equations = StepEquations(cache, config.method, state)
    snap_at = snapshot_indices(grid, config.record_times)

    snapshots = []
    per_step = []
    shift = 0.0
    previous = None
    if 0 in snap_at:
        snapshots.append((0.0, state.copy()))
    for n in range(grid.n_steps):
        try:
            next_state, report = step(state, equations, config, shift, previous)
        except StepFailed as err:
            err.partial = TimeSeries(snapshots=snapshots, per_step=per_step)
            raise
        per_step.append(report)
        previous, state = state, next_state
        shift = max(0.5 * report.shift, config.solver_opts.tol) if report.shift > 0.0 else 0.0
        if state.n in snap_at:
            snapshots.append((state.n * grid.k, state.copy()))
    return TimeSeries(snapshots=snapshots, per_step=per_step)
