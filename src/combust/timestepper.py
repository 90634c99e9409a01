"""Outer time loop: advance the combustion state one complementarity solve per step."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    stacked_row,
)
from combust.mncp import MNCP, NCP, SolverError, SolverOptions, solve
from combust.model import DimensionlessParams


@dataclass
class RunConfig:
    """One run: the grid, the dimensionless parameters, the method (MNCP or
    NCP), the solver's options and the times at which to record snapshots."""

    grid: Grid
    params: DimensionlessParams
    method: str = MNCP
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    record_times: tuple = ()


class TimeSeries(NamedTuple):
    snapshots: list          # (time, State) pairs, times strictly increasing
    per_step: list           # the solver's report of each completed step


class StepFailed(RuntimeError):
    """The solve of time step time_index failed with the SolverError cause.

    The message is "solver failure (<Kind>) at time step <n>: <reason>":
    Kind is the cause's class and reason its message, then the worst pair's
    stacked row (discretization.stacked_row), if the solver reported one.
    partial is the TimeSeries of the steps completed before the failure.
    """

    def __init__(self, cause: SolverError, time_index: int, m: int, partial: TimeSeries):
        reason = str(cause)
        if cause.report.worst_pair is not None:
            row = cause.report.worst_pair[0]
            var, res, node = stacked_row(row, m)
            reason += f"; row {row} is {var} at node {node}, paired with {res}"
        super().__init__(f"solver failure ({type(cause).__name__}) at time step {time_index}: {reason}")
        self.time_index = time_index
        self.cause = cause
        self.partial = partial


def initial_state(grid: Grid) -> State:
    """Reservoir start: theta = 0 and eta = 0 at every interior node."""
    m = grid.m
    return State(theta=np.zeros(m), eta=np.zeros(m), n=0)


class StepEquations:
    """Residual and Jacobian of a run's time steps, with the level data of the
    step at hand.  Every unknown is a complementarity pair: n_pairs is 2M in
    ncp mode, with z = (theta; eta), rows (G; Q) and level = (LD; LDQ), and
    M in mncp mode, with z = theta, rows G~ and level = (LD; beta (2 - LDQ)),
    where ldq = LDQ (see discretization).

    Built once per run from the run's first level, it is the problem every
    step hands mncp.solve: n_pairs, residual and jacobian meet the contract
    of mncp.MncpProblem, and advance() moves the level data on to the next
    level once a step is solved.

    The latest residual evaluation is kept, not its point: the residual and
    its terms.  By MncpProblem's contract the Jacobian is built from those
    terms, and the next level's data from that evaluation alone.
    """

    def __init__(self, cache: SchemeCache, method: str, state: State):
        m = cache.grid.m
        if method not in (MNCP, NCP):
            raise ValueError(f"unknown method {method!r}")
        self.cache = cache
        self.n_pairs = m if method == MNCP else 2 * m
        ld, ldq = assemble_LD(state, cache), assemble_LDQ(state, cache)
        if method == MNCP:
            self.ldq = ldq
            self.level = np.concatenate((ld, cache.closure.beta * (cache.two - ldq)))
        else:
            self.ldq = None
            self.level = np.concatenate((ld, ldq))
        self._w = np.full(self.n_pairs, 8.0)   # advance()'s weights: 8 on theta, 4 on eta
        self._w[m:] = 4.0
        self._r = self._terms = None   # residual and terms of the latest residual call

    def residual(self, z):
        self._r, self._terms = residual(z, self.cache, self.level)
        return self._r

    def jacobian(self, z):
        """The Jacobian at z, the point of the latest residual call, from that
        call's terms."""
        return jacobian(self._terms, self.cache)

    def advance(self, z):
        """Move the level data on to the level that z holds, once z solves this
        step; z is the point of the latest residual call.  Returns that
        level's stacked (theta; eta).

        A + B = 8 I, so with the residual r at z, in O(M), with no
        exponential and no flux,
            LD' = B theta' - lambda_s P' + 2k Phi' = 8 theta' - G - LD
            LDQ' = 2 eta' + k Phi' = 4 eta' - Q - LDQ   (ncp mode)
        that is level' = w z - r - level with w = (8, ..., 8, 4, ..., 4).  In
        mncp mode the terms of r give eta' = (LDQ + k beta e') / (2 + k beta e')
        and LDQ' = 2 eta' + k Phi'; eta' is never formed as 1 - Phi' / (beta e'),
        which is 0/0 where e' underflows.
        """
        level = self._w * z - self._r - self.level[:z.size]
        if self.ldq is None:
            self.level = level
            return z
        two = self.cache.two
        _, _, phi_next, _, k_beta_e, q_eta = self._terms
        eta = (self.ldq + k_beta_e) / q_eta
        self.ldq = two * eta + self.cache.k * phi_next
        self.level = np.concatenate((level, self.cache.closure.beta * (two - self.ldq)))
        return np.concatenate((z, eta))


def step(state: State, equations: StepEquations, config: RunConfig, previous_shift: float = 0.0,
         previous: Optional[State] = None, earlier: Optional[State] = None):
    """Advance one time level; previous_shift is the previous step's restoration shift.

    equations hold the level data of `state` and are advanced to those of
    the next state.  The solve is handed the solver's unknowns, the leading
    equations.n_pairs entries of z, from z^n; given the previous level, from
    the linear extrapolation 2 z^n - z^(n-1); given also the level before it
    (`earlier`), from the quadratic extrapolation 3 (z^n - z^(n-1)) + z^(n-2).
    The start is not clipped: restoration clamps the pair variables, on a
    copy, so no input state is changed.
    Returns (next_state, report): next_state holds the stacked z that
    equations.advance returns, which nothing else references, and report
    is the SolverReport of the solve, whose shift is the total restoration
    shift the solve used.  A failed solve raises its SolverError, which
    run() turns into StepFailed.
    """
    n = equations.n_pairs
    if previous is None:
        x0 = state.z[:n]
    elif earlier is None:
        x0 = 2.0 * state.z[:n] - previous.z[:n]
    else:
        x0 = 3.0 * (state.z[:n] - previous.z[:n]) + earlier.z[:n]
    x, report = solve(equations, x0, config.solver_opts, previous_shift)
    return State.stacked(equations.advance(x), state.n + 1), report


def nearest_step(t: float, k: float) -> int:
    """The step index nearest to time t with time step k; a tie goes to the lower step."""
    n = math.floor(t / k)
    return n if t - n * k <= (n + 1) * k - t else n + 1


def snapshot_indices(grid: Grid, record_times) -> set:
    """The step nearest to each requested time, clamped to the run's steps."""
    return {min(max(nearest_step(t, grid.k), 0), grid.n_steps) for t in record_times}


def run(config: RunConfig, initial: Optional[State] = None) -> TimeSeries:
    """Run the full time loop, snapshotting at the requested record times.

    A custom initial state may be supplied (used by verification runs; it
    is copied, not changed); by default the reservoir initial condition is
    used.  No state is written once made, so snapshots hold the states
    themselves.  The step equations are built once, with the level data
    (LD, LDQ) assembled for the first step only; each step advances them
    to the next level (see StepEquations.advance).

    Every step after the first starts from the extrapolation of the last
    two levels, or of the last three after a slow step: one that took more
    than its two residual evaluations (an extra Newton iteration, a
    restoration doubling or a backtracked probe).  The quadratic start
    shortens the transient after the cold start and through ignition.  On
    every other step the linear start is kept: it carries the levels'
    tolerance-sized errors with weights (2, 1) instead of (3, 3, 1), and
    the quadratic start on every step costs restoration doublings and
    accuracy.  Each solve is handed the previous solve's shift (mncp.solve).

    A solver failure raises StepFailed with the steps completed before it.
    The run ignores floating-point overflow, invalid and divide-by-zero: a
    non-finite value meets a typed check (the residual's, the direction's,
    or Armijo on an infinite merit), so it ends as StepFailed under any
    warnings filter.
    """
    grid = config.grid
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cache = assemble_matrices(grid, config.params)
        state = initial.copy() if initial is not None else initial_state(grid)
        equations = StepEquations(cache, config.method, state)
        snap_at = snapshot_indices(grid, config.record_times)

        snapshots = [(0.0, state)] if 0 in snap_at else []
        per_step = []
        shift = 0.0
        previous = earlier = None
        for n in range(grid.n_steps):
            try:
                next_state, report = step(state, equations, config, shift, previous, earlier)
            except SolverError as err:
                raise StepFailed(err, state.n, grid.m, TimeSeries(snapshots, per_step)) from err
            per_step.append(report)
            earlier = previous if report.s_evals > 2 else None
            previous, state = state, next_state
            shift = report.shift
            if state.n in snap_at:
                snapshots.append((state.n * grid.k, state))
    return TimeSeries(snapshots=snapshots, per_step=per_step)
