"""Outer time loop: advance the combustion state one complementarity solve per step."""

from __future__ import annotations

import math
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
    """The solve of time step time_index failed with the SolverError cause.

    The message is "solver failure (<Kind>) at time step <n>: <reason>":
    Kind is the cause's class and reason its message, followed, when the
    solver reported a worst pair, by that pair's stacked row named by node.
    With M interior nodes, row i < M is theta at node i + 1, paired with G,
    and row i >= M is eta at node i - M + 1, paired with Q.  run() attaches
    the steps completed before the failure as partial.
    """

    def __init__(self, cause: SolverError, time_index: int, m: int):
        reason = str(cause)
        if cause.report.worst_pair is not None:
            row = cause.report.worst_pair[0]
            var, res, node = ("theta", "G", row + 1) if row < m else ("eta", "Q", row - m + 1)
            reason += f"; row {row} is {var} at node {node}, paired with {res}"
        super().__init__(f"solver failure ({type(cause).__name__}) at time step {time_index}: {reason}")
        self.time_index = time_index
        self.cause = cause
        self.partial = None


def initial_state(grid: Grid) -> State:
    """Reservoir start: theta = 0 and eta = 0 at every interior node."""
    m = grid.m
    return State(theta=np.zeros(m), eta=np.zeros(m), n=0)


class StepEquations:
    """Residual and Jacobian of a run's time steps in the stacked unknowns
    z = (theta_1, ..., theta_M, eta_1, ..., eta_M), with residual rows
    (G; Q) and the stacked level data level = (LD; LDQ) of the step at hand.

    Built once per run from the run's first level: problem is the
    MncpProblem every step solves, and advance() moves the level data on to
    the next level once a step is solved.  In mncp mode the M theta entries
    are the complementarity pairs against G; in ncp mode all 2M entries
    are pairs.

    The latest residual evaluation is kept, not its point: the residual and
    the closure terms (s, e, Phi, F).  By MncpProblem's contract the
    Jacobian is built from those terms, and the next level's data from that
    residual alone.
    """

    def __init__(self, cache: SchemeCache, method: str, state: State):
        m = cache.grid.m
        if method == MNCP:
            n_pairs = m
        elif method == NCP:
            n_pairs = 2 * m
        else:
            raise ValueError(f"unknown method {method!r}")
        self.m = m
        self.cache = cache
        self.problem = MncpProblem(n_pairs, self.residual, self.jacobian)
        self.level = np.concatenate((assemble_LD(state, cache), assemble_LDQ(state, cache)))
        self._w = np.concatenate((np.full(m, 8.0), np.full(m, 4.0)))
        self._r = self._terms = None   # residual and closure of the latest residual call

    def residual(self, z):
        self._r, self._terms = residual(z, self.cache, self.level)
        return self._r

    def jacobian(self, z):
        """The Jacobian at z, the point of the latest residual call, from that
        call's closure terms."""
        return jacobian(self._terms, self.cache)

    def advance(self, z):
        """Move the level data on to the level that z holds, once z solves this
        step; z is the point of the latest residual call.

        A + B = 8 I, so with the residual (G; Q) at z
            LD' = B theta' - lambda_s P' + 2k Phi' = 8 theta' - G - LD
            LDQ' = 2 eta' + k Phi' = 4 eta' - Q - LDQ
        in O(M), with no exponential and no flux: level' = w z - r - level
        with w = (8, ..., 8, 4, ..., 4).
        """
        self.level = self._w * z - self._r - self.level


def step(state: State, equations: StepEquations, config: RunConfig, shift: float = 0.0,
         previous: Optional[State] = None, earlier: Optional[State] = None):
    """Advance one time level from the restoration shift `shift`.

    equations hold the level data of `state` and are advanced to those of
    the next state.  The solve starts from z^n; given the previous level,
    from the linear extrapolation 2 z^n - z^(n-1); given also the level
    before it (`earlier`), from the quadratic extrapolation
    3 (z^n - z^(n-1)) + z^(n-2).  Both act on theta and eta alike.  The
    start is not clipped: restoration clamps the pair variables, on a copy,
    so no input state is changed.
    Returns (next_state, report): next_state holds the solver's z itself,
    which nothing else references, and report is the SolverReport of the
    solve, whose shift is the total restoration shift the solve used.
    """
    if previous is None:
        z0 = state.z
    elif earlier is None:
        z0 = 2.0 * state.z - previous.z
    else:
        z0 = 3.0 * (state.z - previous.z) + earlier.z
    try:
        z, report = solve(equations.problem, z0, config.solver_opts, shift)
    except SolverError as err:
        raise StepFailed(err, state.n, equations.m) from err
    equations.advance(z)
    return State.stacked(z, state.n + 1), report


def nearest_step(t: float, k: float) -> int:
    """The step index nearest to time t with time step k; a tie goes to the lower step."""
    n = math.floor(t / k)
    return n if t - n * k <= (n + 1) * k - t else n + 1


def snapshot_indices(grid: Grid, record_times) -> dict:
    """Map each requested time to its nearest step, clamped to the run's steps."""
    out = {}
    for t in record_times:
        out.setdefault(min(max(nearest_step(t, grid.k), 0), grid.n_steps), t)
    return out


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
    accuracy.  Restoration starts from max(s / 2, tol), where s is the
    previous step's total shift (a shift of 0 stays 0).  The shift thus
    decays while the predicted start stays interior.  The tol floor keeps G
    at the start point near tol, about 4 times the shift, so the pairs
    start at the scale of the stopping test and one Newton step, whose
    centering fades with ||H||, brings them below it.  A shift decayed far
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
    previous = earlier = None
    if 0 in snap_at:
        snapshots.append((0.0, state))
    for n in range(grid.n_steps):
        try:
            next_state, report = step(state, equations, config, shift, previous, earlier)
        except StepFailed as err:
            err.partial = TimeSeries(snapshots=snapshots, per_step=per_step)
            raise
        per_step.append(report)
        earlier = previous if report.s_evals > 2 else None
        previous, state = state, next_state
        shift = max(0.5 * report.shift, config.solver_opts.tol) if report.shift > 0.0 else 0.0
        if state.n in snap_at:
            snapshots.append((state.n * grid.k, state))
    return TimeSeries(snapshots=snapshots, per_step=per_step)
