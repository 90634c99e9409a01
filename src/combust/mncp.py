"""Feasible-interior-point solver for mixed nonlinear complementarity problems.

The problem: find z with z_i >= 0 and r_i(z) >= 0 for every complementarity
pair i, z_i r_i(z) = 0 on those pairs, and r_j(z) = 0 on the remaining
equality rows.  In "mncp" mode only a designated subset of pairs is
complementary; in "ncp" mode every row is.

The iteration is Newton's method on H(z) = (z_i r_i on pairs, r_j elsewhere)
with a centering perturbation on the complementarity rows, an
interiority-preserving backtracking line search, and Armijo decrease on the
merit function S = 0.5 ||H||^2.  Every accepted iterate is strictly interior.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MNCP = "mncp"
NCP = "ncp"

_STEP_FLOOR = 1e-12
# Floor of each pair's centering target as a fraction of its own product:
# one Newton step shrinks a product z_i r_i by at most 1 / (sigma_c * _KAPPA).
_KAPPA = 0.02


class SolverError(RuntimeError):
    """Base class for solver failures; carries the last iterate and report."""

    def __init__(self, message: str, iterate=None, report=None):
        super().__init__(message)
        self.iterate = iterate
        self.report = report


class InfeasibleStart(SolverError):
    pass


class SingularJacobian(SolverError):
    pass


class LineSearchStall(SolverError):
    pass


class MaxIterations(SolverError):
    pass


@dataclass
class SolverOptions:
    tol: float = 1e-8               # stopping tolerance on max|H|
    max_iter: int = 200
    sigma_c: float = 0.5            # centering fraction
    eta_armijo: float = 0.1         # sufficient-decrease fraction
    nu_backtrack: float = 0.8       # step contraction factor
    eps_interior: float = 1e-6      # initial interiority floor
    max_restore: int = 60           # doubling cap in feasibility restoration

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma_c < 1.0:
            raise ValueError(f"sigma_c must be in (0, 1), got {self.sigma_c}")
        if not 0.0 < self.nu_backtrack < 1.0:
            raise ValueError(f"nu_backtrack must be in (0, 1), got {self.nu_backtrack}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0.0 < self.eta_armijo < 1.0:
            raise ValueError(f"eta_armijo must be in (0, 1), got {self.eta_armijo}")
        if not self.eps_interior > 0.0:
            raise ValueError(f"eps_interior must be positive, got {self.eps_interior}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.max_restore < 0:
            raise ValueError(f"max_restore must be nonnegative, got {self.max_restore}")


@dataclass
class MncpProblem:
    """Evaluation contract for one complementarity problem in `size` unknowns.

    residual maps z to the full residual vector; comp_index lists the
    rows/variables forming complementarity pairs (pair i couples z_i with
    residual row i); every other row is an equality.  jacobian maps z to its
    derivative J, an object that knows the same pair layout: its
    newton_solve(z, r, rhs), given the residual r at z, returns the solution
    d of the Newton matrix of H, (diag(s) J + diag(a)) d = rhs with s = z
    and a = r on the pair rows and s = 1, a = 0 on the equality rows, and
    raises np.linalg.LinAlgError when that matrix is singular.

    solve() calls jacobian only with the array it last passed to residual,
    unmodified since (the restored start or the accepted probe), and returns
    that array, so a problem may key values it shares between the two on
    `z is last_z`.
    """

    size: int
    comp_index: np.ndarray
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object]

    def __post_init__(self) -> None:
        self.comp_index = np.asarray(self.comp_index, dtype=int)


@dataclass
class SolverReport:
    converged: bool = False
    iterations: int = 0
    s_evals: int = 0       # merit evaluations, line-search probes included
    js_evals: int = 0      # Jacobian builds / factorizations
    last_step: float = 1.0
    h_inf: float = np.inf
    worst_pair: Optional[tuple] = None  # on failure: (row, z_row, r_row) with the largest min(z, r)
    shift: float = 0.0     # total restoration shift added to the pair variables
    wall_time: float = 0.0


def merit_vector(z: np.ndarray, r: np.ndarray, problem: MncpProblem) -> np.ndarray:
    """H(z): complementarity products on pair rows, raw residual elsewhere."""
    h = r.copy()
    ci = problem.comp_index
    h[ci] = z[ci] * r[ci]
    return h


def natural_residual(z: np.ndarray, r: np.ndarray, problem: MncpProblem) -> float:
    """max_i min(z_i, r_i) over complementarity pairs.

    A scale-aware complementarity measure: the product z_i r_i can fall
    under any tolerance when both factors are merely small, while
    min(z_i, r_i) only does when one of them is genuinely near zero.
    """
    ci = problem.comp_index
    if ci.size == 0:
        return 0.0
    return float(np.minimum(z[ci], r[ci]).max())


def merit(z: np.ndarray, problem: MncpProblem):
    """Merit value S = 0.5 ||H||^2 together with the vector H."""
    r = problem.residual(z)
    h = merit_vector(z, r, problem)
    return 0.5 * float(h @ h), h


def direction(z: np.ndarray, problem: MncpProblem, opts: SolverOptions, r=None, h=None,
              s=None):
    """Feasible descent direction: solve J_H d = -H + sigma_c rho.

    rho is 0 on equality rows and, on pair row i,
    rho_i = max(min(1, ||H||_2) mu, kappa h_i) with the complementarity gap
    mu = mean(h_i) over the pairs and kappa = _KAPPA.  The gap term centres
    the pairs and fades as ||H|| -> 0; the floor kappa h_i does not.  It
    keeps one step from shrinking any product z_i r_i by more than
    1 / (sigma_c kappa); without it a pair whose product is already far
    below the gap is driven at once toward z_i = r_i = 0, where the
    curvature of r flips the sign of r_i and the line search collapses.
    Near the solution the floor binds, so a full step shrinks each product
    by sigma_c kappa (1/100 at the defaults): local convergence is linear,
    not quadratic, and the distance of the start point from the solution
    sets the number of iterations.

    Descent: grad(S)^T d = h^T rhs = -||H||^2 + sigma_c sum_i h_i rho_i, the
    sum over the pairs, where h_i > 0 at interior points.  As
    min(1, ||H||) <= 1,
        sum_i h_i rho_i <= sum_i h_i max(mu, kappa h_i)
                         = mu sum_i h_i + sum_{kappa h_i > mu} h_i (kappa h_i - mu)
                        <= mu sum_i h_i + sum_i (h_i - mu)^2
                         = sum_i h_i^2 <= ||H||^2,
    because for kappa <= 1/2 each (h_i - mu)^2 - h_i (kappa h_i - mu) =
    (1 - kappa) h_i^2 - h_i mu + mu^2 >= ((h_i - mu)^2 + mu^2) / 2 >= 0.
    Hence grad(S)^T d <= -(1 - sigma_c) ||H||^2 for every kappa <= 1/2.
    The residual r, the merit vector h and the merit value s = 0.5 ||H||^2
    at z are computed when not given.
    Returns (d, grad_S_dot_d).
    """
    if r is None:
        r = problem.residual(z)
    if h is None:
        h = merit_vector(z, r, problem)
    if s is None:
        s = 0.5 * float(h @ h)
    jac = problem.jacobian(z)
    ci = problem.comp_index
    rhs = -h
    if ci.size:
        h_ci = h[ci]
        mu = h_ci.sum() / ci.size
        rhs[ci] += opts.sigma_c * np.maximum(min(1.0, math.sqrt(2.0 * s)) * mu, _KAPPA * h_ci)
    # Jacobian of H: pair rows are z_i (dr_i/dz) + e_i r_i, the others dr_j/dz
    try:
        d = jac.newton_solve(z, r, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularJacobian("Newton matrix is singular", iterate=z) from err
    # grad(S)^T d = h^T J_H d = h^T rhs for the matrix actually solved
    g_dot_d = float(h @ rhs)
    return d, g_dot_d


def line_search(z, d, g_dot_d, s0, problem: MncpProblem, opts: SolverOptions):
    """Backtracking on the ladder {1, nu, nu^2, ...}.

    Accepts the largest t keeping z + t d strictly interior (positive pair
    variables and positive pair residuals) with Armijo decrease on S.
    The minimum over no pairs is +inf, so without pairs every probe is
    interior.
    Returns (t, z_next, r_next, h_next, s_next, n_merit_evals).
    """
    ci = problem.comp_index
    t = 1.0
    n_evals = 0
    while t >= _STEP_FLOOR:
        z_t = z + d if t == 1.0 else z + t * d
        z_ci = z_t[ci]
        if z_ci.min(initial=np.inf) > 0.0:
            r_t = problem.residual(z_t)
            r_ci = r_t[ci]
            h_t = r_t.copy()            # merit_vector, sharing the pair entries
            h_t[ci] = z_ci * r_ci
            s_t = 0.5 * float(h_t @ h_t)
            n_evals += 1
            if r_ci.min(initial=np.inf) > 0.0 and s_t <= s0 + opts.eta_armijo * t * g_dot_d:
                return t, z_t, r_t, h_t, s_t, n_evals
        t *= opts.nu_backtrack
    raise LineSearchStall(f"line search stalled below t={_STEP_FLOOR} (S={s0:.3e})", iterate=z)


def restore_feasibility(z0, problem: MncpProblem, opts: SolverOptions, shift: float = 0.0):
    """Move a warm start into the strict interior.

    Clamp pair variables to eps_interior and add shift to them, then add a
    doubling increment, starting at shift (at eps_interior when shift is 0),
    until every pair residual is strictly positive.  Passing the total shift
    of the previous time step lets a run find its shift once instead of
    replaying the doublings every step.
    Returns (z, r, n_residual_evals, total_shift).
    """
    ci = problem.comp_index
    z = np.array(z0, dtype=float)
    z[ci] = np.maximum(z[ci], opts.eps_interior) + shift
    r = problem.residual(z)
    n_evals = 1
    delta = shift if shift > 0.0 else opts.eps_interior
    doublings = 0
    while r[ci].min(initial=np.inf) <= 0.0:
        if doublings >= opts.max_restore:
            bad = [int(i) for i in problem.comp_index[r[ci] <= 0.0]]
            raise InfeasibleStart(f"could not restore interiority; violated rows {bad}", iterate=z)
        z[ci] += delta
        r = problem.residual(z)
        n_evals += 1
        shift += delta
        delta *= 2.0
        doublings += 1
    return z, r, n_evals, shift


def _record_failure(report: SolverReport, z, r, problem: MncpProblem) -> str:
    """Set report.worst_pair from the last iterate; describe its residual levels.

    The worst pair is the one with the largest min(z_i, r_i), so that minimum
    is the natural residual.
    """
    text = f"max|H| = {report.h_inf:.3e}"
    ci = problem.comp_index
    if ci.size:
        row = int(ci[np.minimum(z[ci], r[ci]).argmax()])
        report.worst_pair = (row, float(z[row]), float(r[row]))
        text += (f", natural residual = {min(z[row], r[row]):.3e}, worst pair row {row}: "
                 f"z = {z[row]:.3e}, r = {r[row]:.3e}")
    return text


def solve(problem: MncpProblem, z0: np.ndarray, opts: Optional[SolverOptions] = None,
          shift: float = 0.0):
    """Run the feasible-interior-point iteration from z0.

    shift is the restoration shift to start from (see restore_feasibility);
    the total shift used is returned in the report.
    Returns (z_star, SolverReport) on convergence (max|H| <= tol); raises a
    SolverError subclass carrying the last iterate and report otherwise.
    A failure inside the iteration reports max|H|, the natural residual and
    the pair with the largest min(z_i, r_i) in its message and report.
    """
    opts = opts if opts is not None else SolverOptions()
    report = SolverReport()
    t_start = time.perf_counter()
    z = None
    try:
        z, r, n_evals, report.shift = restore_feasibility(z0, problem, opts, shift)
        report.s_evals += n_evals
        h = merit_vector(z, r, problem)
        s = 0.5 * float(h @ h)
        while True:
            report.h_inf = float(np.abs(h).max())
            # Stop on max|H| <= tol, sharpened by the natural residual so tiny
            # variables cannot mask large raw residuals on their pair rows.
            if report.h_inf <= opts.tol and natural_residual(z, r, problem) <= opts.tol:
                report.converged = True
                return z, report
            if report.iterations >= opts.max_iter:
                raise MaxIterations(f"no convergence in {opts.max_iter} iterations", iterate=z)
            d, g_dot_d = direction(z, problem, opts, r=r, h=h, s=s)
            report.js_evals += 1
            t, z, r, h, s, n_evals = line_search(z, d, g_dot_d, s, problem, opts)
            report.s_evals += n_evals
            report.iterations += 1
            report.last_step = t
    except SolverError as err:
        err.report = report
        # a failure after restoration names the worst pair of the last iterate
        if z is not None:
            err.args = (f"{err}; {_record_failure(report, z, r, problem)}",)
        raise
    finally:
        report.wall_time = time.perf_counter() - t_start
