"""Interior-point solver for mixed nonlinear complementarity problems.

The problem: find z with z_i >= 0 and r_i(z) >= 0 for every complementarity
pair i, z_i r_i(z) = 0 on those pairs, and r_j(z) = 0 on the remaining
equality rows.  The pairs are the leading rows.  In "mncp" mode only some
rows are pairs; in "ncp" mode every row is.

The iteration is Newton's method on H(z) = (z_i r_i on pairs, r_j elsewhere)
with a centering perturbation on the complementarity rows, a backtracking
line search that keeps the iterates interior, and Armijo decrease on the
merit function S = 0.5 ||H||^2.  Every accepted iterate has positive pair
variables, and a positive residual on every pair not identified active at
the iterate it left: the line search lets r_i reach 0 where r_i < z_i, by
the min-based identification of Facchinei, Fischer & Kanzow (SIAM J.
Optim. 9, 1998).  The method is therefore no longer the paper's strictly
feasible FDA-MNCP, whose line search keeps every pair residual positive and
stalls where some r_i must reach 0 while z_i stays large.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MNCP = "mncp"
NCP = "ncp"

_SIGMA_C = 0.5          # centering fraction
_ETA_ARMIJO = 0.1       # sufficient-decrease fraction
_NU_BACKTRACK = 0.8     # step contraction factor
_STEP_FLOOR = 1e-12
_EPS_INTERIOR = 1e-6    # initial interiority floor
_MAX_RESTORE = 60       # doubling cap in feasibility restoration


class SolverError(RuntimeError):
    """Base class for solver failures; carries the report and the last iterate (see solve)."""

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

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class MncpProblem:
    """Evaluation contract for one complementarity problem.

    residual maps z to the full residual vector.  The first n_pairs rows are
    the complementarity pairs (pair i couples z_i with residual row i), with
    n_pairs >= 1; every later row is an equality.  jacobian maps z to its
    derivative J, whose newton_solve(z, r, rhs, n_pairs), given the
    residual r at z, returns the solution d of the Newton matrix of H,
    (diag(s) J + diag(a)) d = rhs with s = z and a = r on the first n_pairs
    rows and s = 1, a = 0 on the others, and raises np.linalg.LinAlgError
    when that matrix is singular.

    jacobian(z) is called only at the point z of the latest residual call,
    unmodified since: solve() hands direction() the restored start or the
    accepted probe with its evaluation, and returns that point.  A problem
    may take this as a precondition: its jacobian, and whatever its caller
    does with the returned point, may use what that residual call evaluated.
    """

    n_pairs: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object]


@dataclass
class SolverReport:
    iterations: int = 0
    s_evals: int = 0       # merit evaluations, line-search probes included
    js_evals: int = 0      # Jacobian builds / factorizations
    last_step: float = 1.0
    h_inf: float = np.inf
    worst_pair: Optional[tuple] = None  # on failure: (row, z_row, r_row) with the largest |min(z, r)|
    shift: float = 0.0     # total restoration shift added to the pair variables
    wall_time: float = 0.0


def merit_vector(z: np.ndarray, r: np.ndarray, problem: MncpProblem) -> np.ndarray:
    """H(z): complementarity products on pair rows, raw residual elsewhere."""
    h = r.copy()
    p = problem.n_pairs
    np.multiply(z[:p], r[:p], out=h[:p])
    return h


def natural_residual(z: np.ndarray, r: np.ndarray, problem: MncpProblem) -> float:
    """max_i |min(z_i, r_i)| over complementarity pairs.

    A scale-aware complementarity measure: the product z_i r_i can fall
    under any tolerance when both factors are merely small, while
    min(z_i, r_i) only does when one of them is genuinely near zero.  The
    absolute value counts a negative pair residual, which the line search
    allows on pairs identified active, as far from converged.
    """
    p = problem.n_pairs
    return float(np.maximum.reduce(np.abs(np.minimum(z[:p], r[:p]))))


def direction(z: np.ndarray, r: np.ndarray, h: np.ndarray, s: float, problem: MncpProblem):
    """Descent direction at z: solve J_H d = -H + sigma_c rho, sigma_c = _SIGMA_C.

    r, h and s are the residual, the merit vector H and the merit value
    S = 0.5 ||H||^2 at z, as the caller already holds them.

    rho is 0 on equality rows and, on every pair row, the one target
    max(min(1, ||H||_2) mu, 0) with the complementarity gap mu = mean(h_i)
    over the p pairs.  It centres the pairs and, being O(||H||^2) near the
    solution, fades faster than ||H||.

    Descent: grad(S)^T d = h^T rhs = -||H||^2 + sigma_c sum_i h_i rho_i, the
    sum over the pairs.  That sum is 0 when mu <= 0 and otherwise at most
    sum_i h_i mu = p mu^2 <= sum_i h_i^2 <= ||H||^2 by Cauchy-Schwarz, for
    h_i of either sign.  Hence grad(S)^T d <= -(1 - sigma_c) ||H||^2.
    Returns (d, grad_S_dot_d).
    """
    jac = problem.jacobian(z)
    p = problem.n_pairs
    rhs = -h
    mu = np.add.reduce(h[:p]) / p
    rhs[:p] += _SIGMA_C * max(min(1.0, math.sqrt(2.0 * s)) * mu, 0.0)
    # Jacobian of H: pair rows are z_i (dr_i/dz) + e_i r_i, the others dr_j/dz
    try:
        d = jac.newton_solve(z, r, rhs, p)
    except np.linalg.LinAlgError as err:
        raise SingularJacobian("Newton matrix is singular") from err
    # grad(S)^T d = h^T J_H d = h^T rhs for the matrix actually solved
    g_dot_d = float(h @ rhs)
    return d, g_dot_d


def line_search(z, r, d, g_dot_d, s0, problem: MncpProblem):
    """Backtracking on the ladder {1, nu, nu^2, ...}, nu = _NU_BACKTRACK.

    r is the residual at z.  Accepts the largest t whose probe z + t d is
    interior, with Armijo decrease on S by the fraction _ETA_ARMIJO.  A
    probe is interior when its pair variables are positive and its pair
    residual is positive on every pair not identified active at z, that is
    where r_i >= z_i; a pair with r_i < z_i is heading for r_i = 0 and may
    reach it.  The strict test, every probe residual positive, runs first
    and settles all but the probes it rejects.
    Returns (t, z_next, r_next, h_next, s_next, n_merit_evals).
    """
    p = problem.n_pairs
    t = 1.0
    n_evals = 0
    while t >= _STEP_FLOOR:
        z_t = z + d if t == 1.0 else z + t * d
        if np.minimum.reduce(z_t[:p]) > 0.0:
            r_t = problem.residual(z_t)
            h_t = merit_vector(z_t, r_t, problem)
            s_t = 0.5 * float(h_t @ h_t)
            n_evals += 1
            if ((np.minimum.reduce(r_t[:p]) > 0.0
                    or np.minimum.reduce(np.maximum(r_t[:p], z[:p] - r[:p])) > 0.0)
                    and s_t <= s0 + _ETA_ARMIJO * t * g_dot_d):
                return t, z_t, r_t, h_t, s_t, n_evals
        t *= _NU_BACKTRACK
    raise LineSearchStall(f"line search stalled below t={_STEP_FLOOR} (S={s0:.3e})")


def restore_feasibility(z0, problem: MncpProblem, shift: float = 0.0):
    """Move a warm start into the strict interior.

    Clamp pair variables to _EPS_INTERIOR and add shift to them, then add a
    doubling increment, starting at shift (at _EPS_INTERIOR when shift is 0),
    until every pair residual is strictly positive, or raise InfeasibleStart
    after _MAX_RESTORE doublings.  z0 is not written.  Passing the total
    shift of the previous time step lets a run find its shift once instead
    of replaying the doublings every step.
    Returns (z, r, n_residual_evals, total_shift).
    """
    p = problem.n_pairs
    z = np.array(z0, dtype=float)
    pairs = z[:p]
    np.maximum(pairs, _EPS_INTERIOR, out=pairs)
    pairs += shift
    r = problem.residual(z)
    n_evals = 1
    delta = shift if shift > 0.0 else _EPS_INTERIOR
    doublings = 0
    while np.minimum.reduce(r[:p]) <= 0.0:
        if doublings >= _MAX_RESTORE:
            bad = [int(i) for i in np.flatnonzero(r[:p] <= 0.0)]
            raise InfeasibleStart(f"could not restore interiority; violated rows {bad}", iterate=z)
        pairs += delta
        r = problem.residual(z)
        n_evals += 1
        shift += delta
        delta *= 2.0
        doublings += 1
    return z, r, n_evals, shift


def _record_failure(report: SolverReport, z, r, problem: MncpProblem) -> str:
    """Set report.worst_pair from the last iterate; describe its residual levels.

    The worst pair is the one with the largest |min(z_i, r_i)|, so that
    value is the natural residual.
    """
    p = problem.n_pairs
    gap = np.abs(np.minimum(z[:p], r[:p]))
    row = int(gap.argmax())
    report.worst_pair = (row, float(z[row]), float(r[row]))
    return (f"max|H| = {report.h_inf:.3e}, natural residual = {gap[row]:.3e}, "
            f"worst pair row {row}: z = {z[row]:.3e}, r = {r[row]:.3e}")


def _h_inf(h: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(h)))


def solve(problem: MncpProblem, z0: np.ndarray, opts: Optional[SolverOptions] = None,
          shift: float = 0.0):
    """Run the interior-point iteration from z0.

    shift is the restoration shift to start from (see restore_feasibility);
    the total shift used is returned in the report.
    An iterate is converged when both its natural residual and max|H| are at
    most tol.  The natural residual is tested first: it is the test that
    fails at a non-converged iterate (on the benchmark workloads, at every
    one), so max|H| is computed only when it passes, and on the way out of a
    failure.  report.h_inf is max|H| at the returned iterate, and at the last
    iterate of a failure.
    Returns (z_star, SolverReport) on convergence.  Otherwise raises a
    SolverError subclass carrying the report and, after restoration, the
    last accepted iterate, with max|H|, the natural residual and the pair
    with the largest |min(z_i, r_i)| there in its message and report.
    """
    opts = opts if opts is not None else SolverOptions()
    report = SolverReport()
    t_start = time.perf_counter()
    z = None
    try:
        z, r, n_evals, report.shift = restore_feasibility(z0, problem, shift)
        report.s_evals += n_evals
        h = merit_vector(z, r, problem)
        s = 0.5 * float(h @ h)
        while True:
            # Stop on max|H| <= tol, sharpened by the natural residual so tiny
            # variables cannot mask large raw residuals on their pair rows.
            # The natural residual is the test that binds, so it goes first.
            if natural_residual(z, r, problem) <= opts.tol:
                report.h_inf = _h_inf(h)
                if report.h_inf <= opts.tol:
                    return z, report
            if report.iterations >= opts.max_iter:
                raise MaxIterations(f"no convergence in {opts.max_iter} iterations")
            d, g_dot_d = direction(z, r, h, s, problem)
            report.js_evals += 1
            t, z, r, h, s, n_evals = line_search(z, r, d, g_dot_d, s, problem)
            report.s_evals += n_evals
            report.iterations += 1
            report.last_step = t
    except SolverError as err:
        err.report = report
        # a failure after restoration names the worst pair of the last iterate
        if z is not None:
            err.iterate = z
            report.h_inf = _h_inf(h)
            err.args = (f"{err}; {_record_failure(report, z, r, problem)}",)
        raise
    finally:
        report.wall_time = time.perf_counter() - t_start
