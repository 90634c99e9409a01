"""Crank-Nicolson discretization of the combustion system.

Interior nodes m = 1..M carry the unknowns; node 0 is the injection
boundary, fixed at the constants THETA_B = 0 and ETA_B = 1, and node M gets
the Neumann mirror F_{M+1} = F_{M-1}.
One time step solves, in the unknowns (theta, eta) at level n+1,

    G = A theta + lambda_s P(theta) - 2k Phi(theta, eta) - LD   (complementarity)
    Q = 2 eta - k Phi(theta, eta) - LDQ                          (equality)

where LD = B theta^n - lambda_s P^n + 2k Phi^n and
LDQ = 2 eta^n + k Phi^n are frozen at level n.  assemble_LD and
assemble_LDQ build them from a state; they run for the first step only.
As A + B = 8 I, the residual (G, Q) at the solution of a step gives the
next level's data in O(M), with no exponential and no flux:
LD' = 8 theta' - G - LD and LDQ' = 4 eta' - Q - LDQ
(timestepper.StepEquations.advance).

Each point's Arrhenius exponential is formed once: residual() takes Phi
and F from the closure (s, e, Phi, F) of its point and returns it, and
jacobian() at that same point takes it instead of a second exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from combust.mncp import SolverError
from combust.model import DimensionlessParams, closure, closure_derivatives, flux, phi
# Unused here; kept so the benchmark's trace points on this module still resolve.
from combust.model import flux_d, phi_deta, phi_dtheta  # noqa: F401

# Dirichlet values at node 0.  The medium is injected cold (theta = 0) and
# with its full oxygen fraction (eta = 1) in every run.  As THETA_B = 0, the
# boundary adds nothing to the scheme: the A theta term has no boundary
# column and F(0) = 0 in row 1 of P.  They appear only in written profiles.
THETA_B, ETA_B = 0.0, 1.0


class NumericError(SolverError):
    """Non-finite value produced during residual evaluation."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid. M interior unknown nodes, spacing h = length/M."""

    length: float
    m: int
    k: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 interior nodes, got m={self.m}")
        if not (0.0 < self.length < np.inf and 0.0 < self.k < np.inf):
            raise ValueError("grid length and time step must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")

    @property
    def h(self) -> float:
        return self.length / self.m

    @property
    def lambda_s(self) -> float:
        """Scheme coefficient k/h multiplying the flux differences."""
        return self.k / self.h

    @property
    def mu(self) -> float:
        return self.k / self.h**2

    def x_nodes(self) -> np.ndarray:
        """Coordinates of nodes 0..M (boundary included)."""
        return np.linspace(0.0, self.length, self.m + 1)


@dataclass
class State:
    """Interior-node fields at time level n (node 0 is THETA_B, ETA_B)."""

    theta: np.ndarray
    eta: np.ndarray
    n: int = 0

    def copy(self) -> "State":
        return State(self.theta.copy(), self.eta.copy(), self.n)


@dataclass(frozen=True)
class SchemeCache:
    """Immutable per-run algebra: the coefficients of the tridiagonal A and B,
    and the grid's k and lambda_s, which every residual and Jacobian uses.

    Each matrix has one diagonal value and one off-diagonal value; its
    Neumann corner, entry (M, M-1), is twice the off-diagonal value.
    """

    a_diag: float
    a_off: float
    b_diag: float
    b_off: float
    k: float
    lambda_s: float
    grid: Grid
    params: DimensionlessParams

    def a_dense(self) -> np.ndarray:
        return _tri_dense(*_bands(self.a_diag, self.a_off, self.grid.m))

    def b_dense(self) -> np.ndarray:
        return _tri_dense(*_bands(self.b_diag, self.b_off, self.grid.m))


def _tri_matvec(diag, off, x, out=None):
    """A scheme matrix times x; each row adds sub-, then super-diagonal term."""
    y = np.multiply(diag, x, out=out)
    off_x = off * x
    y[1:-1] += off_x[:-2]
    y[-1] += 2.0 * off_x[-2]
    y[:-1] += off_x[1:]
    return y


def _bands(diag, off, m):
    """(sub, diag, sup) of a scheme matrix; sub and sup have length M-1."""
    sub = np.full(m - 1, off)
    sub[-1] = 2.0 * off
    return sub, np.full(m, diag), np.full(m - 1, off)


def _tri_dense(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def assemble_matrices(grid: Grid, params: DimensionlessParams) -> SchemeCache:
    """Coefficients of A and B for the Crank-Nicolson step.

    A is tridiagonal with diagonal 4 + 4 mu H and off-diagonals -2 mu H,
    except the last row whose sub-diagonal is -4 mu H (Neumann mirror);
    B mirrors A with the mu H terms sign-flipped, so A + B = 8 I exactly.
    Row 1 has no boundary column: it would multiply THETA_B = 0.
    """
    muh = grid.mu * params.h_diff
    return SchemeCache(a_diag=4.0 + 4.0 * muh, a_off=-2.0 * muh,
                       b_diag=4.0 - 4.0 * muh, b_off=2.0 * muh,
                       k=grid.k, lambda_s=grid.lambda_s, grid=grid, params=params)


def assemble_P(theta: np.ndarray, theta_b: float, params: DimensionlessParams) -> np.ndarray:
    """Centered flux differences: row m = F(theta_{m+1}) - F(theta_{m-1}).

    Row 1 uses the boundary value; row M is identically zero because the
    Neumann mirror makes F_{M+1} = F_{M-1} cancel.
    """
    m = theta.size
    full = np.empty(m + 1)
    full[0] = theta_b
    full[1:] = theta
    f = flux(full, params)
    p_vec = np.zeros(m)
    p_vec[: m - 1] = f[2:] - f[: m - 1]
    return p_vec


def assemble_LD(state: State, cache: SchemeCache) -> np.ndarray:
    """Level-n data of the complementarity residual:
    LD = B theta^n - lambda_s P^n + 2k Phi^n."""
    phi_n = phi(state.theta, state.eta, cache.params)
    return (
        _tri_matvec(cache.b_diag, cache.b_off, state.theta)
        - cache.lambda_s * assemble_P(state.theta, THETA_B, cache.params)
        + 2.0 * cache.k * phi_n
    )


def assemble_LDQ(state: State, cache: SchemeCache) -> np.ndarray:
    """Level-n data of the equality residual: LDQ = 2 eta^n + k Phi^n."""
    return 2.0 * state.eta + cache.k * phi(state.theta, state.eta, cache.params)


def residual(
    theta_next: np.ndarray,
    eta_next: np.ndarray,
    cache: SchemeCache,
    ld: np.ndarray,
    ldq: np.ndarray,
):
    """Evaluate the step residual at a candidate level-(n+1) point.

    Returns (r, terms): r is the interleaved vector (G_1, Q_1, G_2, Q_2, ...)
    and terms the closure (s, e, Phi, F) of the point (model.closure), which
    jacobian() takes to build the Jacobian there without a second
    exponential.  G and Q are written into the two strided halves of r with
    the operations of A theta + lambda_s P(theta) - 2k Phi - LD and
    2 eta - k Phi - LDQ, in that order, so each entry is rounded as in those
    expressions.
    """
    k = cache.k
    lam = cache.lambda_s
    terms = closure(theta_next, eta_next, cache.params)
    _, _, phi_next, f = terms
    out = np.empty(2 * theta_next.size)
    g = out[0::2]
    q = out[1::2]
    _tri_matvec(cache.a_diag, cache.a_off, theta_next, out=g)
    # lambda_s P: row 1 differences against F(THETA_B) = 0, row M is zero
    g[0] += lam * f[1]
    g[1:-1] += lam * (f[2:] - f[:-2])
    g -= 2.0 * k * phi_next
    g -= ld
    np.multiply(2.0, eta_next, out=q)
    q -= k * phi_next
    q -= ldq
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out))[0]) // 2 + 1
        raise NumericError(f"non-finite residual at node {bad}", node=bad)
    return out, terms


@dataclass
class StepJacobian:
    """Analytic Jacobian of (G, Q), stored by block, with its pair layout.

    Only dG/dtheta couples neighbouring nodes; the other three blocks are
    diagonal:
        dG/dtheta = tridiag(sub, diag, sup)    sub, sup of length M-1
        dG/deta   = diag(g_eta)
        dQ/dtheta = diag(q_theta)
        dQ/deta   = diag(q_eta)
    Rows and unknowns are interleaved, (theta_1, eta_1, theta_2, eta_2, ...),
    in to_dense() and in the vectors newton_solve() takes and returns.  The
    theta rows are complementarity pairs; the eta rows are too when
    eta_pairs is set (NCP), and are equalities otherwise (MNCP).
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    g_eta: np.ndarray
    q_theta: np.ndarray
    q_eta: np.ndarray
    eta_pairs: bool = False

    def to_dense(self) -> np.ndarray:
        """The full 2M x 2M matrix in interleaved ordering (for verification)."""
        m = self.diag.size
        dense = np.zeros((2 * m, 2 * m))
        dense[0::2, 0::2] = _tri_dense(self.sub, self.diag, self.sup)
        t, e = np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2)
        dense[t, e] = self.g_eta
        dense[e, t] = self.q_theta
        dense[e, e] = self.q_eta
        return dense

    def newton_solve(self, z: np.ndarray, r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (diag(s) J + diag(a)) d = rhs, the Newton matrix of H at z.

        s = z and a = r, the residual at z, on the pair rows; s = 1 and
        a = 0 on the equality rows, whose products this skips.  Each node's
        eta correction is eliminated in closed form, leaving a tridiagonal
        Schur complement in theta for LAPACK dgtsv.  The eta pivot is
        2 + k beta e^(...) >= 2 on equality rows and eta (2 + k beta e^(...))
        + Q > 0 on pair rows at a strictly interior iterate.  On a zero pivot
        or a non-finite result the solve is retried once with
        1e-12 (1 + |d_ii|) added to every diagonal entry;
        np.linalg.LinAlgError is raised if that fails too.
        """
        s_t = z[0::2]
        diag_t = s_t * self.diag + r[0::2]
        if self.eta_pairs:
            s_e = z[1::2]
            coupling = s_e * self.q_theta
            diag_e = s_e * self.q_eta + r[1::2]
        else:
            coupling = self.q_theta
            diag_e = self.q_eta
        try:
            return self._eliminate(s_t, coupling, diag_t, diag_e, rhs)
        except np.linalg.LinAlgError:
            diag_t = diag_t + 1e-12 * (1.0 + np.abs(diag_t))
            diag_e = diag_e + 1e-12 * (1.0 + np.abs(diag_e))
            return self._eliminate(s_t, coupling, diag_t, diag_e, rhs)

    def _eliminate(self, s_t, coupling, diag_t, diag_e, rhs):
        f_t = rhs[0::2]
        f_e = rhs[1::2]
        ratio = s_t * self.g_eta / diag_e
        _, _, _, x_t, info = dgtsv(
            s_t[1:] * self.sub, diag_t - ratio * coupling, s_t[:-1] * self.sup,
            f_t - ratio * f_e, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        d = np.empty(rhs.size)
        d[0::2] = x_t
        d[1::2] = (f_e - coupling * x_t) / diag_e
        if info != 0 or not np.isfinite(d).all():
            raise np.linalg.LinAlgError("singular Newton matrix")
        return d


def jacobian(theta_next: np.ndarray, eta_next: np.ndarray, cache: SchemeCache,
             terms=None, eta_pairs: bool = False) -> StepJacobian:
    """Analytic Jacobian of the step residuals (G, Q):
        dG/dtheta = A + lambda_s dP/dtheta - 2k diag(phi_theta)
        dG/deta   = -2k diag(phi_eta)
        dQ/dtheta = -k diag(phi_theta)
        dQ/deta   = 2 I - k diag(phi_eta)
    with dP/dtheta row m holding +F'(theta_{m+1}) and -F'(theta_{m-1})
    (row M zero, boundary column dropped).
    terms, the closure that residual() returned at this same point, spares
    the exponential; without it the closure is formed afresh.  eta_pairs
    sets the pair layout newton_solve() scales by (see StepJacobian).
    """
    k = cache.k
    lam = cache.lambda_s

    pt, pe, fd = closure_derivatives(theta_next, eta_next, cache.params, terms)

    # entry (row im, col im+1), im = 0..m-2; rows 1..M-1 of dP/dtheta are live
    sup = cache.a_off + lam * fd[1:]
    # entry (row im, col im-1), im = 1..m-1; the last row is the Neumann
    # corner 2 a_off, with no flux contribution
    sub = cache.a_off - lam * fd[:-1]
    sub[-1] = 2.0 * cache.a_off

    return StepJacobian(
        sub=sub,
        diag=cache.a_diag - 2.0 * k * pt,
        sup=sup,
        g_eta=-2.0 * k * pe,
        q_theta=-k * pt,
        q_eta=2.0 - k * pe,
        eta_pairs=eta_pairs,
    )
