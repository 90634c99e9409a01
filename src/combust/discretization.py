"""Crank-Nicolson discretization of the combustion system.

Interior nodes m = 1..M carry the unknowns; node 0 is the injection
boundary, fixed at the constants THETA_B = 0 and ETA_B = 1, and node M gets
the Neumann mirror F_{M+1} = F_{M-1}.
One time step solves, in the stacked unknowns z = (theta; eta) at level n+1,

    G = A theta + lambda_s P(theta) - 2k Phi(theta, eta) - LD   (complementarity)
    Q = 2 eta - k Phi(theta, eta) - LDQ                          (equality)

where LD = B theta^n - lambda_s P^n + 2k Phi^n and
LDQ = 2 eta^n + k Phi^n are frozen at level n and stacked as the level data
(LD; LDQ).  assemble_LD and assemble_LDQ build them from a state; they run
for the first step only.  As A + B = 8 I, the residual (G; Q) at the
solution z' of a step gives the next level's data in O(M), with no
exponential and no flux, as one stacked update:

    (LD'; LDQ') = w z' - (G; Q) - (LD; LDQ),   w = (8, ..., 8, 4, ..., 4)

(timestepper.StepEquations.advance).

Each point's Arrhenius exponential is formed once: residual() takes Phi
and F from the closure (s, e, Phi, F) of its point and returns it, and
jacobian(terms, cache) builds the Jacobian at that point from it alone.
"""

from __future__ import annotations

import math
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
        try:
            finite = math.isfinite(self.mu)
        except (ZeroDivisionError, OverflowError):   # h**2 underflows to 0 or overflows
            finite = False
        if not finite:
            raise ValueError(f"grid spacing h = {self.h:.3g} and time step k = {self.k:.3g} "
                             "give no finite k/h^2")

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


class State:
    """Interior-node fields at time level n (node 0 is THETA_B, ETA_B).

    The fields are stored stacked as z = (theta_1, ..., theta_M, eta_1, ...,
    eta_M), the order of the solver's unknowns; theta and eta are views of
    its halves.  State(theta, eta, n) copies the two fields into a new z;
    State.stacked(z, n) takes z as it is.
    """

    __slots__ = ("z", "n")

    def __init__(self, theta: np.ndarray, eta: np.ndarray, n: int = 0):
        if np.shape(theta) != np.shape(eta):
            raise ValueError(f"theta and eta differ in shape: {np.shape(theta)} vs {np.shape(eta)}")
        self.z = np.concatenate((theta, eta))
        self.n = n

    @classmethod
    def stacked(cls, z: np.ndarray, n: int = 0) -> "State":
        state = cls.__new__(cls)
        state.z = z
        state.n = n
        return state

    @property
    def theta(self) -> np.ndarray:
        return self.z[: self.z.size // 2]

    @property
    def eta(self) -> np.ndarray:
        return self.z[self.z.size // 2:]

    def copy(self) -> "State":
        return State(self.theta, self.eta, self.n)

    def __repr__(self) -> str:
        return f"State(theta={self.theta!r}, eta={self.eta!r}, n={self.n})"


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


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite.

    One dot product decides when x . x is finite; np.vdot raises no overflow
    warning.  Otherwise, at a non-finite entry or at finite entries whose
    squares overflow, the entries are scanned.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def residual(z: np.ndarray, cache: SchemeCache, level: np.ndarray):
    """Evaluate the step residual at a candidate level-(n+1) point z = (theta; eta).

    level is the stacked level data (LD; LDQ).  Returns (r, terms): r is the
    stacked vector (G_1, ..., G_M, Q_1, ..., Q_M) and terms the closure
    (s, e, Phi, F) of the point (model.closure), which jacobian() takes to
    build the Jacobian there without a second exponential.  G and Q are
    written into the two halves of r with the operations of
    A theta + lambda_s P(theta) - 2k Phi - LD and 2 eta - k Phi - LDQ, in
    that order, so each entry is rounded as in those expressions.  A
    non-finite entry raises NumericError naming its node, the first
    non-finite G entry's, else the first non-finite Q entry's.
    """
    k = cache.k
    lam = cache.lambda_s
    m = z.size // 2
    theta_next, eta_next = z[:m], z[m:]
    terms = closure(theta_next, eta_next, cache.params)
    _, _, phi_next, f = terms
    out = np.empty(2 * m)
    g = out[:m]
    q = out[m:]
    _tri_matvec(cache.a_diag, cache.a_off, theta_next, out=g)
    # lambda_s P: row 1 differences against F(THETA_B) = 0, row M is zero
    g[0] += lam * f[1]
    g[1:-1] += lam * (f[2:] - f[:-2])
    g -= 2.0 * k * phi_next
    np.multiply(2.0, eta_next, out=q)
    q -= k * phi_next
    out -= level
    if not _all_finite(out):
        bad = int(np.flatnonzero(~np.isfinite(out))[0]) % m + 1
        raise NumericError(f"non-finite residual at node {bad}", node=bad)
    return out, terms


@dataclass
class StepJacobian:
    """Analytic Jacobian of (G, Q), stored by block.

    Only dG/dtheta couples neighbouring nodes; the other three blocks are
    diagonal:
        dG/dtheta = tridiag(sub, diag, sup)    sub, sup of length M-1
        dG/deta   = diag(g_eta)
        dQ/dtheta = diag(q_theta)
        dQ/deta   = diag(q_eta)
    Unknowns are stacked as (theta_1, ..., theta_M, eta_1, ..., eta_M) and
    rows as (G; Q), in to_dense() and in the vectors newton_solve() takes
    and returns.  Which rows are complementarity pairs is the problem's to
    say: newton_solve() takes the pair count.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    g_eta: np.ndarray
    q_theta: np.ndarray
    q_eta: np.ndarray

    def to_dense(self) -> np.ndarray:
        """The full 2M x 2M block matrix [[dG/dtheta, dG/deta], [dQ/dtheta, dQ/deta]]
        (for verification)."""
        return np.block([[_tri_dense(self.sub, self.diag, self.sup), np.diag(self.g_eta)],
                         [np.diag(self.q_theta), np.diag(self.q_eta)]])

    def newton_solve(self, z: np.ndarray, r: np.ndarray, rhs: np.ndarray,
                     n_pairs: int) -> np.ndarray:
        """Solve (diag(s) J + diag(a)) d = rhs, the Newton matrix of H at z.

        The first n_pairs rows are the pairs: n_pairs is M (MNCP, the theta
        rows against G) or 2M (NCP, every row).  s = z and a = r, the
        residual at z, on the pair rows; s = 1 and a = 0 on the equality
        rows, whose products this skips.  Each node's eta correction is
        eliminated in closed form, leaving a tridiagonal Schur complement in
        theta for LAPACK dgtsv.  The eta pivot is
        2 + k beta e^(...) >= 2 on equality rows and eta (2 + k beta e^(...))
        + Q on pair rows, positive unless Q < 0 on a pair that the line
        search identified active.  On a zero pivot
        or a non-finite result the solve is retried once with
        1e-12 (1 + |d_ii|) added to every diagonal entry;
        np.linalg.LinAlgError is raised if that fails too.
        """
        m = self.diag.size
        s_t = z[:m]
        diag_t = s_t * self.diag + r[:m]
        if n_pairs > m:
            s_e = z[m:]
            coupling = s_e * self.q_theta
            diag_e = s_e * self.q_eta + r[m:]
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
        m = diag_t.size
        f_t = rhs[:m]
        f_e = rhs[m:]
        ratio = s_t * self.g_eta / diag_e
        _, _, _, x_t, info = dgtsv(
            s_t[1:] * self.sub, diag_t - ratio * coupling, s_t[:-1] * self.sup,
            f_t - ratio * f_e, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        d = np.concatenate((x_t, (f_e - coupling * x_t) / diag_e))
        if info != 0 or not _all_finite(d):
            raise np.linalg.LinAlgError("singular Newton matrix")
        return d


def jacobian(terms, cache: SchemeCache) -> StepJacobian:
    """Analytic Jacobian of the step residuals (G, Q) at the point whose
    closure (s, e, Phi, F) is terms, as residual() returns it:
        dG/dtheta = A + lambda_s dP/dtheta - 2k diag(phi_theta)
        dG/deta   = -2k diag(phi_eta)
        dQ/dtheta = -k diag(phi_theta)
        dQ/deta   = 2 I - k diag(phi_eta)
    with dP/dtheta row m holding +F'(theta_{m+1}) and -F'(theta_{m-1})
    (row M zero, boundary column dropped).
    """
    k = cache.k
    lam = cache.lambda_s

    pt, pe, fd = closure_derivatives(terms, cache.params)

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
    )
