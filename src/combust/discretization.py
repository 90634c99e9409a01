"""Crank-Nicolson discretization of the combustion system.

Interior nodes m = 1..M carry the unknowns; node 0 is the injection
boundary, fixed at the constants THETA_B = 0 and ETA_B = 1, and node M gets
the Neumann mirror F_{M+1} = F_{M-1}.
One time step solves, at level n+1,

    G = A theta + lambda_s P(theta) - 2k Phi(theta, eta) - LD   (complementarity)
    Q = 2 eta - k Phi(theta, eta) - LDQ                          (equality)

where LD = B theta^n - lambda_s P^n + 2k Phi^n and LDQ = 2 eta^n + k Phi^n
are frozen at level n; assemble_LD and assemble_LDQ build them, for the
first step only.  NCP mode solves (G; Q) in z = (theta; eta) with the level
data (LD; LDQ).  MNCP mode eliminates eta: Phi = beta (1 - eta) e, with
e = exp(-e_act/s), is affine in eta, so Q = 0 gives, for any theta,
eta(theta) = (LDQ + k beta e) / (2 + k beta e) and
Phi = beta e (2 - LDQ) / (2 + k beta e).  The step is then the NCP
theta >= 0, G~(theta) >= 0, theta G~ = 0 with G~(theta) = G(theta, eta(theta))
and the level data (LD; beta (2 - LDQ)).  As A + B = 8 I, the residual at
a step's solution gives the next level's data in O(M), with no exponential
and no flux (timestepper.StepEquations.advance).

Each point's Arrhenius exponential is formed once: residual() returns the
terms of its point, and jacobian(terms, cache) builds the Jacobian there
from them alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from combust.mncp import SolverError
from combust.model import DimensionlessParams, flux, phi
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


def stacked_row(row: int, m: int) -> tuple:
    """(variable, residual, node) of a row of the stacked system with M = m:
    row i < M is theta and G at node i + 1, row i >= M eta and Q at node i - M + 1."""
    return ("theta", "G", row + 1) if row < m else ("eta", "Q", row - m + 1)


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
    eta_M), whose leading entries are the solver's unknowns (all of z in
    NCP mode, theta in MNCP mode); theta and eta are views of its halves.
    State(theta, eta, n) copies the two fields into a new z;
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


def constant(value) -> np.ndarray:
    """value as a read-only 0-d float64 array.

    A ufunc call on a short array takes about 30% less time with a 0-d
    float64 array operand than with a Python float, which it must first
    convert, so the step kernels combine their arrays with constants built
    once per run as these.  The result is the same double either way.
    """
    array = np.array(value, dtype=np.float64)
    array.setflags(write=False)
    return array


class SchemeCache:
    """Immutable per-run record of every number the step kernels combine
    with arrays: the coefficients of the tridiagonal A and B, the grid's k
    and lambda_s and the constants of the parameters that form Phi, F and
    their derivatives.

    Each matrix has one diagonal value and one off-diagonal value; its
    Neumann corner, entry (M, M-1), is twice the off-diagonal value.  Every
    number here is a constant(), a 0-d array, of the float expression
    Python forms: two_k, neg_k and k_beta are 2.0 * k, -k and k * beta,
    two and one are 2.0 and 1.0, neg_e_act is -e_act, lam_u_theta0 and
    lam_u_theta0_sq are lambda_s * (u * theta0) and lambda_s * (u * theta0**2),
    and four_k_e_act is 4.0 * k * e_act.
    """

    # A plain class: a named tuple costs cold set-up to define and its field
    # reads are slower.
    __slots__ = ("a_diag", "a_off", "a_corner", "b_diag", "b_off", "k", "two_k", "neg_k", "two",
                 "k_beta", "lambda_s", "theta0", "neg_e_act", "e_act", "beta", "one",
                 "lam_u_theta0", "lam_u_theta0_sq", "four_k_e_act", "grid", "params")

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SchemeCache is immutable: cannot set {name!r}")


def _tri_matvec(diag, off, x):
    """A scheme matrix times x; each row adds sub-, then super-diagonal term."""
    y = diag * x
    off_x = off * x
    y[1:-1] += off_x[:-2]
    y[-1] += 2.0 * off_x[-2]
    y[:-1] += off_x[1:]
    return y


def assemble_matrices(grid: Grid, params: DimensionlessParams) -> SchemeCache:
    """Coefficients of A and B for the Crank-Nicolson step.

    A is tridiagonal with diagonal 4 + 4 mu H and off-diagonals -2 mu H,
    except the last row whose sub-diagonal is -4 mu H (Neumann mirror);
    B mirrors A with the mu H terms sign-flipped, so A + B = 8 I exactly.
    Row 1 has no boundary column: it would multiply THETA_B = 0.  The
    cache also holds the other constants of SchemeCache, built here once.
    """
    muh = grid.mu * params.h_diff
    a_off, k, lam, p = -2.0 * muh, grid.k, grid.lambda_s, params
    return SchemeCache(a_diag=constant(4.0 + 4.0 * muh), a_off=constant(a_off),
                       a_corner=constant(2.0 * a_off),
                       b_diag=constant(4.0 - 4.0 * muh), b_off=constant(2.0 * muh),
                       k=constant(k), two_k=constant(2.0 * k), neg_k=constant(-k),
                       two=constant(2.0), k_beta=constant(k * p.beta), lambda_s=constant(lam),
                       theta0=constant(p.theta0), neg_e_act=constant(-p.e_act),
                       e_act=constant(p.e_act), beta=constant(p.beta), one=constant(1.0),
                       lam_u_theta0=constant(lam * (p.u * p.theta0)),
                       lam_u_theta0_sq=constant(lam * (p.u * p.theta0**2)),
                       four_k_e_act=constant(4.0 * k * p.e_act), grid=grid, params=params)


def assemble_P(theta: np.ndarray, params: DimensionlessParams) -> np.ndarray:
    """Centered flux differences P(theta) from the fluxes F at nodes 1..M:
    row m is F_{m+1} - F_{m-1}, row 1 differences against F(THETA_B) = 0 and
    row M is zero, as the Neumann mirror makes F_{M+1} = F_{M-1} cancel."""
    f = flux(theta, params)
    p_vec = np.empty_like(f)
    p_vec[0] = f[1]
    np.subtract(f[2:], f[:-2], out=p_vec[1:-1])
    p_vec[-1] = 0.0
    return p_vec


def assemble_LD(state: State, cache: SchemeCache) -> np.ndarray:
    """Level-n data of the complementarity residual:
    LD = B theta^n - lambda_s P^n + 2k Phi^n."""
    phi_n = phi(state.theta, state.eta, cache.params)
    return (
        _tri_matvec(cache.b_diag, cache.b_off, state.theta)
        - cache.lambda_s * assemble_P(state.theta, cache.params)
        + cache.two_k * phi_n
    )


def assemble_LDQ(state: State, cache: SchemeCache) -> np.ndarray:
    """Level-n data of the equality residual: LDQ = 2 eta^n + k Phi^n."""
    return cache.two * state.eta + cache.k * phi(state.theta, state.eta, cache.params)


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite.

    One dot product decides when x . x is finite; np.vdot raises no overflow
    warning.  Otherwise, at a non-finite entry or at finite entries whose
    squares overflow, the entries are scanned.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def residual(z: np.ndarray, cache: SchemeCache, level: np.ndarray):
    """Evaluate the step residual at a candidate level-(n+1) point z.

    level holds 2M entries.  A stacked z = (theta; eta) takes level =
    (LD; LDQ) and gives r = (G_1, ..., G_M, Q_1, ..., Q_M); z = theta takes
    level = (LD; beta (2 - LDQ)) and gives r = G~(theta).  Returns
    (r, terms), from which jacobian() builds the Jacobian there.  Both
    modes form s = theta + theta0 and e = exp(-e_act/s) once.  The terms
    are (s, e, Phi), with Phi = beta (1 - eta) e at a stacked point, equal
    to phi() bit for bit; at theta, Phi = beta e (2 - LDQ) / q_eta is its
    value at eta(theta), and the terms add (k beta e, q_eta = 2 + k beta e).

    G = A theta + lambda_s P(theta) - 2k Phi - LD is built row by row from
    lambda_s F = lambda_s u theta0 theta / s and the two vectors
    v- = a_off theta - lambda_s F and v+ = a_off theta + lambda_s F: row m
    adds v-_{m-1} (none in row 1, as THETA_B = 0) and v+_{m+1}, and the
    Neumann row M adds v-_{M-1} + v+_{M-1}, which is 2 a_off theta_{M-1}
    up to rounding, as the mirrored fluxes cancel.  A
    non-finite entry raises NumericError naming its residual and node (see
    stacked_row), the first non-finite G entry's, else the first Q entry's.
    """
    m = level.size // 2
    theta = z[:m]
    s = theta + cache.theta0
    e = np.divide(cache.neg_e_act, s)
    np.exp(e, out=e)
    if z.size == m:
        k_beta_e = cache.k_beta * e
        q_eta = k_beta_e + cache.two
        phi_ = level[m:] * e
        phi_ /= q_eta
        terms = (s, e, phi_, k_beta_e, q_eta)
        out = g = cache.a_diag * theta
        data = level[:m]
    else:
        phi_ = cache.one - z[m:]
        phi_ *= cache.beta
        phi_ *= e
        terms = (s, e, phi_)
        out = np.empty(2 * m)
        g = np.multiply(cache.a_diag, theta, out=out[:m])
        q = np.multiply(cache.two, z[m:], out=out[m:])
        q -= cache.k * phi_
        data = level
    lam_f = cache.lam_u_theta0 * theta
    lam_f /= s
    v_minus = cache.a_off * theta
    v_plus = v_minus + lam_f
    v_minus -= lam_f
    g[1:] += v_minus[:-1]
    g[:-1] += v_plus[1:]
    g[-1] += v_plus[-2]
    g -= cache.two_k * phi_
    out -= data
    if not _all_finite(out):
        _, res, node = stacked_row(int(np.flatnonzero(~np.isfinite(out))[0]), m)
        raise NumericError(f"non-finite residual {res} at node {node}", node=node)
    return out, terms


class ThetaJacobian:
    """Analytic Jacobian dG~/dtheta = tridiag(sub, diag, sup) of the theta
    problem; sub and sup have length M-1."""

    # A plain class: a named tuple costs cold set-up to define and its field
    # reads are slower.
    __slots__ = ("sub", "diag", "sup")

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        self.sub, self.diag, self.sup = sub, diag, sup

    def newton_solve(self, s: np.ndarray, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (diag(s) J + diag(a)) d = rhs, with s and a given on every row.

        On a zero pivot or a non-finite result the solve is retried once
        with 1e-12 (1 + |d_ii|) added to every diagonal entry d_ii of that
        matrix; np.linalg.LinAlgError is raised if that fails too.
        """
        diag = s * self._diagonal() + a
        try:
            return self._solve(s, diag, rhs)
        except np.linalg.LinAlgError:
            return self._solve(s, diag + 1e-12 * (1.0 + np.abs(diag)), rhs)

    def _diagonal(self):
        return self.diag

    def _solve(self, s, diag, rhs):
        # diag and rhs are copied in, so the retry starts from them unchanged
        _, _, _, d, info = dgtsv(s[1:] * self.sub, diag, s[:-1] * self.sup, rhs,
                                 overwrite_dl=1, overwrite_du=1)
        if info != 0 or not _all_finite(d):
            raise np.linalg.LinAlgError("singular Newton matrix")
        return d


class StepJacobian(ThetaJacobian):
    """Analytic Jacobian of (G, Q), stored by block.

    Only dG/dtheta couples neighbouring nodes; the other three blocks are
    diagonal:
        dG/dtheta = tridiag(sub, diag, sup)    sub, sup of length M-1
        dG/deta   = diag(g_eta)
        dQ/dtheta = diag(q_theta)
        dQ/deta   = diag(q_eta)
    Unknowns are stacked as (theta_1, ..., theta_M, eta_1, ..., eta_M) and
    rows as (G; Q), in the vectors newton_solve() takes and returns.  Its
    solve eliminates each node's eta correction in closed form, with the
    pivot s_i q_eta_i + a_i, and hands the tridiagonal Schur complement in
    theta to ThetaJacobian's.
    """

    __slots__ = ("g_eta", "q_theta", "q_eta")

    def __init__(self, sub, diag, sup, g_eta, q_theta, q_eta):
        self.sub, self.diag, self.sup = sub, diag, sup
        self.g_eta, self.q_theta, self.q_eta = g_eta, q_theta, q_eta

    def _diagonal(self):
        return np.concatenate((self.diag, self.q_eta))

    def _solve(self, s, diag, rhs):
        m = self.diag.size
        s_t = s[:m]
        f_e = rhs[m:]
        diag_e = diag[m:]
        coupling = s[m:] * self.q_theta
        ratio = s_t * self.g_eta / diag_e
        x_t = ThetaJacobian._solve(self, s_t, diag[:m] - ratio * coupling, rhs[:m] - ratio * f_e)
        x_e = (f_e - coupling * x_t) / diag_e
        if not _all_finite(x_e):
            raise np.linalg.LinAlgError("singular Newton matrix")
        return np.concatenate((x_t, x_e))


def jacobian(terms, cache: SchemeCache):
    """Analytic Jacobian of the step residual at the point whose terms are
    `terms`, as residual() returns them.

    From the terms (s, e, Phi) of a stacked point, the StepJacobian
        dG/dtheta = A + lambda_s dP/dtheta - 2k diag(phi_theta)
        dG/deta   = -2k diag(phi_eta)
        dQ/dtheta = -k diag(phi_theta)
        dQ/deta   = 2 I - k diag(phi_eta);
    from the terms of the theta problem, which end in q_eta, the
    ThetaJacobian
        dG~/dtheta = A + lambda_s dP/dtheta - 4k diag(phi_theta / q_eta),
    as d eta/d theta = k phi_theta / q_eta and phi_eta = -beta e give
    Phi(theta, eta(theta)) the derivative 2 phi_theta / q_eta.  dP/dtheta
    row m holds +F'(theta_{m+1}) and -F'(theta_{m-1}) (row M zero, boundary
    column dropped), formed once as lambda_s F' = lambda_s u theta0^2 / s^2.
    phi_theta = Phi e_act / s^2 repeats the operations of phi_dtheta(), and
    the eta block is built from beta e, the exact negation of phi_deta(),
    so at a stacked point those entries equal their form through the model
    functions bit for bit.  The theta problem's diagonal term is formed as
    Phi (4k e_act) / s^2 / q_eta.
    """
    s, e, phi_ = terms[:3]
    s2 = s * s
    lam_fd = cache.lam_u_theta0_sq / s2

    # entry (row im, col im+1), im = 0..m-2; rows 1..M-1 of dP/dtheta are live
    sup = cache.a_off + lam_fd[1:]
    # entry (row im, col im-1), im = 1..m-1; the last row is the Neumann
    # corner 2 a_off, with no flux contribution
    sub = cache.a_off - lam_fd[:-1]
    sub[-1] = cache.a_corner

    if len(terms) > 3:
        diag = phi_ * cache.four_k_e_act
        diag /= s2
        diag /= terms[4]
        return ThetaJacobian(sub, np.subtract(cache.a_diag, diag, out=diag), sup)
    pt = phi_ * cache.e_act
    pt /= s2
    be = cache.beta * e
    return StepJacobian(sub, cache.a_diag - cache.two_k * pt, sup,
                        cache.two_k * be, cache.neg_k * pt, cache.two + cache.k * be)
