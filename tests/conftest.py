"""Shared fixtures; the heavy base-case runs are session-scoped."""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from combust.discretization import Grid, StepJacobian, residual
from combust.mncp import merit_vector
from combust.model import BASE_PARAMS, DimensionlessParams
from combust.timestepper import MNCP, NCP, RunConfig, run

BASE_K = 1e-5
BASE_LENGTH = 0.05
FIG_TIMES = (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
TABLE_TIMES = tuple(round(0.001 * i, 6) for i in range(1, 11))

# parameter sets whose constants and pointwise factors are checked bit for bit
CONSTANT_PARAMS = [
    BASE_PARAMS,
    DimensionlessParams(pe_t=2.0, beta=1.0, e_act=1.0, theta0=1.0, u=1.0),
    DimensionlessParams(pe_t=0.3, beta=1e-3, e_act=17.3, theta0=0.1, u=1e3),
]


def same_double(value, expected) -> bool:
    """Whether value is a read-only 0-d float64 array holding the double expected,
    bit for bit (so 0.0 and -0.0 differ)."""
    return (type(value) is np.ndarray and value.shape == () and value.dtype == np.float64
            and not value.flags.writeable and value.tobytes() == np.float64(expected).tobytes())


def tri_dense(sub, diag, sup):
    """The dense tridiagonal matrix with the given bands; sub and sup have length M-1."""
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def scheme_dense(diag, off, m):
    """A scheme matrix of the SchemeCache from its diagonal and off-diagonal
    value: the Neumann corner, entry (M, M-1), is twice the off-diagonal value."""
    sub = np.full(m - 1, off)
    sub[-1] = 2.0 * off
    return tri_dense(sub, np.full(m, diag), np.full(m - 1, off))


def a_dense(cache):
    return scheme_dense(cache.a_diag, cache.a_off, cache.grid.m)


def b_dense(cache):
    return scheme_dense(cache.b_diag, cache.b_off, cache.grid.m)


def to_dense(jac):
    """The full matrix of a step Jacobian: the 2M x 2M block matrix
    [[dG/dtheta, dG/deta], [dQ/dtheta, dQ/deta]] of a StepJacobian, or
    dG~/dtheta of a ThetaJacobian."""
    g_theta = tri_dense(jac.sub, jac.diag, jac.sup)
    if isinstance(jac, StepJacobian):
        return np.block([[g_theta, np.diag(jac.g_eta)], [np.diag(jac.q_theta), np.diag(jac.q_eta)]])
    return g_theta


def stacked_terms(theta, eta, cache):
    """The terms (s, e, Phi) that residual() returns at the stacked point
    (theta; eta); they do not depend on the level data."""
    return residual(np.concatenate((theta, eta)), cache, np.zeros(2 * theta.size))[1]


class MncpProblem(NamedTuple):
    """A problem for mncp.solve, which reads its n_pairs, residual and
    jacobian (the contract is in solve's docstring)."""

    n_pairs: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object]


class DenseJacobian:
    """Dense matrix with the newton_solve contract of a problem's jacobian:
    newton_solve(s, a, rhs) scales the first s.size rows by s and adds a to
    their diagonal."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def newton_solve(self, s, a, rhs):
        scale = np.ones(rhs.size)
        scale[:s.size] = s
        diag_add = np.zeros(rhs.size)
        diag_add[:s.size] = a
        d = np.linalg.solve(self.matrix * scale[:, None] + np.diag(diag_add), rhs)
        if not np.all(np.isfinite(d)):
            raise np.linalg.LinAlgError("non-finite direction")
        return d


def dense(jacobian):
    """Wrap a z -> ndarray Jacobian of a toy problem as a DenseJacobian."""
    return lambda z: DenseJacobian(jacobian(z))


def evaluated(z, problem):
    """The evaluation (r, h, s) at z that mncp.direction takes: the residual,
    the merit vector H and the merit value S = 0.5 ||H||^2, from one residual
    call at z, as solve() holds them."""
    r = problem.residual(z)
    h = merit_vector(z, r, problem)
    return r, h, 0.5 * float(h @ h)


def base_config(m: int, method: str = MNCP, record_times=FIG_TIMES) -> RunConfig:
    grid = Grid(length=BASE_LENGTH, m=m, k=BASE_K, n_steps=1000)
    return RunConfig(grid=grid, params=BASE_PARAMS, method=method, record_times=record_times)


@pytest.fixture(scope="session")
def run_m50_mncp():
    # Snapshot every step so monotonicity can be checked across the whole run.
    every_step = tuple(np.arange(0, 1001) * BASE_K)
    return run(base_config(50, MNCP, record_times=every_step))


@pytest.fixture(scope="session")
def run_m50_ncp():
    return run(base_config(50, NCP))


@pytest.fixture(scope="session")
def run_m100_mncp():
    return run(base_config(100, MNCP))


@pytest.fixture(scope="session")
def run_m100_ncp():
    return run(base_config(100, NCP))
