"""Shared fixtures; the heavy base-case runs are session-scoped."""

import numpy as np
import pytest

from combust.discretization import Grid
from combust.mncp import MNCP, NCP
from combust.model import BASE_PARAMS
from combust.timestepper import RunConfig, run

BASE_K = 1e-5
BASE_LENGTH = 0.05
FIG_TIMES = (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
TABLE_TIMES = tuple(round(0.001 * i, 6) for i in range(1, 11))


class DenseJacobian:
    """Dense matrix with the newton_solve contract of MncpProblem.jacobian;
    pairs is the problem's comp_index."""

    def __init__(self, matrix, pairs):
        self.matrix = np.asarray(matrix, dtype=float)
        self.pairs = np.asarray(pairs, dtype=int)

    def newton_solve(self, z, r, rhs):
        scale = np.ones(rhs.size)
        scale[self.pairs] = z[self.pairs]
        diag_add = np.zeros(rhs.size)
        diag_add[self.pairs] = r[self.pairs]
        d = np.linalg.solve(self.matrix * scale[:, None] + np.diag(diag_add), rhs)
        if not np.all(np.isfinite(d)):
            raise np.linalg.LinAlgError("non-finite direction")
        return d


def dense(jacobian, pairs):
    """Wrap a z -> ndarray Jacobian of a toy problem with pair rows `pairs`
    as a DenseJacobian."""
    return lambda z: DenseJacobian(jacobian(z), pairs)


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
