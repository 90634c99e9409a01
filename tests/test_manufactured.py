"""Order of accuracy of the whole nonlinear scheme against a manufactured solution.

The exact fields are theta = (0.5 + t) sin(pi x / 2L) and
eta = 0.2 + 0.3 t (1 + x/L), which meet the scheme's boundary conditions
(theta = 0 at x = 0, theta_x = 0 at x = L).  Their residuals in the model
equations are the sources
    S = theta_t + F'(theta) theta_x - h_diff theta_xx - Phi(theta, eta)
    S_eta = eta_t - Phi(theta, eta),
and the scheme solves for them when each step's level data carry their
trapezoidal integrals: G / 4k and Q / 2k are the model equations averaged
over the step, so (LD; LDQ) gains (2k (S^n + S^(n+1)); k (S_eta^n + S_eta^(n+1))).
In MNCP mode the theta problem's level data (LD; beta (2 - LDQ)) are
formed from those.
Everything the scheme does enters: the convective flux difference, the
reaction term, the Neumann mirror, Crank-Nicolson and the solver's default
stopping tolerance (Roache, Code verification by the method of
manufactured solutions, J. Fluids Eng. 124, 2002).

The parameters are mild (cell Peclet number u h pe_t <= 0.5, dPhi/dtheta
of order 1).  The base parameters cannot serve: there dPhi/dtheta is about
170 at theta = 0.7, so an error grows by about e^34 over T = 0.2 and the
observed error ratios wander between 3.4 and 7.5.
"""

import numpy as np
import pytest

from combust.discretization import Grid, State, assemble_matrices
from combust.mncp import solve
from combust.model import DimensionlessParams, flux_d, phi
from combust.timestepper import MNCP, NCP, StepEquations

MILD = DimensionlessParams(pe_t=10.0, beta=2.0, e_act=2.0, theta0=1.0, u=1.0)
LENGTH = 1.0
T_END = 0.5
GRIDS = (20, 40, 80, 160)
# max errors at t = T_END on M = 160 (k = T / 320), the same in both modes
THETA_ERROR_160 = 9.76e-6
ETA_ERROR_160 = 6.03e-7


def exact(x, t):
    wave = np.sin(0.5 * np.pi * x / LENGTH)
    return (0.5 + t) * wave, 0.2 + 0.3 * t * (1.0 + x / LENGTH)


def sources(x, t, p=MILD):
    """(S, S_eta) at time t on the nodes x."""
    a = 0.5 * np.pi / LENGTH
    theta, eta = exact(x, t)
    theta_t = np.sin(a * x)
    theta_x = (0.5 + t) * a * np.cos(a * x)
    theta_xx = -(0.5 + t) * a * a * np.sin(a * x)
    reaction = phi(theta, eta, p)
    s_theta = theta_t + flux_d(theta, p) * theta_x - p.h_diff * theta_xx - reaction
    s_eta = 0.3 * (1.0 + x / LENGTH) - reaction
    return s_theta, s_eta


def max_errors(m, method):
    """Max |error| of theta and eta at T_END on M nodes with k = T / 2M."""
    grid = Grid(length=LENGTH, m=m, k=T_END / (2 * m), n_steps=2 * m)
    x = grid.x_nodes()[1:]
    equations = StepEquations(assemble_matrices(grid, MILD), method, State(*exact(x, 0.0)))
    z = np.concatenate(exact(x, 0.0))
    source = np.concatenate(sources(x, 0.0))
    weight = 2.0 * grid.k * np.concatenate((np.ones(m), np.full(m, 0.5)))
    for n in range(grid.n_steps):
        source_next = np.concatenate(sources(x, (n + 1) * grid.k))
        gain = weight * (source + source_next)
        if method == MNCP:
            equations.ldq = equations.ldq + gain[m:]
            equations.level = np.concatenate((equations.level[:m] + gain[:m],
                                              MILD.beta * (2.0 - equations.ldq)))
        else:
            equations.level = equations.level + gain
        solution, _ = solve(equations, z[:equations.n_pairs])
        z = equations.advance(solution)
        source = source_next
    theta, eta = exact(x, T_END)
    return np.abs(z[:m] - theta).max(), np.abs(z[m:] - eta).max()


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_second_order_against_manufactured_solution(method):
    errors = np.array([max_errors(m, method) for m in GRIDS])
    order = np.log2(errors[-2] / errors[-1])
    assert np.all(order >= 1.9), (errors, order)
    # the order alone would miss a consistent error: differencing row 1
    # against F(theta_1) instead of F(theta_B) keeps order 2 at 30 times
    # the error, so the error constant is pinned too
    assert errors[-1, 0] <= 1.5 * THETA_ERROR_160, errors[-1]
    assert errors[-1, 1] <= 1.5 * ETA_ERROR_160, errors[-1]
