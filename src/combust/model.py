"""Physical constants, nondimensionalization and pointwise closure functions.

The dimensionless system solved downstream is

    theta_t + u (rho(theta) theta)_x = h_diff theta_xx + phi(theta, eta)
    eta_t = phi(theta, eta)

with gas density rho(theta) = theta0 / (theta + theta0) and reaction term
phi(theta, eta) = beta (1 - eta) exp(-e_act / (theta + theta0)).  The
convective flux is folded into F(theta) = u rho(theta) theta so that the
finite-difference scheme coefficient is purely k/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


def _require_finite_positive(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{type(obj).__name__}.{f.name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DimensionalParams:
    """Physical reservoir constants and the reference magnitudes that
    nondimensionalize the model, SI units."""

    t_res: float       # initial reservoir temperature [K]
    lambda_th: float   # thermal conductivity of porous medium [J/(m s K)]
    q_r: float         # reaction enthalpy [J/mol]
    u_inj: float       # Darcy velocity of gas injection [m/s]
    e_r: float         # activation energy [J/mol]
    k_p: float         # pre-exponential factor [1/s]
    r_gas: float       # ideal gas constant [J/(mol K)]
    rho_f_res: float   # initial molar density of fuel [mol/m^3]
    x_star: float      # reference length [m]
    t_star: float      # reference time [s]
    dt_star: float     # reference temperature increment [K]

    def __post_init__(self) -> None:
        _require_finite_positive(self)


@dataclass(frozen=True)
class DimensionlessParams:
    """The five dimensionless constants of the combustion model.

    h_diff = 1/pe_t is the diffusion coefficient that multiplies theta_xx.
    """

    pe_t: float     # thermal Peclet number
    beta: float     # reaction prefactor
    e_act: float    # scaled activation energy
    theta0: float   # scaled reservoir temperature
    u: float        # dimensionless velocity

    def __post_init__(self) -> None:
        _require_finite_positive(self)
        # F'(theta) = u theta0^2 / (theta + theta0)^2 squares theta0
        if not math.isfinite(self.theta0 * self.theta0):
            raise ValueError(f"DimensionlessParams.theta0 = {self.theta0} is too large: theta0^2 overflows")

    @property
    def h_diff(self) -> float:
        return 1.0 / self.pe_t


# Typical reservoir data and scales for solid-fuel in-situ combustion.
TYPICAL_RESERVOIR = DimensionalParams(
    t_res=273.0,
    lambda_th=0.87,
    q_r=4e5,
    u_inj=0.0023,
    e_r=58000.0,
    k_p=500.0,
    r_gas=8.314,
    rho_f_res=372.0,
    x_star=9.1e4,
    t_star=1.48e8,
    dt_star=74.4,
)

# Dimensionless base case used by all default runs.
BASE_PARAMS = DimensionlessParams(pe_t=1406.0, beta=7.44e10, e_act=93.8, theta0=3.67, u=3.76)


def nondimensionalize(dim: DimensionalParams) -> DimensionlessParams:
    """Map dimensional reservoir constants to the dimensionless parameter set."""
    try:
        return DimensionlessParams(
            pe_t=dim.x_star / (dim.lambda_th * dim.dt_star),
            beta=dim.rho_f_res * dim.k_p * dim.q_r,
            e_act=dim.e_r / (dim.r_gas * dim.dt_star),
            theta0=dim.t_res / dim.dt_star,
            u=dim.u_inj * dim.t_star / dim.x_star,
        )
    except ZeroDivisionError:
        raise ValueError("a product of the dimensional constants in a denominator "
                         "underflows to 0") from None


def flux(theta, p: DimensionlessParams):
    """Convective flux F(theta) = u rho(theta) theta = u theta0 theta / (theta + theta0)."""
    return p.u * p.theta0 * theta / (theta + p.theta0)


def flux_d(theta, p: DimensionlessParams):
    """Exact derivative F'(theta) = u theta0^2 / (theta + theta0)^2."""
    return p.u * p.theta0**2 / (theta + p.theta0) ** 2


def phi(theta, eta, p: DimensionlessParams):
    """Reaction term beta (1 - eta) exp(-e_act/(theta + theta0))."""
    return p.beta * (1.0 - eta) * np.exp(-p.e_act / (theta + p.theta0))


def phi_dtheta(theta, eta, p: DimensionlessParams):
    """Partial of phi with respect to theta."""
    return phi(theta, eta, p) * p.e_act / (theta + p.theta0) ** 2


def phi_deta(theta, p: DimensionlessParams):
    """Partial of phi with respect to eta; independent of eta (phi is affine in eta)."""
    return -p.beta * np.exp(-p.e_act / (theta + p.theta0))

