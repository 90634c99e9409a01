"""Each time level is evaluated once: level data by recurrence, one exponential per point."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from combust import timestepper
from combust.discretization import (
    assemble_LD,
    assemble_LDQ,
    assemble_matrices,
    jacobian,
    residual,
)
from combust.mncp import MNCP, NCP
from combust.model import (
    BASE_PARAMS,
    closure,
    closure_derivatives,
    flux,
    flux_d,
    phi,
    phi_deta,
    phi_dtheta,
)
from combust.timestepper import initial_state, run, step

from conftest import base_config


def short_config(method, n_steps, m=50, k=1e-5):
    config = base_config(m, method, record_times=())
    return replace(config, grid=replace(config.grid, k=k, n_steps=n_steps))


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_carried_level_data_equal_assembly(monkeypatch, method):
    # LD' = 8 theta' - G - LD and LDQ' = 4 eta' - Q - LDQ from the
    # converged residual, against assembling from the new state
    carried = []
    original = timestepper.step

    def recording(state, equations, *args):
        out = original(state, equations, *args)
        carried.append((out[0], (equations.ld, equations.ldq), equations.cache))
        return out

    monkeypatch.setattr(timestepper, "step", recording)
    config = short_config(method, 200)
    run(config)
    assert len(carried) == 200
    for state, (ld, ldq), cache in carried:
        np.testing.assert_allclose(ld, assemble_LD(state, cache), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(ldq, assemble_LDQ(state, cache),
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_long_run_matches_fresh_assembly(monkeypatch, method):
    # 2,000 steps at k = 1e-3 (t = 2): the recurrence's rounding must not drift
    config = short_config(method, 2000, k=1e-3)
    config = replace(config, record_times=(2.0,))
    _, carried = run(config).snapshots[-1]
    original = timestepper.step

    def assembling(state, equations, config, shift=0.0, previous=None):
        fresh = timestepper.StepEquations(equations.cache, config.method, state)
        return original(state, fresh, config, shift, previous)

    monkeypatch.setattr(timestepper, "step", assembling)
    _, fresh = run(config).snapshots[-1]
    assert carried.n == fresh.n == 2000
    np.testing.assert_allclose(carried.theta, fresh.theta, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(carried.eta, fresh.eta, rtol=0.0, atol=1e-12)


def test_shared_closure_terms_equal_the_single_purpose_functions():
    rng = np.random.default_rng(5)
    p = BASE_PARAMS
    theta = rng.uniform(0.0, 3.0, 64)
    eta = rng.uniform(0.0, 1.0, 64)
    terms = closure(theta, eta, p)
    np.testing.assert_array_equal(terms[2], phi(theta, eta, p))
    np.testing.assert_array_equal(terms[3], flux(theta, p))
    singles = (phi_dtheta(theta, eta, p), phi_deta(theta, p), flux_d(theta, p))
    for shared, fresh, single in zip(closure_derivatives(theta, eta, p, terms),
                                     closure_derivatives(theta, eta, p), singles):
        np.testing.assert_array_equal(shared, fresh)
        np.testing.assert_array_equal(shared, single)


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_solver_jacobians_equal_fresh_ones(monkeypatch, method):
    # The first step from the cold start takes several Newton iterations: its
    # first Jacobian is built at the restored point, the others at accepted
    # probes.  Each must reuse the residual's closure terms and equal the
    # Jacobian formed afresh through closure_derivatives.
    built = []
    original = timestepper.jacobian

    def recording(theta, eta, cache, terms=None, eta_pairs=False):
        jac = original(theta, eta, cache, terms, eta_pairs)
        built.append((theta.copy(), eta.copy(), terms is not None, jac))
        return jac

    monkeypatch.setattr(timestepper, "jacobian", recording)
    config = short_config(method, 1)
    cache = assemble_matrices(config.grid, config.params)
    state = initial_state(config.grid)
    _, report = step(state, timestepper.StepEquations(cache, method, state), config)
    assert report.js_evals == len(built) >= 2
    for theta, eta, shared, jac in built:
        assert shared
        np.testing.assert_array_equal(jac.to_dense(), original(theta, eta, cache).to_dense())


def test_jacobian_elsewhere_forms_its_own_terms():
    config = short_config(MNCP, 1, m=6)
    cache = assemble_matrices(config.grid, config.params)
    state = initial_state(config.grid)
    equations = timestepper.StepEquations(cache, MNCP, state)
    z = np.full(12, 0.1)
    equations.residual(z)
    other = z.copy()
    other[0::2] = 0.2
    np.testing.assert_array_equal(equations.jacobian(other).to_dense(),
                                  jacobian(other[0::2], other[1::2], cache).to_dense())


def test_advance_off_the_last_point_assembles():
    config = short_config(MNCP, 1, m=6)
    cache = assemble_matrices(config.grid, config.params)
    state = initial_state(config.grid)
    equations = timestepper.StepEquations(cache, MNCP, state)
    ld0, ldq0 = equations.ld, equations.ldq
    z = np.full(12, 0.1)
    equations.advance(z)
    r, _ = residual(z[0::2], z[1::2], cache, ld0, ldq0)
    np.testing.assert_allclose(equations.ld, 8.0 * z[0::2] - r[0::2] - ld0, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(equations.ldq, 4.0 * z[1::2] - r[1::2] - ldq0,
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_reports_keep_no_arrays(method):
    # a report per step stays alive for the whole run: no array may ride on it
    series = run(short_config(method, 20))
    assert len(series.per_step) == 20
    for report in series.per_step:
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            assert not isinstance(value, np.ndarray), f.name
            assert value is None or isinstance(value, (bool, int, float, tuple)), f.name
