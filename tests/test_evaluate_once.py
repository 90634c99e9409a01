"""Each time level is evaluated once: level data by recurrence, one exponential per point."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from combust import timestepper
from combust.discretization import Grid, assemble_LD, assemble_LDQ, assemble_matrices
from combust.model import phi
from combust.timestepper import MNCP, NCP, initial_state, run, step

from conftest import CONSTANT_PARAMS, base_config, stacked_terms, to_dense


def short_config(method, n_steps, m=50, k=1e-5):
    config = base_config(m, method, record_times=())
    return replace(config, grid=replace(config.grid, k=k, n_steps=n_steps))


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_carried_level_data_equal_assembly(monkeypatch, method):
    # LD' = 8 theta' - G - LD, and LDQ' = 4 eta' - Q - LDQ (NCP) or
    # 2 eta' + k Phi' (MNCP) from the converged residual, against assembling
    # from the new state.  MNCP's level carries beta (2 - LDQ): the same
    # 1e-13 in LDQ's units is beta * 1e-13 there
    carried = []
    original = timestepper.step

    def recording(state, equations, *args):
        out = original(state, equations, *args)
        carried.append((out[0], equations.level, equations.ldq, equations.cache))
        return out

    monkeypatch.setattr(timestepper, "step", recording)
    config = short_config(method, 200)
    run(config)
    assert len(carried) == 200
    beta = config.params.beta
    for state, level, ldq, cache in carried:
        m = state.theta.size
        assembled = assemble_LDQ(state, cache)
        np.testing.assert_allclose(level[:m], assemble_LD(state, cache), rtol=0.0, atol=1e-13)
        if method == MNCP:
            np.testing.assert_allclose(ldq, assembled, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(level[m:], beta * (2.0 - assembled),
                                       rtol=0.0, atol=beta * 1e-13)
        else:
            assert ldq is None
            np.testing.assert_allclose(level[m:], assembled, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_long_run_matches_fresh_assembly(monkeypatch, method):
    # 2,000 steps at k = 1e-3 (t = 2): the recurrence's rounding must not drift
    config = short_config(method, 2000, k=1e-3)
    config = replace(config, record_times=(2.0,))
    _, carried = run(config).snapshots[-1]
    original = timestepper.step

    def assembling(state, equations, config, shift=0.0, previous=None, earlier=None):
        fresh = timestepper.StepEquations(equations.cache, config.method, state)
        return original(state, fresh, config, shift, previous, earlier)

    monkeypatch.setattr(timestepper, "step", assembling)
    _, fresh = run(config).snapshots[-1]
    assert carried.n == fresh.n == 2000
    np.testing.assert_allclose(carried.theta, fresh.theta, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(carried.eta, fresh.eta, rtol=0.0, atol=1e-12)


def test_shared_closure_terms_equal_the_single_purpose_functions():
    # the residual forms Phi from the one exponential it shares with the
    # Jacobian: at a stacked point it equals phi() (the Jacobian's factors:
    # test_discretization)
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 3.0, 64)
    eta = rng.uniform(0.0, 1.0, 64)
    for p in CONSTANT_PARAMS:
        cache = assemble_matrices(Grid(length=0.05, m=64, k=1e-5, n_steps=1), p)
        terms = stacked_terms(theta, eta, cache)
        np.testing.assert_array_equal(terms[2], phi(theta, eta, p))


@pytest.mark.parametrize("method", [MNCP, NCP])
def test_solver_jacobians_equal_fresh_ones(monkeypatch, method):
    # The first step from the cold start takes several Newton iterations: its
    # first Jacobian is built at the restored point, the others at accepted
    # probes.  Each must take the terms of the latest residual call and
    # equal the Jacobian built from the terms of a second residual call there.
    latest = {}
    built = []
    original_residual = timestepper.residual
    original = timestepper.jacobian

    def recording_residual(z, cache, level):
        r, terms = original_residual(z, cache, level)
        latest.update(z=z.copy(), level=level.copy(), terms=terms)
        return r, terms

    def recording(terms, cache):
        jac = original(terms, cache)
        built.append((latest["z"], latest["level"], terms is latest["terms"], jac))
        return jac

    monkeypatch.setattr(timestepper, "residual", recording_residual)
    monkeypatch.setattr(timestepper, "jacobian", recording)
    config = short_config(method, 1)
    cache = assemble_matrices(config.grid, config.params)
    state = initial_state(config.grid)
    _, report = step(state, timestepper.StepEquations(cache, method, state), config)
    assert report.js_evals == len(built) >= 2
    for z, level, shared, jac in built:
        assert shared
        fresh = original(original_residual(z, cache, level)[1], cache)
        np.testing.assert_array_equal(to_dense(jac), to_dense(fresh))


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
