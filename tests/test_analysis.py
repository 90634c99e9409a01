from dataclasses import replace

import numpy as np
import pytest

from combust.analysis import (
    _relative_error,
    bench,
    compare_methods,
    diff_series,
    refine_errors,
    restrict,
)
from combust.discretization import Grid, State
from combust.mncp import SolverOptions
from combust.model import BASE_PARAMS
from combust.timestepper import MNCP, NCP, RunConfig, run


def tiny_config(m=8, n_steps=5, record_times=(0.0, 5e-5)):
    grid = Grid(length=0.05, m=m, k=1e-5, n_steps=n_steps)
    return RunConfig(grid=grid, params=BASE_PARAMS, method=MNCP,
                     solver_opts=SolverOptions(tol=1e-8), record_times=record_times)


class TestRestrict:
    def test_picks_coincident_nodes(self):
        fine_grid = Grid(length=1.0, m=8, k=0.1, n_steps=1)
        coarse_grid = Grid(length=1.0, m=4, k=0.1, n_steps=1)
        fine = State(theta=np.arange(1.0, 9.0), eta=np.arange(10.0, 18.0), n=3)
        coarse = restrict(fine, fine_grid, coarse_grid)
        # coarse node j sits at fine node 2j, i.e. fine array index 2j - 1
        np.testing.assert_array_equal(coarse.theta, [2.0, 4.0, 6.0, 8.0])
        np.testing.assert_array_equal(coarse.eta, [11.0, 13.0, 15.0, 17.0])
        assert coarse.n == 3
        assert not np.shares_memory(coarse.z, fine.z)

    def test_linear_profile_is_exact(self):
        fine_grid = Grid(length=1.0, m=16, k=0.1, n_steps=1)
        coarse_grid = Grid(length=1.0, m=8, k=0.1, n_steps=1)
        slope = 2.5
        fine = State(theta=slope * fine_grid.x_nodes()[1:], eta=np.zeros(16))
        coarse = restrict(fine, fine_grid, coarse_grid)
        np.testing.assert_allclose(coarse.theta, slope * coarse_grid.x_nodes()[1:], rtol=1e-14)

    def test_incompatible_grids(self):
        g8 = Grid(length=1.0, m=8, k=0.1, n_steps=1)
        g5 = Grid(length=1.0, m=5, k=0.1, n_steps=1)
        with pytest.raises(ValueError):
            restrict(State(theta=np.zeros(8), eta=np.zeros(8)), g8, g5)
        g8b = Grid(length=2.0, m=8, k=0.1, n_steps=1)
        g4 = Grid(length=1.0, m=4, k=0.1, n_steps=1)
        with pytest.raises(ValueError):
            restrict(State(theta=np.zeros(8), eta=np.zeros(8)), g8b, g4)


class TestRelativeError:
    def test_known_value(self):
        assert _relative_error(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == \
            pytest.approx(1.0)

    def test_zero_reference_is_nan(self):
        assert np.isnan(_relative_error(np.array([1.0]), np.array([0.0])))

    def test_exact_match_is_zero(self):
        v = np.array([0.3, -0.7, 2.0])
        assert _relative_error(v, v) == 0.0


class TestDiffSeries:
    def test_self_difference_is_zero(self):
        series = run(tiny_config())
        rows = diff_series(series, series)
        assert len(rows) == 2
        for row in rows:
            assert row.theta_max == 0.0
            assert row.eta_l2 == 0.0

    def test_known_shift(self):
        series = run(tiny_config())
        shifted_snaps = [
            (t, State(theta=s.theta + 2.0, eta=s.eta - 1.0, n=s.n))
            for t, s in series.snapshots
        ]
        shifted = type(series)(snapshots=shifted_snaps, per_step=series.per_step)
        rows = diff_series(series, shifted)
        m = tiny_config().grid.m
        for row in rows:
            assert row.theta_max == pytest.approx(2.0)
            assert row.theta_l2 == pytest.approx(2.0 * np.sqrt(m))
            assert row.eta_max == pytest.approx(1.0)


class TestCompareMethods:
    def test_methods_agree_at_tolerance(self):
        rows = compare_methods(tiny_config(n_steps=10, record_times=(1e-4,)))
        assert len(rows) == 1
        assert rows[0].theta_max <= 1e-6
        assert rows[0].eta_max <= 1e-6


class TestRefineErrors:
    def test_table_shape_and_ratio_consistency(self):
        # monotone decrease under refinement needs the production grid and
        # is checked in the acceptance suite; here only the table structure
        config = tiny_config(m=6, n_steps=10, record_times=())
        rows = refine_errors(config, times=(1e-4,))
        assert len(rows) == 2
        assert sorted(row.variable for row in rows) == ["eta", "theta"]
        for row in rows:
            assert row.time == 1e-4
            assert row.e_h > 0.0 and row.e_h2 > 0.0 and row.e_h4 > 0.0
            assert row.ratio1 == pytest.approx(row.e_h / row.e_h2)
            assert row.ratio2 == pytest.approx(row.e_h2 / row.e_h4)

    @pytest.mark.parametrize("times, labels", [
        ((5e-4, 5e-4), [5e-4]),      # both times round to step 50
        ((5e-4, 5e-3), [5e-4, 1e-3]),  # 5e-3 is past the end: the final step
    ])
    def test_rows_follow_snapshots(self, times, labels):
        config = tiny_config(m=4, n_steps=100, record_times=())
        rows = refine_errors(config, times=times)
        assert [row.time for row in rows] == pytest.approx(np.repeat(labels, 2))
        assert [row.variable for row in rows] == ["theta", "eta"] * len(labels)

    def test_initial_time_is_nan(self):
        # at t = 0 every grid holds the same zero state, so the relative
        # error is undefined
        config = tiny_config(m=4, n_steps=2, record_times=())
        rows = refine_errors(config, times=(0.0,))
        for row in rows:
            assert np.isnan(row.e_h)


class TestBench:
    def test_rows_cover_methods_and_snapshots(self):
        config = tiny_config(m=6, n_steps=4, record_times=(2e-5, 4e-5))
        rows = bench(config)
        assert len(rows) == 4
        assert sorted({method for _, method, _ in rows}) == [MNCP, NCP]
        for t_snap, _, report in rows:
            assert report.iterations >= 1
            assert 0.0 < report.last_step <= 1.0
            assert t_snap in (2e-5, 4e-5)

    @pytest.mark.parametrize("method", [MNCP, NCP])
    def test_rows_match_their_steps(self, method):
        config = tiny_config(m=6, n_steps=4, record_times=(2e-5, 4e-5))
        per_step = run(replace(config, method=method)).per_step
        rows = [(t, report) for t, m, report in bench(config) if m == method]
        assert [t for t, _ in rows] == [2e-5, 4e-5]
        for (_, report), n in zip(rows, (2, 4)):
            expected = per_step[n - 1]
            assert report.iterations == expected.iterations
            assert report.s_evals == expected.s_evals
            assert report.js_evals == expected.js_evals
            assert report.last_step == expected.last_step
            assert report.wall_time > 0.0

    def test_initial_snapshot_has_no_stats(self):
        config = tiny_config(m=5, n_steps=2, record_times=(0.0, 2e-5))
        rows = bench(config)
        assert all(t_snap == 2e-5 for t_snap, _, _ in rows)
