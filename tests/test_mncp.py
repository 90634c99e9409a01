import numpy as np
import pytest

from combust import mncp
from combust.discretization import NumericError
from combust.mncp import (
    InfeasibleStart,
    MaxIterations,
    MncpProblem,
    SolverOptions,
    direction,
    line_search,
    merit_vector,
    natural_residual,
    restore_feasibility,
    solve,
)

from conftest import dense, evaluated


def scalar_affine(slope=1.0, offset=2.0):
    """One-dimensional problem r(z) = slope*z + offset."""
    return MncpProblem(
        n_pairs=1,
        residual=lambda z: slope * z + offset,
        jacobian=dense(lambda z: np.array([[slope]])),
    )


def nan_at(position, size=5):
    x = np.arange(size, dtype=float)
    x[position] = np.nan
    return x


EXTREME_CASES = [
    *(np.random.default_rng(seed).normal(size=size) for seed, size in ((0, 50), (1, 400), (2, 7))),
    np.array([3.5]), np.array([-2.0]),
    np.array([1.0, np.inf, -np.inf, 0.0]), np.array([np.inf]), np.array([-np.inf, -np.inf]),
    nan_at(0), nan_at(2), nan_at(-1), np.array([np.inf, np.nan, -np.inf]),
]
SIGNED_ZEROS = [np.array(x) for x in ([0.0, -0.0], [-0.0, 0.0], [0.0], [-0.0], [1.0, -0.0, 0.0],
                                      [-0.0, 1.0, 0.0], [-1.0, 0.0, -0.0], [0.0, -1.0, -0.0])]


class TestExtremes:
    """mncp._min and _max stand in for np.minimum.reduce and np.maximum.reduce."""

    @pytest.mark.parametrize("x", EXTREME_CASES)
    def test_equal_the_reductions(self, x):
        for helper, reduction in ((mncp._min, np.minimum.reduce), (mncp._max, np.maximum.reduce)):
            value, expected = helper(x), reduction(x)
            assert type(value) is np.float64
            assert value == expected or (np.isnan(value) and np.isnan(expected))

    @pytest.mark.parametrize("x", SIGNED_ZEROS)
    def test_signed_zeros_decide_alike(self, x):
        # only a zero's sign may differ, which no comparison with 0.0 and no np.abs sees
        for helper, reduction in ((mncp._min, np.minimum.reduce), (mncp._max, np.maximum.reduce)):
            value, expected = helper(x), reduction(x)
            assert (value > 0.0) == (expected > 0.0)
            assert (value <= 0.0) == (expected <= 0.0)
            assert np.abs(value).tobytes() == np.abs(expected).tobytes()


class TestProblemSetup:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=-1e-8)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)


class TestMeritAndResidual:
    def test_hand_value(self):
        # z = 1, r = 3 on the single pair row: H = 3, S = 4.5
        prob = scalar_affine()
        r, h, s = evaluated(np.array([1.0]), prob)
        np.testing.assert_array_equal(r, [3.0])
        np.testing.assert_array_equal(h, [3.0])
        assert s == 4.5

    def test_equality_rows_pass_through(self):
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: np.array([z[0] - 1.0, z[1] + 5.0]),
            jacobian=dense(lambda z: np.eye(2)),
        )
        h = merit_vector(np.array([2.0, 3.0]), prob.residual(np.array([2.0, 3.0])), prob)
        np.testing.assert_array_equal(h, [2.0, 8.0])

    def test_natural_residual_sees_masked_pair(self):
        # a tiny variable against a large residual: the product is tiny but
        # the pair is far from complementary
        prob = scalar_affine(offset=2.0)
        z = np.array([1e-12])
        r = prob.residual(z)
        assert abs(merit_vector(z, r, prob)[0]) < 1e-8
        assert natural_residual(z, r, prob) == pytest.approx(1e-12)

        z = np.array([0.5])
        assert natural_residual(z, prob.residual(z), prob) == pytest.approx(0.5)

    def test_natural_residual_counts_a_negative_residual(self):
        # z = 1 against r = -2e-8: min(z, r) is negative, so the pair is
        # 2e-8 from complementary, above the default tol of 1e-8
        prob = scalar_affine(offset=-1.0 - 2e-8)
        z = np.array([1.0])
        r = prob.residual(z)
        assert r[0] == pytest.approx(-2e-8, rel=1e-7)
        assert natural_residual(z, r, prob) == -r[0]
        assert natural_residual(z, r, prob) > SolverOptions().tol


class TestDirection:
    def test_hand_value_with_centering(self):
        # z = 1, r = z + 2: H = 3, J_H = z*1 + r = 4,
        # rho = 0.01 * min(1, 3) * 3 = 0.03, so d = (-3 + 0.03) / 4 = -0.7425
        prob = scalar_affine()
        z = np.array([1.0])
        d, g_dot_d = direction(z, *evaluated(z, prob), prob)
        assert d[0] == pytest.approx(-0.7425, rel=1e-14)
        assert g_dot_d == pytest.approx(3.0 * 4.0 * -0.7425, rel=1e-14)

    def test_small_centering_is_newton(self, monkeypatch):
        monkeypatch.setattr(mncp, "_SIGMA_C", 1e-14)
        prob = scalar_affine()
        z = np.array([1.0])
        d, _ = direction(z, *evaluated(z, prob), prob)
        assert d[0] == pytest.approx(-0.75, rel=1e-10)

    def test_descent_bound(self, monkeypatch):
        # grad(S)^T d <= -(1 - sigma_c) ||H||^2 must hold at any interior point
        rng = np.random.default_rng(5)
        prob = MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([z[0] ** 2 + z[1] + 0.5, z[0] + 2.0 * z[1] + 1.0]),
            jacobian=dense(lambda z: np.array([[2.0 * z[0], 1.0], [1.0, 2.0]])),
        )
        for sigma in (0.1, 0.5, 0.9):
            monkeypatch.setattr(mncp, "_SIGMA_C", sigma)
            for _ in range(25):
                z = rng.uniform(0.05, 3.0, 2)
                r, h, s = evaluated(z, prob)
                _, g_dot_d = direction(z, r, h, s, prob)
                assert g_dot_d <= -(1.0 - sigma) * float(h @ h) + 1e-10

    def test_singular_jacobian_raises(self):
        prob = MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([1.0, 1.0]),
            jacobian=dense(lambda z: np.full((2, 2), np.inf)),
        )
        with pytest.raises(mncp.SingularJacobian):
            z = np.array([1.0, 1.0])
            direction(z, *evaluated(z, prob), prob)


class TestLineSearch:
    def test_full_step_accepted(self):
        prob = scalar_affine()
        z = np.array([1.0])
        r, _, s0 = evaluated(z, prob)
        d = np.array([-0.375])
        g_dot_d = -4.5
        t, z_t, r_t, h_t, s_t, n_evals = line_search(z, r, d, g_dot_d, s0, prob)
        assert t == 1.0
        assert z_t[0] == pytest.approx(0.625)
        assert s_t < s0
        assert n_evals == 1

    def test_backtracks_on_interiority(self):
        # the full step would cross z = 0, so the ladder drops to nu = 0.8
        prob = scalar_affine()
        z = np.array([1.0])
        r, _, s0 = evaluated(z, prob)
        t, z_t, _, _, _, _ = line_search(z, r, np.array([-1.05]), -4.5, s0, prob)
        assert t == pytest.approx(0.8)
        assert z_t[0] == pytest.approx(1.0 - 0.8 * 1.05)

    def test_step_is_on_ladder(self):
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: 10.0 * z - 1.0,
            jacobian=dense(lambda z: np.array([[10.0]])),
        )
        z = np.array([2.0])
        r, h, s0 = evaluated(z, prob)
        d, g_dot_d = direction(z, r, h, s0, prob)
        t, *_ = line_search(z, r, d, g_dot_d, s0, prob)
        k = round(np.log(t) / np.log(mncp._NU_BACKTRACK))
        assert t == pytest.approx(mncp._NU_BACKTRACK ** k, rel=1e-12)

    def test_zero_is_not_interior(self):
        # along d = -1, the full step from z = 2 lands on a pair residual
        # r(z) = 2z - 2 of exactly 0.0, which the line search evaluates and
        # rejects (r = z = 2 at the start, so the pair is not identified
        # active); the full step from z = 1 lands on a pair variable of
        # exactly 0.0 (r(z) = z + 2), which it rejects before evaluating
        for prob, z0, n_expected in ((scalar_affine(slope=2.0, offset=-2.0), 2.0, 2),
                                     (scalar_affine(), 1.0, 1)):
            z = np.array([z0])
            r, _, s0 = evaluated(z, prob)
            t, z_t, r_t, _, _, n_evals = line_search(z, r, np.array([-1.0]), -4.0, s0, prob)
            assert t == mncp._NU_BACKTRACK
            assert z_t[0] > 0.0 and r_t[0] > 0.0
            assert n_evals == n_expected

    @pytest.mark.parametrize("slope, offset, t_expected", [(1.0, -1.1, 1.0), (3.0, -3.1, 0.8)],
                             ids=["identified_active", "not_identified_active"])
    def test_probe_residual_may_fall_to_zero_only_where_identified_active(
            self, slope, offset, t_expected):
        # the full step from z = 2 along d = -1 is the same probe in both
        # cases, z = 1 with r = -0.1; at the start r = 0.9 < z identifies the
        # pair as active, so the probe is accepted, while r = 2.9 >= z does
        # not, so it is rejected and the next rung (r = 0.5) accepted
        prob = scalar_affine(slope=slope, offset=offset)
        z = np.array([2.0])
        r, _, s0 = evaluated(z, prob)
        assert (r[0] < z[0]) == (t_expected == 1.0)
        t, z_t, r_t, _, _, n_evals = line_search(z, r, np.array([-1.0]), -1.0, s0, prob)
        assert t == t_expected
        assert z_t[0] > 0.0
        if t == 1.0:
            assert z_t[0] == 1.0 and r_t[0] == pytest.approx(-0.1, rel=1e-12)
            assert n_evals == 1
        else:
            assert r_t[0] > 0.0
            assert n_evals == 2

    def test_identification_is_per_pair(self):
        # two uncoupled pairs: pair 0 (r = z - 1.1) is identified active at
        # z = 2 and pair 1 (r = 3z - 3.1) is not; the full step puts both
        # residuals at -0.1, and a step that moves only pair 0 is accepted
        prob = MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([z[0] - 1.1, 3.0 * z[1] - 3.1]),
            jacobian=dense(lambda z: np.diag([1.0, 3.0])),
        )
        z = np.array([2.0, 2.0])
        r, _, s0 = evaluated(z, prob)
        t_both, *_ = line_search(z, r, np.array([-1.0, -1.0]), -1.0, s0, prob)
        assert t_both == mncp._NU_BACKTRACK
        t_one, _, r_t, _, _, _ = line_search(z, r, np.array([-1.0, 0.0]), -1.0, s0, prob)
        assert t_one == 1.0
        assert r_t[0] < 0.0 < r_t[1]

    def test_stall_raises(self):
        prob = scalar_affine()
        z = np.array([1.0])
        r, _, s0 = evaluated(z, prob)
        with pytest.raises(mncp.LineSearchStall):
            # an ascent direction with a claimed steep descent slope can
            # never satisfy Armijo
            line_search(z, r, np.array([1.0]), -100.0, s0, prob)


class TestRestoreFeasibility:
    def test_clamps_to_interior(self):
        prob = scalar_affine()
        z, r, _, _ = restore_feasibility(np.array([-3.0]), prob)
        assert z[0] == pytest.approx(1e-6)
        assert r[0] > 0.0

    def test_doubling_shift(self):
        # r(z) = z - 1 is non-positive at the clamped start, so the shift
        # must walk z past 1
        prob = scalar_affine(offset=-1.0)
        z, r, n_evals, _ = restore_feasibility(np.array([0.0]), prob)
        assert z[0] > 1.0
        assert r[0] > 0.0
        assert n_evals > 1

    def test_zero_residual_keeps_doubling(self):
        # r(z) = z - 2 eps: the first doubling lands on r = 0.0 exactly,
        # which is not interior, so restoration doubles once more
        eps = mncp._EPS_INTERIOR
        seen = []

        def residual(z):
            seen.append(z[0] - 2.0 * eps)
            return z - 2.0 * eps

        prob = MncpProblem(n_pairs=1, residual=residual,
                           jacobian=dense(lambda z: np.eye(1)))
        z, r, n_evals, shift = restore_feasibility(np.array([0.0]), prob)
        assert seen == [-eps, 0.0, 2.0 * eps]
        assert n_evals == 3
        assert shift == 3.0 * eps
        assert z[0] == 4.0 * eps and r[0] == 2.0 * eps

    def test_unrestorable_raises(self, monkeypatch):
        monkeypatch.setattr(mncp, "_MAX_RESTORE", 8)
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: np.full(1, -1.0),
            jacobian=dense(lambda z: np.eye(1)),
        )
        with pytest.raises(InfeasibleStart):
            restore_feasibility(np.array([1.0]), prob)


def toy_problems():
    """Small complementarity problems with known solutions."""
    cases = []

    # interior root: z* = 1 with r = 0
    cases.append((
        scalar_affine(slope=1.0, offset=-1.0),
        np.array([5.0]),
        lambda z: abs(z[0] - 1.0) < 1e-6,
    ))

    # boundary solution: z* = 0 with r = 1 > 0
    cases.append((
        scalar_affine(slope=1.0, offset=1.0),
        np.array([5.0]),
        lambda z: z[0] < 1e-6,
    ))

    # two coupled pairs, both ending at interior roots z* = (0.5, 0.5)
    cases.append((
        MncpProblem(
            n_pairs=2,
            residual=lambda z: np.array([z[0] - 0.5, z[0] + z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 0.0], [1.0, 1.0]])),
        ),
        np.array([2.0, 2.0]),
        lambda z: np.allclose(z, [0.5, 0.5], atol=1e-6),
    ))

    # mixed: one pair plus one equality row, z* = (1, 1)
    cases.append((
        MncpProblem(
            n_pairs=1,
            residual=lambda z: np.array([z[0] + z[1] - 2.0, z[1] - 1.0]),
            jacobian=dense(lambda z: np.array([[1.0, 1.0], [0.0, 1.0]])),
        ),
        np.array([2.0, 2.0]),
        lambda z: np.allclose(z, [1.0, 1.0], atol=1e-6),
    ))
    return cases


class RecordingProblem:
    """A toy problem that records how solve() calls it.

    Each residual call keeps its array and a copy of its values; each
    jacobian call records whether it got that very array with those values.
    Each residual call is logged as whether its pairs were strictly
    interior (z and r positive), and each jacobian call as "J".
    """

    def __init__(self, n_pairs, residual, jacobian):
        self.problem = MncpProblem(n_pairs, self.residual, self.jacobian)
        self._residual = residual
        self._jacobian = dense(jacobian)
        self.latest = None
        self.jacobian_at_latest = []
        self.log = []

    def residual(self, z):
        r = self._residual(z)
        p = self.problem.n_pairs
        self.latest = (z, z.copy())
        self.log.append(bool(np.all(z[:p] > 0.0) and np.all(r[:p] > 0.0)))
        return r

    def jacobian(self, z):
        point, values = self.latest
        self.jacobian_at_latest.append(z is point and np.array_equal(z, values))
        self.log.append("J")
        return self._jacobian(z)

    def armijo_rejections(self):
        # an interior probe is rejected only by Armijo, and the next residual
        # call is then the line search's next probe
        return sum(1 for a, b in zip(self.log, self.log[1:]) if a is True and b != "J")


class TestSolverContract:
    """solve() builds every Jacobian at the point of its latest residual call,
    unchanged since, and returns that point: StepEquations keeps only that
    call's evaluation."""

    def check(self, recording, z0):
        z, report = solve(recording.problem, np.array(z0))
        assert len(recording.jacobian_at_latest) == report.js_evals >= 1
        assert all(recording.jacobian_at_latest)
        point, values = recording.latest
        assert z is point
        np.testing.assert_array_equal(z, values)
        return report

    def test_after_restoration_doublings(self):
        # r(z) = z - 1 is negative at the clamped start: restoration shifts
        # the same array in place and calls the residual after each doubling
        recording = RecordingProblem(1, lambda z: z - 1.0, lambda z: np.eye(1))
        report = self.check(recording, [0.0])
        assert report.shift > 0.0
        assert recording.log[:2] == [False, False]

    def test_after_armijo_rejections(self):
        # Newton on the equality row z_1^3 = 1 from 0.1 overshoots to about
        # 33: the probe is interior, its merit is not lower, and the line
        # search evaluates a shorter probe
        recording = RecordingProblem(
            1, lambda z: np.array([z[0] + 1.0, z[1] ** 3 - 1.0]),
            lambda z: np.array([[1.0, 0.0], [0.0, 3.0 * z[1] ** 2]]))
        self.check(recording, [1.0, 0.1])
        assert recording.armijo_rejections() >= 1


class TestSolve:
    @pytest.mark.parametrize("case", range(4))
    def test_toy_problems(self, case):
        prob, z0, check = toy_problems()[case]
        z, report = solve(prob, z0, SolverOptions(tol=1e-8))
        assert report.iterations <= 30
        assert check(z)
        r = np.atleast_1d(prob.residual(z))
        h = merit_vector(z, r, prob)
        assert np.max(np.abs(h)) <= 1e-8
        assert report.h_inf == np.abs(h).max()

    def test_iterates_stay_interior_and_merit_decreases(self):
        # both pairs end at r = 0 with z = 0.5, so both are identified active
        # on the way and their residuals may cross 0; a pair with r >= z at
        # an iterate keeps r > 0 at the next
        prob, z0, _ = toy_problems()[2]
        p = prob.n_pairs
        z, _, _, _ = restore_feasibility(z0, prob)
        crossed = False
        for _ in range(15):
            r, h, s = evaluated(z, prob)
            if np.max(np.abs(h)) <= 1e-10:
                break
            d, g_dot_d = direction(z, r, h, s, prob)
            not_active = r[:p] >= z[:p]
            _, z, r_next, _, s_next, _ = line_search(z, r, d, g_dot_d, s, prob)
            assert np.all(z[:p] > 0.0)
            assert np.all(r_next[:p][not_active] > 0.0)
            crossed |= bool((r_next[:p] <= 0.0).any())
            assert s_next < s
        assert crossed

    @pytest.mark.parametrize("case, z0", [(2, [0.0, 0.0]), (3, [-1.0, 2.0])],
                             ids=["all_pairs", "pair_and_equality"])
    def test_leaves_its_start_unchanged(self, case, z0):
        # each start has a pair variable that restoration must clamp
        prob, _, _ = toy_problems()[case]
        z0 = np.array(z0)
        before = z0.copy()
        z, report = solve(prob, z0)
        np.testing.assert_array_equal(z0, before)
        assert not np.shares_memory(z, z0)

    def test_deterministic(self):
        prob, z0, _ = toy_problems()[3]
        z1, rep1 = solve(prob, z0.copy())
        z2, rep2 = solve(prob, z0.copy())
        np.testing.assert_array_equal(z1, z2)
        assert rep1.iterations == rep2.iterations
        assert rep1.s_evals == rep2.s_evals

    def test_max_iterations_carries_iterate(self):
        prob, z0, _ = toy_problems()[2]
        with pytest.raises(MaxIterations) as excinfo:
            solve(prob, z0, SolverOptions(max_iter=1))
        assert excinfo.value.report.iterations == 1
        assert excinfo.value.iterate is not None
        # h_inf and the message are max|H| at that last iterate
        z = excinfo.value.iterate
        h = merit_vector(z, np.atleast_1d(prob.residual(z)), prob)
        assert excinfo.value.report.h_inf == np.abs(h).max()
        assert f"max|H| = {np.abs(h).max():.3e}" in str(excinfo.value)

    def test_numeric_error_at_a_probe_carries_the_iterate(self):
        # r(z) = z + 2 has no finite value below z = 0.2, where the residual
        # raises NumericError as the step residual does.  From z = 1 the
        # first Newton step is accepted at z = 0.2575 (d = -2.97 / 4); the
        # second step's first probe, z = 0.028, raises
        def residual(z):
            r = np.where(z >= 0.2, z + 2.0, np.nan)
            if not np.isfinite(r).all():
                raise NumericError("non-finite residual G at node 1", node=1)
            return r

        prob = MncpProblem(n_pairs=1, residual=residual, jacobian=dense(lambda z: np.eye(1)))
        with pytest.raises(NumericError) as excinfo:
            solve(prob, np.array([1.0]))
        err = excinfo.value
        assert err.report.iterations == 1
        z = err.iterate[0]
        assert z == pytest.approx(0.2575, rel=1e-15)
        assert err.report.worst_pair == (0, z, z + 2.0)
        assert str(err) == ("non-finite residual G at node 1; max|H| = 5.813e-01, natural residual "
                            "= 2.575e-01, worst pair row 0: z = 2.575e-01, r = 2.257e+00")

    def test_natural_residual_alone_does_not_stop(self):
        # the pair is complementary to within tol at the restored start, but
        # the equality row z_1 = 1 is far off: max|H| = 1 must keep it going
        prob = MncpProblem(
            n_pairs=1,
            residual=lambda z: np.array([1.0 + z[0], z[1] - 1.0]),
            jacobian=dense(lambda z: np.eye(2)),
        )
        opts = SolverOptions(tol=1e-5)
        z_start, r_start, _, _ = restore_feasibility(np.zeros(2), prob)
        assert natural_residual(z_start, r_start, prob) <= opts.tol
        assert np.abs(merit_vector(z_start, r_start, prob)).max() > opts.tol
        z, report = solve(prob, np.zeros(2), opts)
        assert report.iterations >= 1
        assert report.h_inf <= opts.tol
        assert z[1] == pytest.approx(1.0, abs=1e-5)

    def test_report_counters(self):
        prob, z0, _ = toy_problems()[0]
        _, report = solve(prob, z0)
        assert report.js_evals == report.iterations
        assert report.s_evals >= report.iterations + 1
        assert 0.0 < report.last_step <= 1.0
        assert report.h_inf <= 1e-8
