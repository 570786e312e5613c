"""Tests for the box-constrained LP solver and its certificate.

Random instances are cross-checked against scipy's HiGHS backend, which
serves as the reference solver for the optimality certification contract.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from mtjsc.lp import FEAS_TOL, LpProblem, LpStatus, solve_lp


class TestBasics:
    def test_box_minimum(self):
        sol = solve_lp(LpProblem(c=[1.0], lower=[0.0], upper=[1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_interval_from_worked_example(self):
        """min (1 - w) over the arctanh-derived interval picks the top end."""
        sol = solve_lp(LpProblem(
            c=[-1.0],
            a_ub=[[1.0], [-1.0]], b_ub=[0.7536, -0.4689],
            lower=[0.0], upper=[1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.7536, abs=1e-9)

    def test_infeasible(self):
        sol = solve_lp(LpProblem(
            c=[1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0],
            lower=[-5.0], upper=[5.0]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.x is None

    def test_feasibility_certificate(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        x0 = rng.uniform(0, 1, size=4)
        sol = solve_lp(LpProblem(rng.normal(size=4), a_ub=a, b_ub=a @ x0,
                                 lower=np.zeros(4), upper=np.ones(4)))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.max_violation <= FEAS_TOL

    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 20))
        x0 = rng.uniform(0, 1, size=20)
        sol = solve_lp(LpProblem(rng.normal(size=20), a_ub=a, b_ub=a @ x0,
                                 lower=np.zeros(20), upper=np.ones(20)),
                       max_iter=2)
        assert sol.status is LpStatus.ITERATION_LIMIT

    @pytest.mark.parametrize("max_iter", [-1, 1.5, True])
    def test_max_iter_refused(self, max_iter):
        problem = LpProblem(c=[1.0], upper=[1.0])
        with pytest.raises(ValueError, match=rf"max_iter must be None or an "
                                             rf"integer >= 0, got {max_iter}"):
            solve_lp(problem, max_iter=max_iter)

    def test_validation(self):
        with pytest.raises(ValueError):
            LpProblem(c=[np.inf])
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], lower=[1.0], upper=[0.0])
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], lower=[-np.inf], upper=[1.0])

    @pytest.mark.parametrize("a_ub, b_ub", [([[np.nan]], [1.0]),
                                            ([[1.0]], [np.inf])])
    def test_non_finite_constraint_refused(self, a_ub, b_ub):
        with pytest.raises(ValueError, match=r"^constraint coefficients must "
                                             r"be finite$"):
            LpProblem(c=[1.0], a_ub=a_ub, b_ub=b_ub, upper=[1.0])

    @pytest.mark.parametrize("bounds", [dict(upper=[1.0]),
                                        dict(lower=[0.0], upper=[1.0, 1.0])])
    def test_bound_length_refused(self, bounds):
        with pytest.raises(ValueError, match=r"^bound arrays must match the "
                                             r"variable count$"):
            LpProblem(c=[1.0, 1.0], **bounds)

    def test_infinite_upper_bound_refused(self):
        with pytest.raises(ValueError, match=r"upper bound 1 is inf"):
            LpProblem(c=[1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, np.inf])
        with pytest.raises(ValueError, match="upper bounds are required"):
            LpProblem(c=[1.0])


class TestDeterminism:
    def test_identical_solutions(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 5))
        prob_args = dict(c=rng.normal(size=5), a_ub=a, b_ub=rng.normal(size=8) + 2,
                         lower=np.zeros(5), upper=np.ones(5))
        s1 = solve_lp(LpProblem(**prob_args))
        s2 = solve_lp(LpProblem(**prob_args))
        assert s1.status is s2.status
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective


class TestAgainstReferenceSolver:
    def _compare(self, prob: LpProblem, ref):
        sol = solve_lp(prob)
        if ref.status == 0:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6 * (1 + abs(ref.fun)))
            assert sol.max_violation <= FEAS_TOL
        elif ref.status == 2:
            assert sol.status is LpStatus.INFEASIBLE

    def test_degenerate_instances(self):
        """Zero rows, ties and degenerate vertices: the wrapper's status,
        objective and certificate against linprog(method="highs")."""
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(2, 14))
            a = rng.normal(size=(m, n))
            a[rng.random(m) < 0.3] = 0.0
            b = a @ rng.uniform(0, 1, size=n)
            c = rng.normal(size=n)
            prob = LpProblem(c, a_ub=a, b_ub=b, lower=np.zeros(n), upper=np.ones(n))
            ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, 1)] * n, method="highs")
            self._compare(prob, ref)

    def test_range_constraint_shape(self):
        """Two-sided activation windows, the shape the optimizer produces."""
        rng = np.random.default_rng(2)
        for _ in range(30):
            i_dim = int(rng.integers(2, 20))
            d = int(rng.integers(2, 30))
            signs = np.where(rng.random(i_dim) < 0.5, 1.0, -1.0)
            rows = rng.uniform(-1, 1, size=(d, i_dim)) + 1.0
            act = rows @ (signs * rng.uniform(0, 1, size=i_dim))
            u = act + rng.uniform(0.01, 0.3, size=d)
            v = act - rng.uniform(0.01, 0.3, size=d)
            prob = LpProblem(-signs, a_ub=np.vstack([rows, -rows]),
                             b_ub=np.concatenate([u, -v]),
                             lower=np.where(signs > 0, 0.0, -1.0),
                             upper=np.where(signs > 0, 1.0, 0.0))
            ref = linprog(-signs, A_ub=np.vstack([rows, -rows]),
                          b_ub=np.concatenate([u, -v]),
                          bounds=list(zip(prob.lower, prob.upper)), method="highs")
            self._compare(prob, ref)


def band_lp(fan_in, samples, rng):
    """A synthetic per-neuron approximation LP: each weight's sign is fixed,
    u_i = |w_i| lies in [0, 1], and every sample keeps its signed sum of
    u_i * (x_i + 1) inside a band around a planted feasible point, as two
    rows.  The objective is sum(1 - u_i), up to the constant fan_in."""
    signs = np.where(rng.random(fan_in) < 0.5, 1.0, -1.0)
    rows = (rng.uniform(-1, 1, size=(samples, fan_in)) + 1.0) * signs
    planted = rng.uniform(0, 1, size=fan_in)
    act = rows @ planted
    hi = act + rng.uniform(0.01, 0.3, size=samples)
    lo = act - rng.uniform(0.01, 0.3, size=samples)
    return planted, LpProblem(-np.ones(fan_in), a_ub=np.vstack([rows, -rows]),
                              b_ub=np.concatenate([hi, -lo]),
                              lower=np.zeros(fan_in), upper=np.ones(fan_in))


class TestApproximationShape:
    @staticmethod
    def weight_bands(n, rng):
        """Rows l_i <= u_i <= h_i, some h_i above the box's top of 1."""
        low = rng.uniform(0.0, 0.4, size=n)
        high = rng.uniform(0.5, 1.5, size=n)
        return (low, high, np.vstack([np.eye(n), -np.eye(n)]),
                np.concatenate([high, -low]))

    def test_per_weight_bands_closed_form(self):
        """Maximising sum(u) band by band puts each u_i at min(1, h_i)."""
        n = 12
        _, high, a, b = self.weight_bands(n, np.random.default_rng(5))
        sol = solve_lp(LpProblem(-np.ones(n), a_ub=a, b_ub=b,
                                 lower=np.zeros(n), upper=np.ones(n)))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x == pytest.approx(np.minimum(1.0, high), abs=1e-9)
        assert sol.max_violation <= FEAS_TOL

    def test_coupled_row_closed_form(self):
        """One row sum(u) <= B < n on top of the bands: sum(1 - u) = n - B."""
        n = 12
        low, high, a, b = self.weight_bands(n, np.random.default_rng(6))
        budget = 0.5 * (low.sum() + np.minimum(1.0, high).sum())
        assert budget < n
        sol = solve_lp(LpProblem(-np.ones(n), a_ub=np.vstack([a, np.ones(n)]),
                                 b_ub=np.append(b, budget),
                                 lower=np.zeros(n), upper=np.ones(n)))
        assert sol.status is LpStatus.OPTIMAL
        assert np.sum(1.0 - sol.x) == pytest.approx(n - budget, abs=1e-9)
        assert sol.max_violation <= FEAS_TOL

    def test_mnist_neuron_band_lp(self):
        """One 196-input neuron with 1000 samples, the paper's MNIST shape."""
        planted, prob = band_lp(196, 1000, np.random.default_rng(7))
        sol = solve_lp(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.max_violation <= FEAS_TOL
        assert sol.objective <= prob.c @ planted + 1e-9
