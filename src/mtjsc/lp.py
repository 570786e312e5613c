"""Dense two-phase simplex solver for box-constrained linear programs.

Solves   min c'x   s.t.   A_ub x <= b_ub,  A_eq x = b_eq,  lower <= x <= upper.

Upper bounds may be infinite; lower bounds must be finite.  Bounds are
handled implicitly by the bounded-variable pivot rules rather than as
constraint rows, which keeps the tableau at one row per constraint.
Entering variables are chosen by largest reduced-cost violation, falling
back to Bland's least-index rule after a run of degenerate pivots so the
method cannot cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
COST_TOL = 1e-9
FEAS_TOL = 1e-7
_BLAND_AFTER = 40  # consecutive degenerate pivots before switching rules


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LpProblem:
    """min c'x subject to inequality rows, equality rows and variable boxes."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective coefficients must be finite")
        self.a_ub, self.b_ub = self._rows(self.a_ub, self.b_ub, n)
        self.a_eq, self.b_eq = self._rows(self.a_eq, self.b_eq, n)
        self.lower = (np.zeros(n) if self.lower is None
                      else np.asarray(self.lower, dtype=float))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound arrays must match the variable count")
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.upper < self.lower):
            raise ValueError("upper bounds must be >= lower bounds")

    @staticmethod
    def _rows(a, b, n):
        if a is None or len(a) == 0:
            return np.zeros((0, n)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.size, n):
            raise ValueError(f"constraint shape mismatch: {a.shape} vs b {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("constraint coefficients must be finite")
        return a, b

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float
    max_violation: float
    iterations: int = 0


class _Tableau:
    """Bounded-variable simplex state: T = B^-1 A for all columns."""

    def __init__(self, a: np.ndarray, rhs: np.ndarray, ub: np.ndarray,
                 basis: list[int]):
        self.t = a
        self.rhs = rhs
        self.ub = ub                       # per-variable upper bound (lower is 0)
        self.basis = np.asarray(basis, dtype=np.int64)
        self.at_upper = np.zeros(a.shape[1], dtype=bool)
        self.iterations = 0

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost.copy()
        for r, j in enumerate(self.basis):
            cj = cost[j]
            if cj != 0.0:
                z -= cj * self.t[r]
        return z

    def _entering(self, z: np.ndarray, allowed: np.ndarray, bland: bool):
        basic = np.zeros(z.size, dtype=bool)
        basic[self.basis] = True
        viol = np.where(self.at_upper, z, -z)
        viol[basic | ~allowed] = -np.inf
        if bland:
            idx = np.nonzero(viol > COST_TOL)[0]
            return int(idx[0]) if idx.size else -1
        j = int(np.argmax(viol))
        return j if viol[j] > COST_TOL else -1

    def _ratio_test(self, j: int):
        """Max step for the entering variable and the limiting row."""
        direction = -1.0 if self.at_upper[j] else 1.0
        coeff = direction * self.t[:, j]
        limits = np.full(coeff.size, np.inf)
        pos = coeff > PIVOT_TOL
        if np.any(pos):
            limits[pos] = self.rhs[pos] / coeff[pos]
        neg = coeff < -PIVOT_TOL
        if np.any(neg):
            ub_basic = self.ub[self.basis[neg]]
            bounded = np.isfinite(ub_basic)
            rows = np.nonzero(neg)[0][bounded]
            limits[rows] = (ub_basic[bounded] - self.rhs[rows]) / (-coeff[rows])
        flip_t = self.ub[j]               # moving all the way to the other bound
        row_min = limits.min(initial=np.inf)
        best_t = min(flip_t, row_min)
        if not np.isfinite(best_t) or flip_t <= row_min + 1e-12:
            return direction, best_t, -1
        ties = np.nonzero(limits <= row_min + 1e-12)[0]
        best_row = int(ties[np.argmin(self.basis[ties])])
        return direction, max(row_min, 0.0), best_row

    def step(self, z: np.ndarray, allowed: np.ndarray, bland: bool):
        """One simplex step; returns 'optimal', 'unbounded' or 'pivot'."""
        j = self._entering(z, allowed, bland)
        if j < 0:
            return "optimal", 0.0
        direction, t_star, row = self._ratio_test(j)
        if not np.isfinite(t_star):
            return "unbounded", 0.0
        t_star = max(t_star, 0.0)
        if row < 0:
            # bound flip: the entering variable crosses to its other bound
            self.rhs -= direction * t_star * self.t[:, j]
            self.at_upper[j] = ~self.at_upper[j]
            self.iterations += 1
            return "pivot", t_star
        leaving = self.basis[row]
        coeff = direction * self.t[row, j]
        # leaving variable lands on the bound the step pushed it towards
        self.at_upper[leaving] = coeff < 0
        self.rhs -= direction * t_star * self.t[:, j]
        self.rhs[row] = t_star if direction > 0 else self.ub[j] - t_star
        piv = self.t[row, j]
        self.t[row] /= piv
        col = self.t[:, j].copy()
        col[row] = 0.0
        self.t -= np.outer(col, self.t[row])
        # eliminate the entering column from the cost row as well
        zj = z[j]
        if zj != 0.0:
            z -= zj * self.t[row]
            z[j] = 0.0
        if self.at_upper[j]:
            # entering came down from its upper bound; rhs stores the value
            self.at_upper[j] = False
        self.basis[row] = j
        self.iterations += 1
        return "pivot", t_star

    def run(self, cost: np.ndarray, allowed: np.ndarray, max_iter: int):
        degenerate = 0
        bland = False
        z = self.reduced_costs(cost)
        since_refresh = 0
        while self.iterations < max_iter:
            if since_refresh >= 200:
                z = self.reduced_costs(cost)
                since_refresh = 0
            outcome, t_star = self.step(z, allowed, bland)
            if outcome != "pivot":
                if since_refresh:
                    # confirm optimality/unboundedness on fresh reduced costs
                    z = self.reduced_costs(cost)
                    since_refresh = 0
                    outcome2, t_star = self.step(z, allowed, bland)
                    if outcome2 == "pivot":
                        since_refresh += 1
                        continue
                    outcome = outcome2
                return outcome
            since_refresh += 1
            if t_star <= 1e-12:
                degenerate += 1
                if degenerate >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate = 0
                bland = False
        return "iteration_limit"

    def values(self, n: int) -> np.ndarray:
        x = np.where(self.at_upper[:n], self.ub[:n], 0.0)
        x[~np.isfinite(x)] = 0.0
        for r, j in enumerate(self.basis):
            if j < n:
                x[j] = self.rhs[r]
        return x


def _max_violation(problem: LpProblem, x: np.ndarray) -> float:
    worst = 0.0
    if problem.a_ub.shape[0]:
        resid = problem.a_ub @ x - problem.b_ub
        worst = max(worst, float(np.max(resid / (1.0 + np.abs(problem.b_ub)))))
    if problem.a_eq.shape[0]:
        resid = np.abs(problem.a_eq @ x - problem.b_eq)
        worst = max(worst, float(np.max(resid / (1.0 + np.abs(problem.b_eq)))))
    worst = max(worst, float(np.max(problem.lower - x, initial=0.0)))
    finite = np.isfinite(problem.upper)
    if np.any(finite):
        worst = max(worst, float(np.max((x - problem.upper)[finite], initial=0.0)))
    return max(worst, 0.0)


def solve_lp(problem: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Two-phase bounded-variable simplex; deterministic given the problem."""
    n = problem.n_vars
    m_ub = problem.b_ub.size
    m_eq = problem.b_eq.size
    m = m_ub + m_eq
    if max_iter is None:
        max_iter = max(500, 50 * (m + n))

    # shift variables to start at zero: x = lower + z, 0 <= z <= span
    span = problem.upper - problem.lower
    a = np.zeros((m, n + m_ub))
    rhs = np.zeros(m)
    if m_ub:
        a[:m_ub, :n] = problem.a_ub
        a[:m_ub, n:n + m_ub] = np.eye(m_ub)
        rhs[:m_ub] = problem.b_ub - problem.a_ub @ problem.lower
    if m_eq:
        a[m_ub:, :n] = problem.a_eq
        rhs[m_ub:] = problem.b_eq - problem.a_eq @ problem.lower

    # orient rows so every artificial enters with +1 and rhs >= 0
    neg = rhs < 0
    a[neg] *= -1.0
    rhs[neg] *= -1.0

    # slack starts basic where it survived with +1 (non-negated ub rows)
    needs_artificial = np.ones(m, dtype=bool)
    basis = [-1] * m
    for i in range(m_ub):
        if not neg[i]:
            basis[i] = n + i
            needs_artificial[i] = False

    art_rows = np.nonzero(needs_artificial)[0]
    n_art = art_rows.size
    full = np.zeros((m, n + m_ub + n_art))
    full[:, :n + m_ub] = a
    for k, row in enumerate(art_rows):
        full[row, n + m_ub + k] = 1.0
        basis[row] = n + m_ub + k

    ub = np.concatenate([span, np.full(m_ub, np.inf), np.full(n_art, np.inf)])
    tab = _Tableau(full, rhs.copy(), ub, basis)
    n_total = full.shape[1]
    allowed = np.ones(n_total, dtype=bool)

    if n_art:
        phase1_cost = np.zeros(n_total)
        phase1_cost[n + m_ub:] = 1.0
        outcome = tab.run(phase1_cost, allowed, max_iter)
        if outcome == "iteration_limit":
            return LpSolution(LpStatus.ITERATION_LIMIT, None, np.nan, np.inf,
                              tab.iterations)
        art_value = sum(tab.rhs[r] for r, j in enumerate(tab.basis)
                        if j >= n + m_ub)
        if art_value > 1e-7:
            return LpSolution(LpStatus.INFEASIBLE, None, np.nan, np.inf,
                              tab.iterations)
        # pin artificials at zero and drive any basic ones out where possible
        tab.ub[n + m_ub:] = 0.0
        allowed[n + m_ub:] = False
        for r in range(m):
            if tab.basis[r] >= n + m_ub:
                pivots = np.nonzero(np.abs(tab.t[r, :n + m_ub]) > PIVOT_TOL)[0]
                if pivots.size:
                    j = int(pivots[0])
                    piv = tab.t[r, j]
                    tab.t[r] /= piv
                    col = tab.t[:, j].copy()
                    col[r] = 0.0
                    tab.t -= np.outer(col, tab.t[r])
                    tab.basis[r] = j
                # otherwise the row is redundant; the artificial stays pinned

    phase2_cost = np.zeros(n_total)
    phase2_cost[:n] = problem.c
    outcome = tab.run(phase2_cost, allowed, max_iter)
    if outcome == "iteration_limit":
        return LpSolution(LpStatus.ITERATION_LIMIT, None, np.nan, np.inf,
                          tab.iterations)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, -np.inf, np.inf,
                          tab.iterations)

    x = problem.lower + tab.values(n)
    x = np.clip(x, problem.lower, problem.upper)
    violation = _max_violation(problem, x)
    status = LpStatus.OPTIMAL if violation <= FEAS_TOL else LpStatus.ITERATION_LIMIT
    return LpSolution(status, x, float(problem.c @ x), violation, tab.iterations)
