"""Box-constrained linear programs, solved by HiGHS's dual simplex.

Solves   min c'x   s.t.   A_ub x <= b_ub,  lower <= x <= upper,

with every bound finite, which is the shape of the per-neuron weight
approximation.  The solver is scipy's HiGHS dual simplex (Huangfu and Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 10,
2018); it returns a vertex.  Every answer it calls optimal is checked
against the rows and the box here, and one that misses them by more than
FEAS_TOL is reported as ITERATION_LIMIT instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .sng import _is_seed

FEAS_TOL = 1e-7


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LpProblem:
    """min c'x subject to inequality rows and a finite variable box."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective coefficients must be finite")
        if self.a_ub is None or len(self.a_ub) == 0:
            self.a_ub, self.b_ub = np.zeros((0, n)), np.zeros(0)
        self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if self.a_ub.shape != (self.b_ub.size, n):
            raise ValueError(f"constraint shape mismatch: {self.a_ub.shape} "
                             f"vs b {self.b_ub.shape}")
        if not (np.all(np.isfinite(self.a_ub)) and np.all(np.isfinite(self.b_ub))):
            raise ValueError("constraint coefficients must be finite")
        if self.upper is None:
            raise ValueError("upper bounds are required: the box must be finite")
        self.lower = (np.zeros(n) if self.lower is None
                      else np.asarray(self.lower, dtype=float))
        self.upper = np.asarray(self.upper, dtype=float)
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if bound.shape != (n,):
                raise ValueError("bound arrays must match the variable count")
            bad = np.flatnonzero(~np.isfinite(bound))
            if bad.size:
                raise ValueError(f"{name} bound {bad[0]} is {bound[bad[0]]}; "
                                 "bounds must be finite")
        if np.any(self.upper < self.lower):
            raise ValueError("upper bounds must be >= lower bounds")


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float
    max_violation: float
    iterations: int = 0


def _max_violation(problem: LpProblem, x: np.ndarray) -> float:
    """Worst row excess at `x`, scaled by 1 + |b|; 0 if every row holds."""
    if not problem.b_ub.size:
        return 0.0
    resid = problem.a_ub @ x - problem.b_ub
    return max(float(np.max(resid / (1.0 + np.abs(problem.b_ub)))), 0.0)


def solve_lp(problem: LpProblem, max_iter: int | None = None) -> LpSolution:
    """HiGHS dual simplex, with at most `max_iter` iterations if given;
    deterministic given the problem."""
    if max_iter is not None and not _is_seed(max_iter):
        raise ValueError(f"max_iter must be None or an integer >= 0, "
                         f"got {max_iter!r}")
    res = linprog(problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                  bounds=np.column_stack([problem.lower, problem.upper]),
                  method="highs-ds", options={"maxiter": max_iter})
    iterations = int(res.nit)
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE, None, np.nan, np.inf, iterations)
    if res.status != 0:
        return LpSolution(LpStatus.ITERATION_LIMIT, None, np.nan, np.inf,
                          iterations)
    x = np.clip(res.x, problem.lower, problem.upper)   # the box holds exactly
    violation = _max_violation(problem, x)
    status = LpStatus.OPTIMAL if violation <= FEAS_TOL else LpStatus.ITERATION_LIMIT
    return LpSolution(status, x, float(problem.c @ x), violation, iterations)
