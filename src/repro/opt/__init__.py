"""Optimisation substrate (paper Sec. III-A and Appendix).

* :mod:`repro.opt.period` — closed-form period adaptation (Eq. 7).
* :mod:`repro.opt.period_gp` — the same problem via the paper's GP route.
* :mod:`repro.opt.gp` — from-scratch geometric-program solver
  (log transform + interior point), replacing GPkit/CVXOPT.
* :mod:`repro.opt.lp` — from-scratch two-phase simplex LP solver.
* :mod:`repro.opt.joint` — joint per-assignment optimisation (exact LP)
  and the sequential greedy variant.
* :mod:`repro.opt.exhaustive` — the OPT baseline's ``M^NS`` enumeration.
* :mod:`repro.opt.branch_bound` — pruned optimal search (extension).
"""

from repro.opt.branch_bound import BnBStats, branch_bound_optimal
from repro.opt.exhaustive import OptimalSolution, exhaustive_optimal
from repro.opt.gp import GeometricProgram, GpResult, Monomial, Posynomial
from repro.opt.joint import (
    AssignmentSolution,
    assignment_feasible,
    solve_assignment_lp,
)
from repro.opt.lp import LpResult, solve_lp
from repro.opt.period import PeriodSolution, adapt_period, adapt_period_exact
from repro.opt.period_gp import adapt_period_gp, build_period_gp

__all__ = [
    "PeriodSolution",
    "adapt_period",
    "adapt_period_exact",
    "adapt_period_gp",
    "build_period_gp",
    "Monomial",
    "Posynomial",
    "GeometricProgram",
    "GpResult",
    "LpResult",
    "solve_lp",
    "AssignmentSolution",
    "assignment_feasible",
    "solve_assignment_lp",
    "OptimalSolution",
    "exhaustive_optimal",
    "BnBStats",
    "branch_bound_optimal",
]
