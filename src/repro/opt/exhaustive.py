"""Exhaustive search over all ``M^NS`` security-task assignments.

This is the paper's "optimal" baseline (Sec. IV-B.2, Fig. 3): enumerate
every task→core mapping, solve the joint period optimisation per
assignment (an LP — see :mod:`repro.opt.joint`), and keep the assignment
with the best cumulative weighted tightness.

Cost grows exponentially in the number of security tasks, which is the
paper's motivation for HYDRA; the reproduction keeps it practical with
the monotone feasibility pre-check and (optionally) the branch-and-bound
variant in :mod:`repro.opt.branch_bound`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.opt.joint import (
    AssignmentSolution,
    assignment_feasible,
    solve_assignment_lp,
)

__all__ = ["OptimalSolution", "exhaustive_optimal"]


@dataclass(frozen=True)
class OptimalSolution:
    """Best assignment found by an optimal search.

    Attributes
    ----------
    solution:
        The per-assignment optimum (assignment, periods, tightness).
    explored:
        Number of assignments fully solved (post-pruning).
    pruned:
        Number of assignments rejected by the fast feasibility check.
    """

    solution: AssignmentSolution
    explored: int
    pruned: int

    @property
    def tightness(self) -> float:
        return self.solution.tightness

    @property
    def assignment(self) -> dict[str, int]:
        return self.solution.assignment

    @property
    def periods(self) -> dict[str, float]:
        return self.solution.periods


def exhaustive_optimal(
    system: SystemModel,
    prune: bool = True,
) -> OptimalSolution | None:
    """Enumerate every assignment; return the tightness-optimal one.

    Returns ``None`` when no assignment is feasible (the task set is
    unschedulable even for the optimal allocator).  ``prune=False``
    disables the monotone feasibility pre-check (used by tests to verify
    the pruning is lossless).
    """
    ordered = security_priority_order(system.security_tasks)
    names = [task.name for task in ordered]
    cores = list(system.platform.cores())

    best: AssignmentSolution | None = None
    explored = 0
    pruned = 0
    for combo in itertools.product(cores, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if prune and not assignment_feasible(system, assignment):
            pruned += 1
            continue
        solution = solve_assignment_lp(system, assignment)
        if solution is None:
            continue
        explored += 1
        if best is None or solution.tightness > best.tightness + 1e-12:
            best = solution
    if best is None:
        return None
    return OptimalSolution(solution=best, explored=explored, pruned=pruned)
