"""Branch-and-bound optimal assignment search (extension, DESIGN §7).

The exhaustive baseline solves an LP for each of the ``M^NS``
assignments.  This module finds the *same* optimum (asserted by tests)
while visiting far fewer nodes by branching on one security task at a
time, in priority order, and pruning with two sound rules:

* **Feasibility pruning.**  Adding tasks only adds interference terms, so
  an infeasible partial assignment (checked at the all-``T_max`` corner,
  see :func:`repro.opt.joint.assignment_feasible`) can never become
  feasible again — the subtree is dropped.
* **Bound pruning.**  The cumulative tightness of a completed assignment
  extending a partial one is at most the LP optimum of the *partial*
  assignment plus ``Σ ω`` of the still-unassigned tasks (each tightness
  is ≤ 1 and extra tasks only tighten existing constraints).  If that
  upper bound cannot beat the incumbent, the subtree is dropped.

Symmetric cores (identical real-time content) would allow further
pruning; it is deliberately not exploited so that the search remains
valid for arbitrary heterogeneous partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.model.task import SecurityTask, TaskSet
from repro.opt.exhaustive import OptimalSolution
from repro.opt.joint import (
    AssignmentSolution,
    assignment_feasible,
    solve_assignment_lp,
)

__all__ = ["branch_bound_optimal", "BnBStats"]


@dataclass
class BnBStats:
    """Search statistics for introspection and the ablation bench."""

    nodes: int = 0
    leaves_solved: int = 0
    pruned_infeasible: int = 0
    pruned_bound: int = 0


def _partial_system(system: SystemModel, tasks: list[SecurityTask]) -> SystemModel:
    """A copy of ``system`` restricted to the given security tasks."""
    return SystemModel(
        platform=system.platform,
        rt_partition=system.rt_partition,
        security_tasks=TaskSet(tasks),
        weights={
            t.name: system.weight_of(t) for t in tasks
        },
    )


def branch_bound_optimal(
    system: SystemModel,
) -> tuple[OptimalSolution | None, BnBStats]:
    """Tightness-optimal assignment via depth-first branch and bound.

    Returns the same optimum as :func:`repro.opt.exhaustive.exhaustive_optimal`
    (or ``None`` when nothing is feasible) together with search
    statistics.
    """
    ordered = security_priority_order(system.security_tasks)
    cores = list(system.platform.cores())
    stats = BnBStats()
    best: AssignmentSolution | None = None

    # Weight of the suffix starting at depth d: optimistic tightness mass
    # still obtainable from unassigned tasks.
    suffix_weight = [0.0] * (len(ordered) + 1)
    for depth in range(len(ordered) - 1, -1, -1):
        suffix_weight[depth] = (
            suffix_weight[depth + 1] + system.weight_of(ordered[depth])
        )

    def recurse(depth: int, assignment: dict[str, int]) -> None:
        nonlocal best
        stats.nodes += 1
        prefix_tasks = ordered[:depth]
        if depth > 0:
            partial = _partial_system(system, prefix_tasks)
            if not assignment_feasible(partial, assignment):
                stats.pruned_infeasible += 1
                return
            if best is not None:
                solved = solve_assignment_lp(partial, assignment)
                if solved is None:  # pragma: no cover - feasible ⇒ solvable
                    stats.pruned_infeasible += 1
                    return
                bound = solved.tightness + suffix_weight[depth]
                if bound <= best.tightness + 1e-12:
                    stats.pruned_bound += 1
                    return
        if depth == len(ordered):
            solution = solve_assignment_lp(system, assignment)
            stats.leaves_solved += 1
            if solution is not None and (
                best is None or solution.tightness > best.tightness + 1e-12
            ):
                best = solution
            return
        task = ordered[depth]
        for core in cores:
            assignment[task.name] = core
            recurse(depth + 1, assignment)
            del assignment[task.name]

    recurse(0, {})
    if best is None:
        return None, stats
    return (
        OptimalSolution(
            solution=best,
            explored=stats.leaves_solved,
            pruned=stats.pruned_infeasible + stats.pruned_bound,
        ),
        stats,
    )
