"""Ablation variants of HYDRA for the design-space exploration benches.

HYDRA makes two greedy choices per task: *which core* (argmax tightness)
and *which period* (minimum feasible).  Each variant perturbs exactly one
of those choices so the ablation benches can attribute HYDRA's behaviour:

* :class:`FirstFeasibleAllocator` — take the first feasible core instead
  of the tightness-maximising one (cheapest possible core choice).
* :class:`SlackiestCoreAllocator` — take the feasible core with the most
  remaining utilisation slack (a worst-fit flavour that spreads the
  security load).
* :class:`LpRefinedHydraAllocator` — keep HYDRA's assignment but re-solve
  all periods jointly with the LP, recovering tightness the sequential
  greedy gives away (upper-bounds what smarter period choices could buy
  *without* changing the assignment).
"""

from __future__ import annotations

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.allocator import Allocator
from repro.core.hydra import HydraAllocator, period_solver
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.opt.joint import solve_assignment_lp
from repro.opt.period import PeriodSolution

__all__ = [
    "FirstFeasibleAllocator",
    "SlackiestCoreAllocator",
    "LpRefinedHydraAllocator",
]


class _GreedyCoreAllocator(Allocator):
    """Shared HYDRA-style loop with a pluggable core-selection rule."""

    name = "greedy-base"

    def __init__(self, solver: str = "closed-form") -> None:
        self._solve = period_solver(solver)
        self.solver_name = solver

    def _choose(
        self,
        candidates: list[tuple[int, PeriodSolution, InterferenceEnv]],
    ) -> tuple[int, PeriodSolution] | None:
        """Pick ``(core, solution)`` from the non-empty feasible list —
        or ``None`` when the rule rejects every candidate (e.g. a
        next-fit pointer that never looks back)."""
        raise NotImplementedError

    def allocate(self, system: SystemModel) -> Allocation:
        envs = {
            core: InterferenceEnv.on_core(system.rt_partition.tasks_on(core))
            for core in system.platform
        }
        assignments: list[SecurityAssignment] = []
        for task in security_priority_order(system.security_tasks):
            candidates: list[tuple[int, PeriodSolution, InterferenceEnv]] = []
            for core in system.platform:
                env = envs[core]
                solution = self._solve(task, env)
                if solution is not None:
                    candidates.append((core, solution, env))
            if not candidates:
                return Allocation(
                    scheme=self.name, schedulable=False, failed_task=task.name
                )
            choice = self._choose(candidates)
            if choice is None:
                return Allocation(
                    scheme=self.name, schedulable=False, failed_task=task.name
                )
            core, solution = choice
            envs[core] = envs[core].extended(
                [Interferer.from_security(task, solution.period)]
            )
            assignments.append(
                SecurityAssignment(task=task, core=core, period=solution.period)
            )
        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=tuple(assignments),
            info={"solver": self.solver_name},
        )


class FirstFeasibleAllocator(_GreedyCoreAllocator):
    """Assign each security task to the lowest-indexed feasible core."""

    name = "first-feasible"

    def _choose(self, candidates):
        return candidates[0][0], candidates[0][1]


class SlackiestCoreAllocator(_GreedyCoreAllocator):
    """Assign each security task to the feasible core with the most
    remaining utilisation slack (worst-fit for security load)."""

    name = "slackiest-core"

    def _choose(self, candidates):
        def slack(entry) -> float:
            core, solution, env = entry
            # env.utilization already includes RT + placed security load.
            return 1.0 - env.utilization
        best = max(candidates, key=lambda e: (slack(e), -e[0]))
        return best[0], best[1]


class LpRefinedHydraAllocator(Allocator):
    """HYDRA's assignment + joint LP period refinement (extension).

    The greedy period choice is lexicographic: each task takes the
    smallest feasible period even when that starves lower-priority tasks.
    Re-solving the periods jointly (the assignment kept fixed) maximises
    the cumulative weighted tightness achievable for HYDRA's own
    assignment; by construction it is never worse.
    """

    name = "hydra+lp"

    def __init__(self, solver: str = "closed-form"):
        self._hydra = HydraAllocator(solver=solver)

    def allocate(self, system: SystemModel) -> Allocation:
        base = self._hydra.allocate(system)
        if not base.schedulable:
            return Allocation(
                scheme=self.name,
                schedulable=False,
                failed_task=base.failed_task,
            )
        refined = solve_assignment_lp(system, base.cores())
        if refined is None:  # pragma: no cover - feasible stays feasible
            return base
        assignments = tuple(
            SecurityAssignment(
                task=a.task, core=a.core, period=refined.periods[a.task.name]
            )
            for a in base.assignments
        )
        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=assignments,
            info={
                "greedy_tightness": base.cumulative_tightness(),
                "refined_tightness": refined.tightness,
            },
        )
