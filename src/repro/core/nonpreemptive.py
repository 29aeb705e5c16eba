"""Blocking-aware HYDRA for non-preemptive security tasks (§V).

The plain HYDRA allocation is unsound when security tasks execute
non-preemptively: the extension ablation shows real-time tasks missing
thousands of deadlines from blocking.  This allocator restores the
"never perturb the real-time tasks" contract:

* a core is only a candidate for a security task if every real-time
  task on it remains schedulable under a blocking term equal to the
  *largest* non-preemptive security WCET that would then live there
  (:mod:`repro.analysis.blocking`);
* among the surviving cores, the usual Eq. (7) period adaptation and
  argmax-tightness rule apply unchanged.

The per-core blocking budget is precomputed once
(:func:`repro.analysis.blocking.max_tolerable_blocking`), so the filter
is a constant-time comparison per (task, core).
"""

from __future__ import annotations

from repro.analysis.blocking import max_tolerable_blocking
from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.allocator import Allocator
from repro.core.hydra import period_solver
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.opt.period import PeriodSolution

__all__ = ["NonPreemptiveHydraAllocator"]


class NonPreemptiveHydraAllocator(Allocator):
    """HYDRA variant that keeps real-time tasks safe under
    non-preemptive security execution."""

    name = "hydra[np]"

    def __init__(self, solver: str = "closed-form") -> None:
        self._solve = period_solver(solver)
        self.solver_name = solver

    def allocate(self, system: SystemModel) -> Allocation:
        budgets = {
            core: max_tolerable_blocking(system.rt_partition.tasks_on(core))
            for core in system.platform
        }
        envs = {
            core: InterferenceEnv.on_core(system.rt_partition.tasks_on(core))
            for core in system.platform
        }
        assignments: list[SecurityAssignment] = []

        for task in security_priority_order(system.security_tasks):
            best_core: int | None = None
            best: PeriodSolution | None = None
            for core in system.platform:
                if task.wcet > budgets[core] + 1e-12:
                    continue  # would block some RT task past its deadline
                candidate = self._solve(task, envs[core])
                if candidate is None:
                    continue
                if best is None or candidate.tightness > best.tightness + 1e-12:
                    best, best_core = candidate, core
            if best is None or best_core is None:
                return Allocation(
                    scheme=self.name,
                    schedulable=False,
                    failed_task=task.name,
                )
            envs[best_core] = envs[best_core].extended(
                [Interferer.from_security(task, best.period)]
            )
            assignments.append(
                SecurityAssignment(task=task, core=best_core,
                                   period=best.period)
            )

        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=tuple(assignments),
            info={
                "solver": self.solver_name,
                "blocking_budgets": dict(budgets),
            },
        )
