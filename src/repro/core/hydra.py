"""HYDRA — the paper's Algorithm 1.

Iterate over the security tasks from highest to lowest priority; for the
current task, solve the period-adaptation problem of Eq. (7) on *every*
core against that core's real-time tasks plus the higher-priority
security tasks already committed there; assign the task to the core with
the maximum achievable tightness (``argmax η``, ties broken towards the
lowest core index for determinism) and freeze its period.  If no core is
feasible, the whole task set is declared unschedulable — the algorithm
does not backtrack.

Each core's interference environment (:class:`InterferenceEnv`) is
built once from its real-time tasks and extended by one interferer
whenever a security task is committed there, so a (task, core) probe
costs one solve and no rebuild.  ``extended`` re-sums the same
interferers in the same order, so the probes see the very floats a
per-probe rebuild would.

The inner solve is pluggable:

* ``"closed-form"`` (default) — the analytical optimum of Eq. (7).
* ``"gp"`` — the paper's geometric-program route through
  :mod:`repro.opt.gp` (same optimum, exercises the interior-point path).
* ``"exact-rta"`` — exact response-time analysis instead of the
  linearised Eq. (5) (extension; strictly more permissive).
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.allocator import Allocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.model.task import SecurityTask
from repro.opt.period import PeriodSolution, adapt_period, adapt_period_exact
from repro.opt.period_gp import adapt_period_gp

__all__ = ["HydraAllocator", "PERIOD_SOLVERS", "period_solver"]

PeriodSolver = Callable[[SecurityTask, InterferenceEnv], PeriodSolution | None]

#: Available inner period solvers, name → callable.
PERIOD_SOLVERS: dict[str, PeriodSolver] = {
    "closed-form": adapt_period,
    "gp": adapt_period_gp,
    "exact-rta": adapt_period_exact,
}


def period_solver(name: str) -> PeriodSolver:
    """The :data:`PERIOD_SOLVERS` entry ``name``.

    Raises :class:`~repro.errors.ConfigError` listing the known solvers.
    """
    try:
        return PERIOD_SOLVERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown period solver {name!r}; expected one of "
            f"{sorted(PERIOD_SOLVERS)}"
        ) from None


class HydraAllocator(Allocator):
    """The HYDRA design-space exploration algorithm (Algorithm 1)."""

    name = "hydra"

    def __init__(self, solver: str = "closed-form") -> None:
        self._solve = period_solver(solver)
        self.solver_name = solver
        if solver != "closed-form":
            self.name = f"hydra[{solver}]"

    def allocate(self, system: SystemModel) -> Allocation:
        ordered = security_priority_order(system.security_tasks)
        # Interference per core: its real-time tasks plus the security
        # tasks already committed there, with frozen periods.
        envs = {
            core: InterferenceEnv.on_core(system.rt_partition.tasks_on(core))
            for core in system.platform
        }
        assignments: list[SecurityAssignment] = []

        for task in ordered:
            best_core: int | None = None
            best: PeriodSolution | None = None
            for core in system.platform:
                candidate = self._solve(task, envs[core])
                if candidate is None:
                    continue
                if best is None or candidate.tightness > best.tightness + 1e-12:
                    best, best_core = candidate, core
            if best is None or best_core is None:
                # Algorithm 1 line 9: no suitable period on any core.
                return Allocation(
                    scheme=self.name,
                    schedulable=False,
                    failed_task=task.name,
                )
            envs[best_core] = envs[best_core].extended(
                [Interferer.from_security(task, best.period)]
            )
            assignments.append(
                SecurityAssignment(
                    task=task, core=best_core, period=best.period
                )
            )

        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=tuple(assignments),
            info={"solver": self.solver_name},
        )
