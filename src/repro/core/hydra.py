"""HYDRA — the paper's Algorithm 1, and the one greedy walk behind
every core-by-core allocator.

Iterate over the security tasks from highest to lowest priority; for the
current task, solve the period-adaptation problem of Eq. (7) on *every*
core against that core's real-time tasks plus the higher-priority
security tasks already committed there; assign the task to the core with
the maximum achievable tightness (``argmax η``, ties broken towards the
lowest core index for determinism) and freeze its period.  If no core is
feasible, the whole task set is declared unschedulable — the algorithm
does not backtrack.

Every other greedy allocator is this walk with one of two hooks
swapped: which cores a task may probe (``_cores``: every core here,
those whose blocking budget admits the task for ``hydra[np]``, the
dedicated core for ``singlecore``) and which feasible candidate wins
(a :data:`CoreRule`: :func:`argmax_tightness` here; the first for
``first-feasible``, the slackiest for ``slackiest-core``, and the four
bin-packing keys of :mod:`repro.allocators.binpack`).

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

import math
from typing import Callable, Iterable

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.allocator import Allocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.model.task import SecurityTask
from repro.opt.period import PeriodSolution, adapt_period, adapt_period_exact
from repro.opt.period_gp import adapt_period_gp

__all__ = ["HydraAllocator", "PERIOD_SOLVERS", "argmax_tightness", "period_solver"]

PeriodSolver = Callable[[SecurityTask, InterferenceEnv], PeriodSolution | None]
#: A feasible probe of the current task: ``(core, solution, env)``,
#: ``env`` being the core's interference before the task is placed.
Candidate = tuple[int, PeriodSolution, InterferenceEnv]
#: Picks the winner among a task's candidates (never empty, in core
#: order) given the placements made so far; ``None`` fails the task.
CoreRule = Callable[[list[Candidate], list[SecurityAssignment]], "Candidate | None"]

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


def argmax_tightness(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate:
    """HYDRA's rule: the best tightness, ties to the lowest core."""
    best = candidates[0]
    for candidate in candidates:
        if candidate[1].tightness > best[1].tightness + 1e-12:
            best = candidate
    return best


class HydraAllocator(Allocator):
    """The HYDRA design-space exploration algorithm (Algorithm 1)."""

    name = "hydra"
    #: Which feasible candidate wins (a :data:`CoreRule`).
    _choose = staticmethod(argmax_tightness)

    def __init__(self, solver: str = "closed-form") -> None:
        self._solve = period_solver(solver)
        self.solver_name = solver
        if solver != "closed-form":
            self.name = f"hydra[{solver}]"

    def _cores(self, system: SystemModel) -> dict[int, float]:
        """The cores a task may probe, each with the largest security
        WCET it admits: here every core, without a limit."""
        return dict.fromkeys(system.platform, math.inf)

    def _info(self, cores: dict[int, float]) -> dict[str, object]:
        """The ``info`` of a schedulable allocation."""
        return {"solver": self.solver_name}

    def allocate(self, system: SystemModel) -> Allocation:
        order = security_priority_order(system.security_tasks)
        return self._walk(system, order)[0]

    def _walk(
        self, system: SystemModel, tasks: Iterable[SecurityTask]
    ) -> tuple[Allocation, dict[int, InterferenceEnv]]:
        """Place ``tasks`` (in priority order) one by one; return the
        allocation and each core's interference where the walk ended:
        its real-time tasks plus the security tasks committed there."""
        cores = self._cores(system)
        envs = {
            core: InterferenceEnv.on_core(system.rt_partition.tasks_on(core))
            for core in cores
        }
        placed: list[SecurityAssignment] = []
        for task in tasks:
            candidates = []
            for core, budget in cores.items():
                if task.wcet > budget + 1e-12:
                    continue  # the core cannot host this WCET
                env = envs[core]
                solution = self._solve(task, env)
                if solution is not None:
                    candidates.append((core, solution, env))
            choice = self._choose(candidates, placed) if candidates else None
            if choice is None:
                # Algorithm 1 line 9: no suitable period on any core.
                failed = Allocation(
                    scheme=self.name, schedulable=False, failed_task=task.name
                )
                return failed, envs
            core, solution, env = choice
            envs[core] = env.extended(
                [Interferer.from_security(task, solution.period)]
            )
            placed.append(
                SecurityAssignment(task=task, core=core, period=solution.period)
            )
        allocation = Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=tuple(placed),
            info=self._info(cores),
        )
        return allocation, envs
