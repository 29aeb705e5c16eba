"""Period-adapting allocator family (post-allocation tightening).

HYDRA freezes each security task's period the moment the task is
placed.  The sequel work on continuous security monitoring ("Period
Adaptation for Continuous Security Monitoring", arXiv:1911.11937) and
the Contego line (arXiv:1705.00138) instead treat the placement and the
periods as separable: once the task→core map is fixed, every core's
periods can be re-solved in priority order — with a tighter solver, or
against a *different* interference environment than the one the
placement assumed.

:class:`AdaptiveAllocator` wraps any registered inner allocator and
re-runs period adaptation per core on its (schedulable) output:

* with the ``"exact-rta"`` solver the pass replaces the linearised
  Eq. (5) periods with exact response-time optima — never looser,
  usually tighter (more frequent monitoring at the same placement);
* with ``mode_factor`` set (the Contego-style variant) each period must
  stay feasible both in the normal mode *and* in a simulated mode
  change where every real-time interferer's WCET is scaled by the
  factor — the final period is the looser of the two solves, so a mode
  switch cannot make an admitted security task unschedulable;
* with the default closed-form solver over a HYDRA inner the pass is a
  fixed point (HYDRA's periods are already Eq. (7)-optimal given the
  placement) — property-tested, and useful as a re-tightening pass for
  inners whose periods are not per-core optimal (e.g. bin-packers).

The pass is **per-core atomic**: if any task on a core cannot be
re-adapted (possible only for the mode-change variant or non-optimal
inners), that whole core reverts to the inner allocator's periods and
is reported in ``info["reverted_cores"]``.
"""

from __future__ import annotations

import math

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.allocator import Allocator
from repro.core.hydra import PERIOD_SOLVERS
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.system import SystemModel
from repro.model.task import SecurityTask

__all__ = ["AdaptiveAllocator"]

_TOL = 1e-9


class AdaptiveAllocator(Allocator):
    """Post-allocation per-core period tightening over an inner scheme."""

    def __init__(
        self,
        inner: str = "hydra",
        solver: str = "closed-form",
        mode_factor: float | None = None,
    ) -> None:
        if solver not in PERIOD_SOLVERS:
            raise ValueError(
                f"unknown period solver {solver!r}; expected one of "
                f"{sorted(PERIOD_SOLVERS)}"
            )
        if mode_factor is not None and mode_factor < 1.0:
            raise ValueError(
                f"mode_factor must be ≥ 1 (WCET inflation), got {mode_factor}"
            )
        self.inner = inner
        self.solver_name = solver
        self.mode_factor = mode_factor
        self._solve = PERIOD_SOLVERS[solver]
        name = "adaptive"
        if mode_factor is not None:
            name = "adaptive[contego]"
        elif solver != "closed-form":
            name = f"adaptive[{solver}]"
        if inner != "hydra":
            name = f"{name}@{inner}"
        self.name = name

    def _inner_allocator(self) -> Allocator:
        from repro.allocators.registry import get_allocator

        return get_allocator(self.inner)

    def _mode_env(
        self,
        system: SystemModel,
        core: int,
        placed: list[tuple[SecurityTask, float]],
    ) -> InterferenceEnv:
        """Interference on ``core`` during a mode change: real-time
        WCETs inflated by ``mode_factor``, security interferers at their
        already re-adapted periods."""
        assert self.mode_factor is not None
        interferers = [
            Interferer(task.wcet * self.mode_factor, task.period)
            for task in system.rt_partition.tasks_on(core)
        ]
        interferers.extend(
            Interferer.from_security(task, period) for task, period in placed
        )
        return InterferenceEnv(interferers)

    def allocate(self, system: SystemModel) -> Allocation:
        base = self._inner_allocator().allocate(system)
        if not base.schedulable:
            return Allocation(
                scheme=self.name,
                schedulable=False,
                failed_task=base.failed_task,
                info={"inner": base.scheme},
            )

        # Assignments arrive in security priority order; group them per
        # core preserving that order so each re-solve sees exactly the
        # higher-priority tasks committed to the same core.
        per_core: dict[int, list[SecurityAssignment]] = {}
        for assignment in base.assignments:
            per_core.setdefault(assignment.core, []).append(assignment)

        new_period: dict[str, float] = {}
        adapted_cores: list[int] = []
        reverted_cores: list[int] = []
        tightened = 0
        for core in sorted(per_core):
            assignments = per_core[core]
            rt_tasks = system.rt_partition.tasks_on(core)
            placed: list[tuple[SecurityTask, float]] = []
            feasible = True
            for assignment in assignments:
                task = assignment.task
                env = InterferenceEnv.on_core(rt_tasks, placed)
                solution = self._solve(task, env)
                if solution is None:
                    feasible = False
                    break
                period = solution.period
                if self.mode_factor is not None:
                    mode_solution = self._solve(
                        task, self._mode_env(system, core, placed)
                    )
                    if mode_solution is None:
                        feasible = False
                        break
                    # Feasible in both modes: take the looser period.
                    period = max(period, mode_solution.period)
                placed.append((task, period))
            if not feasible:
                reverted_cores.append(core)
                for assignment in assignments:
                    new_period[assignment.task.name] = assignment.period
                continue
            changed = False
            for assignment, (task, period) in zip(assignments, placed):
                new_period[task.name] = period
                if not math.isclose(
                    period, assignment.period, rel_tol=0.0, abs_tol=_TOL
                ):
                    changed = True
                if period < assignment.period - _TOL:
                    tightened += 1
            if changed:
                adapted_cores.append(core)

        assignments = tuple(
            SecurityAssignment(
                task=a.task, core=a.core, period=new_period[a.task.name]
            )
            for a in base.assignments
        )
        info: dict[str, object] = {
            "inner": base.scheme,
            "solver": self.solver_name,
            "adapted_cores": tuple(adapted_cores),
            "reverted_cores": tuple(reverted_cores),
            "tightened_tasks": tightened,
        }
        if self.mode_factor is not None:
            info["mode_factor"] = self.mode_factor
        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=assignments,
            info=info,
        )
