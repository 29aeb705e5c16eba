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
from repro.core.hydra import period_solver
from repro.errors import ValidationError
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.system import SystemModel
from repro.model.task import RealTimeTask

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
        self._solve = period_solver(solver)
        if mode_factor is not None and not (
            math.isfinite(mode_factor) and mode_factor >= 1.0
        ):
            raise ValidationError(
                f"mode_factor must be finite and ≥ 1 (WCET inflation), "
                f"got {mode_factor}"
            )
        self.inner = inner
        self.solver_name = solver
        self.mode_factor = mode_factor
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

    def _mode_env(self, rt_tasks: tuple[RealTimeTask, ...]) -> InterferenceEnv:
        """Interference of a core's real-time tasks during a mode
        change: their WCETs inflated by ``mode_factor``."""
        assert self.mode_factor is not None
        return InterferenceEnv(
            Interferer(task.wcet * self.mode_factor, task.period)
            for task in rt_tasks
        )

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
            # Interference in the normal mode (and, for the Contego
            # variant, in the mode change), extended by each security
            # task at its re-adapted period.
            env = InterferenceEnv.on_core(rt_tasks)
            mode_env = (
                self._mode_env(rt_tasks) if self.mode_factor is not None
                else None
            )
            periods: list[float] = []
            feasible = True
            for assignment in assignments:
                task = assignment.task
                solution = self._solve(task, env)
                if solution is None:
                    feasible = False
                    break
                period = solution.period
                if mode_env is not None:
                    mode_solution = self._solve(task, mode_env)
                    if mode_solution is None:
                        feasible = False
                        break
                    # Feasible in both modes: take the looser period.
                    period = max(period, mode_solution.period)
                    mode_env = mode_env.extended(
                        [Interferer.from_security(task, period)]
                    )
                env = env.extended([Interferer.from_security(task, period)])
                periods.append(period)
            if not feasible:
                reverted_cores.append(core)
                for assignment in assignments:
                    new_period[assignment.task.name] = assignment.period
                continue
            changed = False
            for assignment, period in zip(assignments, periods):
                new_period[assignment.task.name] = period
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
