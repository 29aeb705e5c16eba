"""Bridge from the analytic world (system + allocation) to the simulator.

Builds :class:`~repro.sim.engine.SimTask` lists from a
:class:`~repro.model.system.SystemModel` and a schedulable
:class:`~repro.model.allocation.Allocation`, enforcing the paper's
priority structure: real-time tasks occupy the top priority band (RM
order), security tasks sit strictly below (ordered by ``T_max``), and
each security task runs at its *assigned* period.

Both entry points also accept the typed
:class:`~repro.model.allocation.AllocationResult` envelope the
allocator API (:func:`repro.allocators.run_allocator`) returns, so
detection-time simulation runs over *any* registered strategy without
unwrapping by hand.

:func:`simulate_allocation` runs the whole system through
:class:`~repro.sim.engine.Simulator` by default.  With
``security_only=True`` — what detection points use, since scoring reads
monitors only — it runs the security band instead
(:mod:`repro.sim.band`): each core's real-time busy periods are
computed once, and only the security jobs are stepped through, in the
idle time those periods leave.  That path is pinned to the per-core
kernel (same security jobs and misses, times bit for bit) and to exact
RTA at the critical instant.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.model.allocation import Allocation, AllocationResult
from repro.model.priority import rate_monotonic_order, security_priority_order
from repro.model.system import SystemModel
from repro.sim.band import simulate_security
from repro.sim.engine import SimResult, SimTask, Simulator

__all__ = ["build_sim_tasks", "simulate_allocation"]


def build_sim_tasks(
    system: SystemModel,
    allocation: Allocation | AllocationResult,
    security_mode: str = "partitioned",
    preemptible_security: bool = True,
    precedence: Mapping[str, Sequence[str]] | None = None,
    release_jitter: float = 0.0,
    execution_factor: float = 1.0,
) -> list[SimTask]:
    """Create the simulator task list for an allocated system.

    Parameters
    ----------
    system, allocation:
        The allocated system; ``allocation`` must be schedulable.  An
        :class:`~repro.model.allocation.AllocationResult` (from
        :func:`repro.allocators.run_allocator`) is accepted directly.
    security_mode:
        ``"partitioned"`` (paper) binds each security task to its
        allocated core; ``"global"`` (§V extension) lets security jobs
        migrate to any idle core while keeping the allocated periods.
    preemptible_security:
        ``False`` switches security tasks to non-preemptive execution
        (§V extension).
    precedence:
        Optional security-task precedence map
        (dependent → predecessors), e.g.
        :data:`repro.taskgen.security_apps.TRIPWIRE_PRECEDENCE`.
    release_jitter:
        Sporadic release slack as a fraction of each period (applied to
        every task).
    execution_factor:
        Lower bound of actual execution time as a fraction of the WCET
        (1.0 = always worst case, the analysis model).
    """
    if isinstance(allocation, AllocationResult):
        allocation = allocation.allocation
    if not allocation.schedulable:
        raise ValidationError(
            "cannot simulate an unschedulable allocation "
            f"(failed task: {allocation.failed_task!r})"
        )
    if security_mode not in ("partitioned", "global"):
        raise ValidationError(
            f"unknown security_mode {security_mode!r}; expected "
            f"'partitioned' or 'global'"
        )
    precedence = dict(precedence or {})
    security_names = set(system.security_tasks.names)
    for dependent, preds in precedence.items():
        unknown = ({dependent, *preds}) - security_names
        if unknown:
            raise ValidationError(
                f"precedence references unknown security task(s) "
                f"{sorted(unknown)!r}"
            )

    sim_tasks: list[SimTask] = []
    level = 0
    for task in rate_monotonic_order(system.rt_partition.tasks):
        sim_tasks.append(
            SimTask(
                name=task.name,
                wcet=task.wcet,
                period=task.period,
                deadline=task.deadline,
                priority=level,
                core=system.rt_partition.core_of(task),
                kind="rt",
                release_jitter=release_jitter,
                execution_factor=execution_factor,
            )
        )
        level += 1
    for task in security_priority_order(system.security_tasks):
        assigned = allocation.assignment_for(task)
        sim_tasks.append(
            SimTask(
                name=task.name,
                wcet=task.wcet,
                period=assigned.period,
                deadline=assigned.period,
                priority=level,
                core=None if security_mode == "global" else assigned.core,
                kind="security",
                surface=task.surface,
                preemptible=preemptible_security,
                predecessors=tuple(precedence.get(task.name, ())),
                release_jitter=release_jitter,
                execution_factor=execution_factor,
            )
        )
        level += 1
    return sim_tasks


def simulate_allocation(
    system: SystemModel,
    allocation: Allocation | AllocationResult,
    duration: float,
    rng: np.random.Generator | int | None = None,
    security_mode: str = "partitioned",
    preemptible_security: bool = True,
    precedence: Mapping[str, Sequence[str]] | None = None,
    release_jitter: float = 0.0,
    execution_factor: float = 1.0,
    collect_slices: bool = False,
    security_only: bool = False,
) -> SimResult:
    """Simulate an allocated system for ``duration`` time units.

    ``security_only=True`` simulates the security tasks alone, in the
    idle time the real-time band leaves on each core
    (:func:`repro.sim.band.simulate_security`): the result's jobs,
    misses and busy time cover the security tasks only, which is all a
    detection-time study reads.  It takes the paper's model only:
    :func:`~repro.sim.band.simulate_security` rejects the tasks that
    global mode or a §V extension argument builds, and no slices are
    recorded.
    """
    if security_only and collect_slices:
        raise ValidationError("security_only records no execution slices")
    tasks = build_sim_tasks(
        system,
        allocation,
        security_mode=security_mode,
        preemptible_security=preemptible_security,
        precedence=precedence,
        release_jitter=release_jitter,
        execution_factor=execution_factor,
    )
    num_cores = system.platform.num_cores
    if security_only:
        return simulate_security(tasks, num_cores, duration)
    simulator = Simulator(
        tasks,
        num_cores=num_cores,
        duration=duration,
        rng=rng,
        collect_slices=collect_slices,
    )
    return simulator.run()
