"""Designer feedback for unschedulable systems.

Algorithm 1 returns *Unschedulable* when some security task fits no
core, and the paper notes that "this unschedulability result will
provide hints to the designers to update the parameters of security
tasks (and/or the real-time tasks, if possible)".  This module turns
that remark into an API: :func:`diagnose` runs HYDRA's walk up to the
failure point and computes, per remedy, the smallest parameter change
that would let the failing task through:

* **stretch-period-max** — the smallest ``T_max`` under which some core
  accepts the task (with the higher-priority placements HYDRA already
  made);
* **reduce-wcet** — the largest WCET the task could have and still fit
  its current ``T_max`` on the best core;
* **add-core** — whether one extra (empty) core would make the whole
  system schedulable;
* **shed-utilization** — the interferer utilisation the friendliest
  core would need to shed for the task to fit at ``T_max``.

:func:`max_security_scale` answers the dual sizing question — the
largest uniform security-WCET scaling a system tolerates — by bisecting
the allocator's verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.analysis.interference import InterferenceEnv
from repro.core.allocator import Allocator
from repro.core.hydra import HydraAllocator
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.model.task import SecurityTask
from repro.model.transform import (
    scale_security_wcets,
    with_extra_cores,
    with_period_max,
)

__all__ = ["DesignHint", "DesignReport", "diagnose", "max_security_scale"]


@dataclass(frozen=True)
class DesignHint:
    """One actionable remedy for an unschedulable system."""

    kind: str  # stretch-period-max | reduce-wcet | add-core | shed-utilization
    task: str | None
    current: float
    required: float
    description: str


@dataclass(frozen=True)
class DesignReport:
    """Outcome of :func:`diagnose`."""

    schedulable: bool
    failed_task: str | None = None
    hints: tuple[DesignHint, ...] = ()
    #: Interference environment per core at the failure point
    #: (diagnostic detail: (K', U) pairs).
    core_state: dict = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable report."""
        if self.schedulable:
            return "System is schedulable; no design changes needed."
        lines = [f"Unschedulable at security task {self.failed_task!r}."]
        if not self.hints:
            lines.append("No single-parameter remedy found.")
        for hint in self.hints:
            lines.append(f"  - {hint.description}")
        return "\n".join(lines)


def _failure_environments(
    system: SystemModel, failed: SecurityTask
) -> dict[int, InterferenceEnv]:
    """Each core's interference environment when HYDRA's walk reaches
    ``failed`` (or an earlier task no core takes, whose environments
    still describe the failure point faithfully)."""
    earlier = itertools.takewhile(
        lambda task: task.name != failed.name,
        security_priority_order(system.security_tasks),
    )
    return HydraAllocator()._walk(system, earlier)[1]


def diagnose(
    system: SystemModel, allocator: Allocator | None = None
) -> DesignReport:
    """Explain an unschedulable system and propose minimal remedies.

    Uses HYDRA by default; any allocator exposing the standard
    interface works for the schedulable/failed-task verdict (the remedy
    arithmetic always follows HYDRA's greedy semantics, which is what
    Algorithm 1's failure means).
    """
    allocator = allocator or HydraAllocator()
    allocation = allocator.allocate(system)
    if allocation.schedulable:
        return DesignReport(schedulable=True)

    failed_name = allocation.failed_task
    failed = system.security_tasks[failed_name]
    environments = _failure_environments(system, failed)
    hints: list[DesignHint] = []

    # Remedy 1: stretch T_max to the smallest feasible period anywhere.
    # Security priority is T_max-ascending, so the stretch itself can
    # demote the task past peers whose T_max lies inside the stretch —
    # those peers then place *before* it and eat the capacity the first
    # estimate assumed was free.  Iterate to a fixed point: recompute
    # the requirement with the task at the priority position its new
    # T_max implies, until the estimate stops moving (each round can
    # only demote further, so at most one round per security task).
    def _requirement(envs) -> float:
        return min(
            (
                max(
                    failed.period_des,
                    (failed.wcet + env.total_wcet)
                    / (1.0 - env.utilization),
                )
                for env in envs.values()
                if env.utilization < 1.0
            ),
            default=math.inf,
        )

    best_period = _requirement(environments)
    for _ in range(len(system.security_tasks)):
        if not math.isfinite(best_period):
            break
        stretched = with_period_max(system, failed.name, best_period)
        stretched_requirement = _requirement(
            _failure_environments(
                stretched, stretched.security_tasks[failed.name]
            )
        )
        if stretched_requirement <= best_period * (1.0 + 1e-12):
            break
        best_period = stretched_requirement
    if math.isfinite(best_period):
        hints.append(
            DesignHint(
                kind="stretch-period-max",
                task=failed.name,
                current=failed.period_max,
                required=best_period,
                description=(
                    f"raise T_max of {failed.name!r} from "
                    f"{failed.period_max:.1f} to ≥ {best_period:.1f} "
                    f"(monitoring tightness would drop to "
                    f"{failed.period_des / best_period:.3f})"
                ),
            )
        )

    # Remedy 2: shrink the task's WCET until its current T_max works on
    # the friendliest core: C ≤ (1−U)·T_max − K'.
    best_wcet = max(
        (
            (1.0 - env.utilization) * failed.period_max - env.total_wcet
            for env in environments.values()
            if env.utilization < 1.0
        ),
        default=-math.inf,
    )
    if best_wcet > 0.0 and best_wcet < failed.wcet:
        hints.append(
            DesignHint(
                kind="reduce-wcet",
                task=failed.name,
                current=failed.wcet,
                required=best_wcet,
                description=(
                    f"reduce the WCET of {failed.name!r} from "
                    f"{failed.wcet:.1f} to ≤ {best_wcet:.1f} "
                    f"(e.g. split the check or sample fewer objects)"
                ),
            )
        )

    # Remedy 3: an additional core.
    extra = allocator.allocate(with_extra_cores(system))
    if extra.schedulable:
        hints.append(
            DesignHint(
                kind="add-core",
                task=None,
                current=float(system.platform.num_cores),
                required=float(system.platform.num_cores + 1),
                description=(
                    f"one additional core makes the whole system "
                    f"schedulable ({system.platform.num_cores} → "
                    f"{system.platform.num_cores + 1} cores)"
                ),
            )
        )

    # Remedy 4: utilisation the friendliest core must shed so the task
    # fits at T_max: need U ≤ 1 − (C + K')/T_max.
    shed_candidates = []
    for env in environments.values():
        target = 1.0 - (failed.wcet + env.total_wcet) / failed.period_max
        if target >= 0.0:
            shed_candidates.append(env.utilization - target)
    if shed_candidates:
        shed = min(shed_candidates)
        if shed > 0.0:
            hints.append(
                DesignHint(
                    kind="shed-utilization",
                    task=failed.name,
                    current=shed,
                    required=0.0,
                    description=(
                        f"free ≥ {shed:.3f} utilisation on the least-"
                        f"loaded core (move or slow a real-time or "
                        f"higher-priority security task)"
                    ),
                )
            )

    return DesignReport(
        schedulable=False,
        failed_task=failed.name,
        hints=tuple(hints),
        core_state={
            core: (env.total_wcet, env.utilization)
            for core, env in environments.items()
        },
    )


def max_security_scale(
    system: SystemModel,
    allocator: Allocator | None = None,
    tolerance: float = 1e-3,
    upper: float = 64.0,
) -> float:
    """Largest uniform security-WCET scaling the system tolerates.

    The sizing counterpart of classic breakdown utilisation: bisects the
    allocator's schedulable/unschedulable verdict over a multiplicative
    factor applied to every security WCET.  Returns 0 when even a
    vanishing security load fails, and ``upper`` when the search cap is
    schedulable.
    """
    allocator = allocator or HydraAllocator()

    def scaled_ok(scale: float) -> bool:
        from repro.errors import ValidationError

        try:
            candidate = scale_security_wcets(system, scale)
        except ValidationError:
            return False  # scaling pushed some WCET past its T_des
        return allocator.allocate(candidate).schedulable

    if not scaled_ok(tolerance):
        return 0.0
    if scaled_ok(upper):
        return upper
    low, high = tolerance, upper
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if scaled_ok(mid):
            low = mid
        else:
            high = mid
    return low
