"""Independent verification of allocations.

Allocators are trusted nowhere in this package: this module re-derives,
from first principles, whether an :class:`~repro.model.allocation.Allocation`
is actually valid for a system — coverage, period bounds, and the
schedulability constraint (linearised Eq. (6) by default, exact RTA on
request) for every security task given everything above it on its core.
No production path calls it: it is the oracle the test suite pins every
registered allocator with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.blocking import rt_schedulable_with_blocking
from repro.analysis.interference import InterferenceEnv
from repro.analysis.rta import response_time
from repro.model.allocation import Allocation
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel

__all__ = ["Violation", "VerificationResult", "verify_allocation"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken requirement found by the verifier."""

    kind: str  # coverage | core | period-bounds | schedulability | blocking
    task: str | None
    detail: str


@dataclass(frozen=True)
class VerificationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        if self.ok:
            return "allocation verified: all constraints hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(
            f"  [{v.kind}] {v.task or '-'}: {v.detail}"
            for v in self.violations
        )
        return "\n".join(lines)


def verify_allocation(
    system: SystemModel,
    allocation: Allocation,
    exact: bool = False,
    non_preemptive: bool = False,
) -> VerificationResult:
    """Check every requirement the paper places on an allocation.

    Parameters
    ----------
    system, allocation:
        The system and the allocation to audit.
    exact:
        Verify schedulability with exact RTA instead of the (stricter)
        linearised Eq. (6).  An allocation valid under Eq. (6) is always
        valid under RTA, not vice versa.
    non_preemptive:
        Additionally require every core's real-time tasks to tolerate a
        blocking term equal to the largest security WCET placed there
        (the §V non-preemptive execution model).
    """
    violations: list[Violation] = []
    if not allocation.schedulable:
        violations.append(
            Violation(
                kind="coverage",
                task=allocation.failed_task,
                detail="allocation is marked unschedulable",
            )
        )
        return VerificationResult(tuple(violations))

    expected = set(system.security_tasks.names)
    actual = {a.task.name for a in allocation.assignments}
    for missing in sorted(expected - actual):
        violations.append(
            Violation(
                kind="coverage", task=missing,
                detail="security task has no assignment",
            )
        )
    for extra in sorted(actual - expected):
        violations.append(
            Violation(
                kind="coverage", task=extra,
                detail="assignment for a task not in the system",
            )
        )
    if len(allocation.assignments) != len(actual):
        violations.append(
            Violation(
                kind="coverage", task=None,
                detail="duplicate assignments present",
            )
        )

    for assignment in allocation.assignments:
        if assignment.core not in system.platform:
            violations.append(
                Violation(
                    kind="core",
                    task=assignment.task.name,
                    detail=f"core {assignment.core} does not exist",
                )
            )
        task = assignment.task
        if not (
            task.period_des - 1e-9
            <= assignment.period
            <= task.period_max + 1e-9
        ):
            violations.append(
                Violation(
                    kind="period-bounds",
                    task=task.name,
                    detail=(
                        f"period {assignment.period} outside "
                        f"[{task.period_des}, {task.period_max}]"
                    ),
                )
            )

    if violations:
        return VerificationResult(tuple(violations))

    # Schedulability per core, in security priority order.
    periods = allocation.periods()
    cores = allocation.cores()
    ordered = security_priority_order(system.security_tasks)
    for core in system.platform:
        rt_tasks = system.rt_partition.tasks_on(core)
        hp: list = []
        for task in ordered:
            if cores[task.name] != core:
                continue
            period = periods[task.name]
            env = InterferenceEnv.on_core(rt_tasks, hp)
            if exact:
                fine = (
                    response_time(task.wcet, env.interferers, limit=period)
                    <= period + 1e-6
                )
            else:
                fine = task.wcet + env.interference(period) <= period + 1e-6
            if not fine:
                violations.append(
                    Violation(
                        kind="schedulability",
                        task=task.name,
                        detail=(
                            f"misses its implicit deadline on core {core} "
                            f"at period {period:.3f}"
                        ),
                    )
                )
            hp.append((task, period))
        if non_preemptive:
            security_wcets = [
                a.task.wcet
                for a in allocation.assignments
                if a.core == core
            ]
            blocking = max(security_wcets, default=0.0)
            if blocking > 0 and not rt_schedulable_with_blocking(
                list(rt_tasks), blocking
            ):
                violations.append(
                    Violation(
                        kind="blocking",
                        task=None,
                        detail=(
                            f"core {core}: real-time tasks cannot absorb "
                            f"{blocking:.3f} of non-preemptive blocking"
                        ),
                    )
                )

    return VerificationResult(tuple(violations))
