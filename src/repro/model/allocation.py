"""Allocation result types (paper Sec. III).

Every allocation scheme consumes a :class:`~repro.model.system.SystemModel`
and produces an :class:`Allocation`: either a complete security-task →
(core, period) mapping, or a verdict of *unschedulable* naming the first
task that could not be placed (the paper's Algorithm 1 line 9).

:class:`AllocationResult` is the richer envelope the first-class
allocator API (:mod:`repro.allocators`) returns: the allocation itself
plus the resolved security partition, per-task tightness, solver
diagnostics, and wall-clock timing — everything a report, a sweep cell,
or the simulator needs, independent of which strategy produced it.

These types live in :mod:`repro.model` (not :mod:`repro.core`) because
they are pure data: strategies in any layer — bin-packing heuristics,
LP/GP solvers, exhaustive searches — produce them, and consumers
(experiments, simulator, CLI) read them without importing any solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError
from repro.model.system import SystemModel
from repro.model.task import SecurityTask

__all__ = [
    "SecurityAssignment",
    "Allocation",
    "AllocationResult",
    "as_allocation",
]


@dataclass(frozen=True, slots=True)
class SecurityAssignment:
    """One security task placed on a core with an adapted period."""

    task: SecurityTask
    core: int
    period: float

    def __post_init__(self) -> None:
        tolerance = 1e-6 * max(1.0, self.period_max)
        if not (
            self.task.period_des - tolerance
            <= self.period
            <= self.task.period_max + tolerance
        ):
            raise ValidationError(
                f"assigned period {self.period} for {self.task.name!r} "
                f"violates [{self.task.period_des}, {self.task.period_max}]"
            )

    @property
    def period_max(self) -> float:
        """The task's loosest acceptable period (delegated)."""
        return self.task.period_max

    @property
    def tightness(self) -> float:
        """``η = T_des / T`` achieved by this assignment."""
        return self.task.period_des / self.period

    @property
    def utilization(self) -> float:
        """Utilisation consumed on the core, ``C / T``."""
        return self.task.wcet / self.period


@dataclass(frozen=True)
class Allocation:
    """Result of a security-task allocation attempt.

    A *schedulable* allocation carries one :class:`SecurityAssignment`
    per security task (in priority order); an unschedulable one carries
    the name of the first task for which no core was feasible.
    """

    scheme: str
    schedulable: bool
    assignments: tuple[SecurityAssignment, ...] = ()
    failed_task: str | None = None
    #: Free-form diagnostics (search statistics, solver info, …).
    info: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.schedulable and self.failed_task is not None:
            raise ValidationError(
                "a schedulable allocation cannot name a failed task"
            )
        if not self.schedulable and self.assignments:
            raise ValidationError(
                "an unschedulable allocation must not carry assignments"
            )

    # -- lookup helpers ------------------------------------------------

    def assignment_for(self, task: SecurityTask | str) -> SecurityAssignment:
        """The assignment of ``task`` (or name); ``KeyError`` if absent."""
        name = task if isinstance(task, str) else task.name
        for assignment in self.assignments:
            if assignment.task.name == name:
                return assignment
        raise KeyError(name)

    def periods(self) -> dict[str, float]:
        """Task name → assigned period."""
        return {a.task.name: a.period for a in self.assignments}

    def cores(self) -> dict[str, int]:
        """Task name → assigned core."""
        return {a.task.name: a.core for a in self.assignments}

    # -- metrics ---------------------------------------------------------

    def cumulative_tightness(
        self, weights: Mapping[str, float] | None = None
    ) -> float:
        """``Σ ω_s · η_s`` (unweighted when ``weights`` is ``None``),
        added left to right from ``0.0`` on every Python version (the
        builtin ``sum`` of floats is compensated from 3.12 on)."""
        if not self.schedulable:
            return 0.0
        total = 0.0
        for a in self.assignments:
            weight = 1.0 if weights is None else weights.get(a.task.name, 1.0)
            total += weight * a.tightness
        return total

    def mean_tightness(self) -> float:
        """Average tightness over the security tasks (0 if unschedulable)."""
        if not self.assignments:
            return 0.0
        return self.cumulative_tightness() / len(self.assignments)

    def security_utilization(self) -> float:
        """Total utilisation consumed by the allocated security tasks,
        added left to right."""
        total = 0.0
        for a in self.assignments:
            total += a.utilization
        return total


@dataclass(frozen=True)
class AllocationResult:
    """Typed envelope around one strategy's allocation attempt.

    This is what :func:`repro.allocators.run_allocator` returns and
    what every consumer of the first-class allocator API receives: the
    raw :class:`Allocation` plus uniform metadata no individual
    strategy has to remember to produce.

    Attributes
    ----------
    allocator:
        Registry spec the strategy was resolved from (equals
        ``allocation.scheme`` for the built-ins).
    allocation:
        The underlying allocation (assignments or failure verdict).
    diagnostics:
        Solver/search statistics: the allocation's own ``info`` merged
        with anything the runner adds (LP solve counts, nodes, …).
    elapsed_s:
        Wall-clock seconds the ``allocate`` call took.
    """

    allocator: str
    allocation: Allocation
    diagnostics: Mapping[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0


def as_allocation(
    scheme: str,
    system: SystemModel,
    assignment: Mapping[str, int],
    periods: Mapping[str, float],
    info: Mapping[str, object] | None = None,
) -> Allocation:
    """Build a schedulable :class:`Allocation` from plain mappings.

    Keeps priority order, which downstream consumers (simulator,
    reports) rely on.
    """
    from repro.model.priority import security_priority_order

    ordered = security_priority_order(system.security_tasks)
    assignments = tuple(
        SecurityAssignment(
            task=task, core=assignment[task.name], period=periods[task.name]
        )
        for task in ordered
    )
    return Allocation(
        scheme=scheme,
        schedulable=True,
        assignments=assignments,
        info=dict(info or {}),
    )
