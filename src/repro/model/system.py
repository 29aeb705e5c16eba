"""System-level model: real-time partition and full system description.

A :class:`Partition` records which real-time task runs on which core (the
paper's indicator matrix ``I = [I_r^m]``).  A :class:`SystemModel` bundles
the platform, the partitioned real-time task set and the security task
set; it is the single input object consumed by every allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ValidationError
from repro.model.platform import Platform
from repro.model.task import (
    RealTimeTask,
    SecurityTask,
    TaskSet,
    total_utilization,
)

__all__ = ["Partition", "SystemModel"]


class Partition:
    """An assignment of real-time tasks to cores.

    Immutable.  Maps each task *name* to a core index and offers per-core
    views used by the interference analysis (Eq. 5 needs "the real-time
    tasks partitioned to core m").
    """

    __slots__ = ("_platform", "_tasks", "_core_of", "_on_core")

    def __init__(
        self,
        platform: Platform,
        tasks: TaskSet | Iterable[RealTimeTask],
        core_of: Mapping[str, int],
    ) -> None:
        if not isinstance(tasks, TaskSet):
            tasks = TaskSet(tasks)
        self._platform = platform
        self._tasks = tasks
        mapping: dict[str, int] = {}
        on_core: dict[int, list[RealTimeTask]] = {m: [] for m in platform}
        for task in tasks:
            if task.name not in core_of:
                raise ValidationError(
                    f"partition misses an assignment for task {task.name!r}"
                )
            core = core_of[task.name]
            platform.validate_core(core)
            mapping[task.name] = core
            on_core[core].append(task)
        extra = set(core_of) - set(mapping)
        if extra:
            raise ValidationError(
                f"partition assigns unknown task(s): {sorted(extra)!r}"
            )
        self._core_of = mapping
        self._on_core = {m: tuple(ts) for m, ts in on_core.items()}

    @property
    def platform(self) -> Platform:
        """The platform this partition targets."""
        return self._platform

    @property
    def tasks(self) -> TaskSet:
        """All partitioned real-time tasks."""
        return self._tasks

    def core_of(self, task: RealTimeTask | str) -> int:
        """Core index hosting ``task`` (task object or name)."""
        name = task if isinstance(task, str) else task.name
        try:
            return self._core_of[name]
        except KeyError:
            raise ValidationError(f"task {name!r} is not partitioned") from None

    def tasks_on(self, core: int) -> tuple[RealTimeTask, ...]:
        """Real-time tasks assigned to ``core`` (the paper's
        ``{τr : I_r^m = 1}``)."""
        self._platform.validate_core(core)
        return self._on_core[core]

    def utilization_of(self, core: int) -> float:
        """Total real-time utilisation on ``core``, added left to right
        (:func:`~repro.model.task.total_utilization`)."""
        return total_utilization(self.tasks_on(core))

    def utilizations(self) -> list[float]:
        """Per-core real-time utilisation, indexed by core."""
        return [self.utilization_of(m) for m in self._platform]

    def as_mapping(self) -> dict[str, int]:
        """Copy of the task-name → core mapping."""
        return dict(self._core_of)

    def indicator(self) -> list[list[int]]:
        """The paper's indicator matrix ``I`` as ``I[m][r]`` over set order."""
        return [
            [1 if self._core_of[t.name] == m else 0 for t in self._tasks]
            for m in self._platform
        ]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return (
                self._platform == other._platform
                and self._tasks == other._tasks
                and self._core_of == other._core_of
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        per_core = {
            self._platform.core_label(m): [t.name for t in self._on_core[m]]
            for m in self._platform
        }
        return f"Partition({per_core!r})"


@dataclass(frozen=True)
class SystemModel:
    """Complete input to a security-task allocator.

    Attributes
    ----------
    platform:
        The multicore platform.
    rt_partition:
        Partition of the (already schedulable) real-time tasks.  The paper
        assumes this is given; :mod:`repro.partition` produces it.
    security_tasks:
        The security tasks to allocate, in any order (allocators sort by
        priority internally).
    weights:
        Optional name → ``ω`` mapping for the objective of Eq. (3).
        Missing names default to the task's own :attr:`SecurityTask.weight`.
    """

    platform: Platform
    rt_partition: Partition
    security_tasks: TaskSet
    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rt_partition.platform != self.platform:
            raise ValidationError(
                "partition platform differs from system platform"
            )
        for task in self.security_tasks:
            if not isinstance(task, SecurityTask):
                raise ValidationError(
                    f"{task!r} in security_tasks is not a SecurityTask"
                )
        rt_names = set(self.rt_partition.tasks.names)
        clash = rt_names & set(self.security_tasks.names)
        if clash:
            raise ValidationError(
                f"task names shared between real-time and security sets: "
                f"{sorted(clash)!r}"
            )
        for name in self.weights:
            if name not in self.security_tasks:
                raise ValidationError(
                    f"weight given for unknown security task {name!r}"
                )

    def weight_of(self, task: SecurityTask | str) -> float:
        """Objective weight ``ω`` for ``task``."""
        if isinstance(task, str):
            task = self.security_tasks[task]
        return float(self.weights.get(task.name, task.weight))

    @property
    def rt_tasks(self) -> TaskSet:
        """All real-time tasks (across all cores)."""
        return self.rt_partition.tasks

    @property
    def total_rt_utilization(self) -> float:
        """System-wide real-time utilisation."""
        return self.rt_tasks.utilization

    @property
    def total_security_utilization_des(self) -> float:
        """System-wide security utilisation at the desired periods."""
        return self.security_tasks.utilization
