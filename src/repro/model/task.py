"""Task models for the HYDRA reproduction.

The paper (Sec. II) schedules two kinds of sporadic tasks:

* **Real-time tasks** ``τr = (Cr, Tr, Dr)`` — WCET, minimum inter-arrival
  time (period) and relative deadline.  Deadlines are implicit
  (``Dr = Tr``) and priorities are rate monotonic and distinct.
* **Security tasks** ``τs = (Cs, T_des_s, T_max_s)`` — WCET, desired
  (minimum acceptable) period and the maximum period beyond which the
  security monitoring is considered ineffective.  Security tasks always
  execute with a priority *below every real-time task*; among themselves
  they are prioritised by ``T_max`` (smaller ``T_max`` → higher priority).

All times are plain floats in a single consistent unit; the experiment
code uses milliseconds throughout, mirroring the paper's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from repro.errors import ValidationError

__all__ = [
    "RealTimeTask",
    "SecurityTask",
    "TaskSet",
    "total_utilization",
]


def _require_positive(value: float, name: str, task_name: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(
            f"task {task_name!r}: {name} must be a positive finite number, "
            f"got {value!r}"
        )


@dataclass(frozen=True, slots=True)
class RealTimeTask:
    """A sporadic hard real-time task ``(C, T, D)``.

    Parameters
    ----------
    name:
        Human-readable identifier; must be unique within a task set.
    wcet:
        Worst-case execution time ``C``.
    period:
        Minimum inter-arrival time ``T``.
    deadline:
        Relative deadline ``D``.  Defaults to the period (implicit
        deadline), which is what the paper assumes.
    priority:
        Fixed priority.  Smaller values denote *higher* priority.  ``None``
        until assigned (see :func:`repro.model.priority.assign_rate_monotonic`).
    """

    name: str
    wcet: float
    period: float
    deadline: float | None = None
    priority: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_positive(self.wcet, "wcet", self.name)
        _require_positive(self.period, "period", self.name)
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        _require_positive(self.deadline, "deadline", self.name)
        if self.wcet > self.deadline:
            raise ValidationError(
                f"task {self.name!r}: wcet {self.wcet} exceeds deadline "
                f"{self.deadline}; the task can never meet its deadline"
            )
        if self.deadline > self.period:
            raise ValidationError(
                f"task {self.name!r}: constrained/arbitrary deadlines beyond "
                f"the period are not supported (D={self.deadline}, "
                f"T={self.period})"
            )

    @property
    def utilization(self) -> float:
        """Processor share ``C / T`` demanded by the task."""
        return self.wcet / self.period

    @property
    def is_implicit_deadline(self) -> bool:
        """Whether ``D == T`` (the paper's model)."""
        return self.deadline == self.period

    def with_priority(self, priority: int) -> "RealTimeTask":
        """Return a copy of the task with ``priority`` assigned."""
        return replace(self, priority=priority)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RT({self.name}: C={self.wcet:g}, T={self.period:g}, "
            f"D={self.deadline:g})"
        )


@dataclass(frozen=True, slots=True)
class SecurityTask:
    """A sporadic security task ``(C, T_des, T_max)`` (paper Sec. II-C).

    The *actual* period is an output of the allocation algorithms, so it is
    deliberately **not** stored here; see
    :class:`repro.model.allocation.SecurityAssignment`.

    Parameters
    ----------
    name:
        Human-readable identifier; must be unique within a task set.
    wcet:
        Worst-case execution time ``C``.
    period_des:
        Desired period ``T_des`` (the best, i.e. smallest, acceptable
        period — ``1/T_des`` is the desired monitoring frequency).
    period_max:
        Maximum period ``T_max`` beyond which monitoring is ineffective.
    weight:
        Objective weight ``ω`` in Eq. (3); higher-priority tasks receive
        larger weights.  Defaults to 1.
    surface:
        Optional label of the attack surface this task monitors (e.g.
        ``"filesystem"`` or ``"network"``); used by the attack-injection
        simulator to decide which security task can detect which attack.
    """

    name: str
    wcet: float
    period_des: float
    period_max: float
    weight: float = 1.0
    surface: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_positive(self.wcet, "wcet", self.name)
        _require_positive(self.period_des, "period_des", self.name)
        _require_positive(self.period_max, "period_max", self.name)
        _require_positive(self.weight, "weight", self.name)
        if self.period_des > self.period_max:
            raise ValidationError(
                f"task {self.name!r}: period_des {self.period_des} exceeds "
                f"period_max {self.period_max}"
            )
        if self.wcet > self.period_des:
            raise ValidationError(
                f"task {self.name!r}: wcet {self.wcet} exceeds the desired "
                f"period {self.period_des}; even an idle core cannot "
                f"schedule it at the desired rate"
            )

    @property
    def utilization_des(self) -> float:
        """Utilisation ``C / T_des`` at the desired (highest) rate."""
        return self.wcet / self.period_des

    @property
    def utilization_min(self) -> float:
        """Utilisation ``C / T_max`` at the maximum (slowest) period."""
        return self.wcet / self.period_max

    @property
    def min_tightness(self) -> float:
        """Lower bound of the tightness metric, ``T_des / T_max``."""
        return self.period_des / self.period_max

    def tightness(self, period: float) -> float:
        """Tightness ``η = T_des / T`` of running this task at ``period``.

        Raises :class:`ValidationError` if ``period`` lies outside
        ``[T_des, T_max]`` (allowing for a small numerical tolerance).
        """
        tolerance = 1e-9 * max(1.0, self.period_max)
        if not (
            self.period_des - tolerance <= period <= self.period_max + tolerance
        ):
            raise ValidationError(
                f"task {self.name!r}: period {period} outside the admissible "
                f"range [{self.period_des}, {self.period_max}]"
            )
        return self.period_des / period

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sec({self.name}: C={self.wcet:g}, Tdes={self.period_des:g}, "
            f"Tmax={self.period_max:g})"
        )


class TaskSet(Sequence):
    """An immutable, name-indexed collection of tasks.

    Works for both real-time and security tasks; enforces unique names.
    Supports iteration, ``len``, integer indexing and name lookup.
    """

    __slots__ = ("_tasks", "_by_name")

    def __init__(self, tasks: Iterable[RealTimeTask | SecurityTask] = ()) -> None:
        self._tasks = tuple(tasks)
        by_name: dict[str, RealTimeTask | SecurityTask] = {}
        for task in self._tasks:
            if task.name in by_name:
                raise ValidationError(f"duplicate task name {task.name!r}")
            by_name[task.name] = task
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator:
        return iter(self._tasks)

    def __getitem__(self, index):
        if isinstance(index, str):
            return self._by_name[index]
        return self._tasks[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, str):
            return item in self._by_name
        return item in self._tasks

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaskSet):
            return self._tasks == other._tasks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSet({list(self._tasks)!r})"

    @property
    def names(self) -> tuple[str, ...]:
        """Tuple of task names in set order."""
        return tuple(task.name for task in self._tasks)

    @property
    def utilization(self) -> float:
        """Total utilisation of the set.

        Real-time tasks contribute ``C/T``; security tasks contribute
        their *desired* utilisation ``C/T_des`` (the paper's convention
        when budgeting security utilisation against real-time
        utilisation).
        """
        return total_utilization(self._tasks)

    def extended(self, tasks: Iterable[RealTimeTask | SecurityTask]) -> "TaskSet":
        """Return a new set with ``tasks`` appended."""
        return TaskSet((*self._tasks, *tasks))

    def sorted_by(self, key, reverse: bool = False) -> "TaskSet":
        """Return a new set sorted by ``key``."""
        return TaskSet(sorted(self._tasks, key=key, reverse=reverse))


def total_utilization(tasks: Iterable[RealTimeTask | SecurityTask]) -> float:
    """Sum the utilisation of a mixed collection of tasks.

    Security tasks are counted at their desired rate (``C/T_des``), which
    is the convention used by the paper's workload generator ("total
    utilisation of the security tasks were set to be no more than 30% of
    the real-time tasks").
    """
    total = 0.0
    for task in tasks:
        if isinstance(task, SecurityTask):
            total += task.utilization_des
        else:
            total += task.utilization
    return total
