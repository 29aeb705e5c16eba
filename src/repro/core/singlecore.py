"""The SingleCore baseline (paper Sec. IV).

An alternative design point: partition the real-time tasks onto ``M−1``
cores and dedicate the remaining core to *all* security tasks.  The
dedicated core sees no real-time interference (the first term of Eq. (5)
vanishes) but low-priority security tasks still interfere with each
other, so periods are adapted sequentially in priority order exactly as
in HYDRA's inner loop — only the core choice disappears.

:func:`build_singlecore_system` prepares the companion
:class:`~repro.model.system.SystemModel`: same platform, real-time tasks
repacked into the first ``M−1`` cores with any partitioning heuristic
(the paper's experiments use best-fit, the default), last core left
empty.  Returns ``None`` when the real-time set does not fit on ``M−1``
cores — in the acceptance-ratio experiments that counts as
*unschedulable under SingleCore*.  For first-fit, best-fit and next-fit
that pack is the all-cores partition whenever the latter leaves the last
core empty (:mod:`repro.partition.heuristics`), which is how the
scenario runner reads it off HYDRA's partition.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.analysis.schedulability import AdmissionTest
from repro.core.allocator import Allocator
from repro.errors import AllocationError, ConfigError
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.platform import Platform
from repro.model.priority import security_priority_order
from repro.model.system import Partition, SystemModel
from repro.model.task import RealTimeTask, SecurityTask, TaskSet
from repro.opt.period import adapt_period, adapt_period_exact
from repro.partition.heuristics import try_partition_tasks

__all__ = ["SingleCoreAllocator", "build_singlecore_system"]


def build_singlecore_system(
    platform: Platform,
    rt_tasks: Iterable[RealTimeTask],
    security_tasks: TaskSet | Iterable[SecurityTask],
    heuristic: str = "best-fit",
    admission: str | AdmissionTest = "rta",
    weights: dict[str, float] | None = None,
    ordering: str = "utilization",
) -> SystemModel | None:
    """Build the SingleCore variant of a system.

    Real-time tasks are packed onto cores ``0 … M−2`` with
    ``heuristic`` (any of :data:`~repro.partition.heuristics.HEURISTICS`),
    ``ordering`` and ``admission``; core ``M−1`` is reserved for
    security.  ``None`` when the pack fails (the SingleCore scheme
    cannot host this workload at all).
    """
    if platform.num_cores < 2:
        raise AllocationError(
            "the SingleCore scheme needs at least two cores (one must be "
            "dedicated to security tasks)"
        )
    if not isinstance(security_tasks, TaskSet):
        security_tasks = TaskSet(security_tasks)
    reduced = Platform(platform.num_cores - 1)
    packed = try_partition_tasks(
        rt_tasks, reduced, heuristic=heuristic, admission=admission,
        ordering=ordering,
    )
    if packed is None:
        return None
    partition = Partition(platform, packed.tasks, packed.as_mapping())
    return SystemModel(
        platform=platform,
        rt_partition=partition,
        security_tasks=security_tasks,
        weights=weights or {},
    )


class SingleCoreAllocator(Allocator):
    """Allocate every security task to one dedicated core.

    Parameters
    ----------
    dedicated_core:
        Core index reserved for security tasks.  ``None`` (default)
        auto-detects: the highest-indexed core with no real-time tasks.
    solver:
        ``"closed-form"`` (linearised Eq. (6), the paper) or
        ``"exact-rta"``.
    """

    name = "singlecore"

    def __init__(
        self, dedicated_core: int | None = None, solver: str = "closed-form"
    ) -> None:
        if solver not in ("closed-form", "exact-rta"):
            raise ConfigError(
                f"unknown period solver {solver!r}; expected one of "
                f"['closed-form', 'exact-rta']"
            )
        self.dedicated_core = dedicated_core
        self.solver_name = solver
        self._solve = (
            adapt_period if solver == "closed-form" else adapt_period_exact
        )

    def _resolve_core(self, system: SystemModel) -> int:
        if self.dedicated_core is not None:
            system.platform.validate_core(self.dedicated_core)
            return self.dedicated_core
        for core in reversed(list(system.platform)):
            if not system.rt_partition.tasks_on(core):
                return core
        raise AllocationError(
            "SingleCore needs a core free of real-time tasks; use "
            "build_singlecore_system() to prepare the partition"
        )

    def allocate(self, system: SystemModel) -> Allocation:
        core = self._resolve_core(system)
        rt_on_core = system.rt_partition.tasks_on(core)
        if rt_on_core:
            raise AllocationError(
                f"dedicated core {core} still hosts real-time tasks "
                f"{[t.name for t in rt_on_core]!r}"
            )
        env = InterferenceEnv()
        assignments: list[SecurityAssignment] = []
        for task in security_priority_order(system.security_tasks):
            solution = self._solve(task, env)
            if solution is None:
                return Allocation(
                    scheme=self.name,
                    schedulable=False,
                    failed_task=task.name,
                )
            env = env.extended(
                [Interferer.from_security(task, solution.period)]
            )
            assignments.append(
                SecurityAssignment(task=task, core=core, period=solution.period)
            )
        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=tuple(assignments),
            info={"dedicated_core": core, "solver": self.solver_name},
        )
