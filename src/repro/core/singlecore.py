"""The SingleCore baseline (paper Sec. IV).

An alternative design point: partition the real-time tasks onto ``M−1``
cores and dedicate the remaining core to *all* security tasks.  The
dedicated core sees no real-time interference (the first term of Eq. (5)
vanishes) but low-priority security tasks still interfere with each
other, so periods are adapted sequentially in priority order by HYDRA's
own walk, with the dedicated core the only one a task may probe — only
the core choice disappears.

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

import math
from typing import Iterable

from repro.analysis.schedulability import AdmissionTest
from repro.core.hydra import PERIOD_SOLVERS, HydraAllocator
from repro.errors import AllocationError, ConfigError
from repro.model.platform import Platform
from repro.model.system import Partition, SystemModel
from repro.model.task import RealTimeTask, SecurityTask, TaskSet
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


class SingleCoreAllocator(HydraAllocator):
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
        self._solve = PERIOD_SOLVERS[solver]

    def _cores(self, system: SystemModel) -> dict[int, float]:
        """The dedicated core alone, without a limit."""
        core = self.dedicated_core
        if core is None:
            partition = system.rt_partition
            free = [c for c in system.platform if not partition.tasks_on(c)]
            if not free:
                raise AllocationError(
                    "SingleCore needs a core free of real-time tasks; use "
                    "build_singlecore_system() to prepare the partition"
                )
            core = free[-1]
        rt_on_core = system.rt_partition.tasks_on(core)
        if rt_on_core:
            raise AllocationError(
                f"dedicated core {core} still hosts real-time tasks "
                f"{[t.name for t in rt_on_core]!r}"
            )
        return {core: math.inf}

    def _info(self, cores: dict[int, float]) -> dict[str, object]:
        (core,) = cores
        return {"dedicated_core": core, "solver": self.solver_name}
