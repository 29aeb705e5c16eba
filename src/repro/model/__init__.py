"""Task, platform and system models (paper Sec. II).

Public surface:

* :class:`~repro.model.task.RealTimeTask`,
  :class:`~repro.model.task.SecurityTask`,
  :class:`~repro.model.task.TaskSet` — the sporadic task models.
* :class:`~repro.model.platform.Platform` — ``M`` identical cores.
* :class:`~repro.model.system.Partition` — real-time task → core map.
* :class:`~repro.model.system.SystemModel` — the allocator input bundle.
* :class:`~repro.model.allocation.Allocation`,
  :class:`~repro.model.allocation.AllocationResult` — what allocation
  strategies produce (see :mod:`repro.allocators`).
* Priority policies in :mod:`repro.model.priority`.
"""

from repro.model.allocation import (
    Allocation,
    AllocationResult,
    SecurityAssignment,
    as_allocation,
)
from repro.model.platform import Platform
from repro.model.priority import (
    rate_monotonic_order,
    security_priority_order,
)
from repro.model.system import Partition, SystemModel
from repro.model.task import (
    RealTimeTask,
    SecurityTask,
    TaskSet,
    total_utilization,
)
from repro.model.transform import (
    scale_security_wcets,
    with_extra_cores,
    with_period_max,
    with_security_task,
    with_security_tasks,
)

__all__ = [
    "Platform",
    "Partition",
    "SystemModel",
    "Allocation",
    "AllocationResult",
    "SecurityAssignment",
    "as_allocation",
    "RealTimeTask",
    "SecurityTask",
    "TaskSet",
    "total_utilization",
    "rate_monotonic_order",
    "security_priority_order",
    "scale_security_wcets",
    "with_security_tasks",
    "with_security_task",
    "with_period_max",
    "with_extra_cores",
]
