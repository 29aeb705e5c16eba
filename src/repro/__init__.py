"""repro — a reproduction of HYDRA (Hasan et al., DATE 2018).

HYDRA explores the design space of *where* and *how often* to run
security monitoring tasks on a multicore real-time system without
perturbing the existing real-time tasks.  This package reimplements the
paper end to end:

* task/platform models and priority policies (:mod:`repro.model`);
* schedulability analysis — linearised interference, exact RTA
  (:mod:`repro.analysis`);
* workload synthesis — Randfixedsum, UUniFast, the synthetic recipe,
  the UAV case study, the Tripwire/Bro suite
  (:mod:`repro.taskgen`) behind one registry-backed generator API
  (:mod:`repro.workloads`);
* real-time partitioning heuristics (:mod:`repro.partition`);
* optimisation substrate — closed forms, a GP solver, a simplex LP
  solver, exhaustive and branch-and-bound searches (:mod:`repro.opt`);
* the allocators — HYDRA, SingleCore, OPT and ablation variants
  (:mod:`repro.core`) behind one registry-backed strategy API
  (:mod:`repro.allocators`);
* a discrete-event scheduler simulator with attack injection
  (:mod:`repro.sim`);
* metrics and experiment drivers regenerating every table/figure
  (:mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart::

    from repro.model import Platform, SystemModel
    from repro.partition import partition_tasks
    from repro.taskgen import uav_rt_tasks, table1_security_tasks
    from repro.core import HydraAllocator

    platform = Platform(4)
    partition = partition_tasks(uav_rt_tasks(), platform)
    system = SystemModel(platform=platform, rt_partition=partition,
                         security_tasks=table1_security_tasks())
    allocation = HydraAllocator().allocate(system)
    for a in allocation.assignments:
        print(a.task.name, "→ core", a.core, "period", round(a.period))
"""

from repro.allocators import (
    AllocationResult,
    get_allocator,
    register_allocator,
    run_allocator,
)
from repro.core import (
    Allocation,
    Allocator,
    HydraAllocator,
    OptimalAllocator,
    SecurityAssignment,
    SingleCoreAllocator,
    build_singlecore_system,
)
from repro.errors import (
    AllocationError,
    ConfigError,
    InfeasibleError,
    PartitioningError,
    ReproError,
    SimulationError,
    SolverError,
    ValidationError,
)
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Platform",
    "Partition",
    "SystemModel",
    "RealTimeTask",
    "SecurityTask",
    "TaskSet",
    "Allocation",
    "AllocationResult",
    "Allocator",
    "SecurityAssignment",
    "register_allocator",
    "get_allocator",
    "run_allocator",
    "HydraAllocator",
    "SingleCoreAllocator",
    "OptimalAllocator",
    "build_singlecore_system",
    "ReproError",
    "ValidationError",
    "ConfigError",
    "PartitioningError",
    "InfeasibleError",
    "SolverError",
    "SimulationError",
    "AllocationError",
]
