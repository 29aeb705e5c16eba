"""First-class workload API: one protocol, one registry, shared recipes.

The paper's evaluation rests on a single synthetic recipe; its
conclusions are about how allocation behaves across *workload shapes*.
This package makes the workload a first-class, sweepable axis.  Every
family implements the single
:class:`~repro.workloads.api.WorkloadGenerator` protocol
(``generate(platform, total_utilization, rng) -> SyntheticWorkload``),
registers itself with :func:`register_workload`, and is then reachable
everywhere by spec string — TOML scenario grids (``[grid] workload =
[...]``), the ``repro-hydra workloads`` / ``--workload`` CLI surface,
and the point runners — with no driver code.

:func:`run_workload` is the uniform entry point, mirroring
:func:`repro.allocators.run_allocator`.  A point runner draws its task
sets one ``generate`` call at a time, so a family has no other method
to implement.

See README "Writing a new workload generator" for the plugin recipe.
"""

from repro.workloads.api import WorkloadGenerator
from repro.workloads.registry import (
    UnknownWorkloadError,
    WorkloadInfo,
    get_workload,
    get_workload_info,
    iter_workload_info,
    register_workload,
    run_workload,
    unregister_workload,
    workload_names,
)

__all__ = [
    "WorkloadGenerator",
    "WorkloadInfo",
    "UnknownWorkloadError",
    "register_workload",
    "unregister_workload",
    "get_workload",
    "get_workload_info",
    "workload_names",
    "iter_workload_info",
    "run_workload",
]
