"""The workload registry: generators as named sweep axes.

Workload families self-register with :func:`register_workload` ::

    @register_workload(
        "my-workload",
        title="My workload shape in one line",
        tags=("extension",),
    )
    class MyWorkload(WorkloadGenerator):
        name = "my-workload"
        def generate(self, platform, total_utilization, rng): ...

The table is a :class:`repro.registry.Registry` whose built-ins live in
:mod:`repro.workloads.builtin`; the ``workload-sample`` point runner
resolves families through it too.  Spec strings double as sweep-cell
label prefixes: every built-in factory produces a generator whose
``name`` attribute equals its registry spec, so a
``uunifast::hydra|best-fit/rm/rta`` scheme label can always be
resolved back to the family that generated its task sets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.model.platform import Platform
from repro.registry import PluginInfo, Registry
from repro.taskgen.synthetic import SyntheticWorkload
from repro.workloads.api import WorkloadGenerator

__all__ = [
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


class UnknownWorkloadError(ConfigError):
    """Raised when a spec resolves to no registered workload generator."""


#: Registry metadata of one family; ``factory()`` builds a generator.
WorkloadInfo = PluginInfo

REGISTRY = Registry("workload", "repro.workloads.builtin", UnknownWorkloadError)
register_workload = REGISTRY.register
unregister_workload = REGISTRY.unregister
get_workload_info = REGISTRY.info
workload_names = REGISTRY.names
iter_workload_info = REGISTRY.entries


def get_workload(spec: str) -> WorkloadGenerator:
    """Instantiate the family registered under ``spec``."""
    return get_workload_info(spec).factory()


def run_workload(
    workload: str | WorkloadGenerator,
    platform: Platform | int,
    total_utilization: float,
    rng: np.random.Generator | int | None = None,
) -> SyntheticWorkload:
    """Resolve (if needed) and run one generator at one target.

    The uniform entry point of the workload API, mirroring
    :func:`repro.allocators.run_allocator`: accepts either a registry
    spec or a ready :class:`WorkloadGenerator`.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    return workload.generate(platform, total_utilization, rng)
