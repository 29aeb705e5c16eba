"""Shared building blocks for the synthetic-workload experiments.

One *trial* generates a synthetic task set (Sec. IV-B recipe) and
evaluates it under the competing allocation designs:

* **HYDRA** — real-time tasks best-fit partitioned over all ``M`` cores,
  security tasks placed by Algorithm 1;
* **SingleCore** — real-time tasks packed onto ``M−1`` cores, security
  tasks on the remaining dedicated core.

A task set counts as *schedulable under a scheme* when both its
real-time partition and its security allocation succeed — "security
tasks also have real-time constraints" (paper footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocators import get_allocator
from repro.analysis.dbf import necessary_condition
from repro.core.allocator import Allocator
from repro.core.singlecore import build_singlecore_system
from repro.model.allocation import Allocation
from repro.model.platform import Platform
from repro.model.system import SystemModel
from repro.partition.heuristics import try_partition_tasks
from repro.taskgen.synthetic import (
    SyntheticConfig,
    SyntheticWorkload,
    generate_workload,
)

__all__ = [
    "TrialOutcome",
    "run_acceptance_trial",
    "build_hydra_system",
    "spawn_streams",
]


@dataclass(frozen=True)
class TrialOutcome:
    """Both schemes' verdicts on one generated task set."""

    utilization: float
    hydra: Allocation | None
    single: Allocation | None

    @property
    def hydra_schedulable(self) -> bool:
        return self.hydra is not None and self.hydra.schedulable

    @property
    def single_schedulable(self) -> bool:
        return self.single is not None and self.single.schedulable


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, reproducible RNG streams for per-point parallelism."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def build_hydra_system(
    workload: SyntheticWorkload,
    heuristic: str = "best-fit",
    admission: str = "rta",
) -> SystemModel | None:
    """HYDRA-side system: real-time tasks partitioned over all cores.

    ``None`` when the partitioning heuristic fails (the task set is then
    unschedulable under HYDRA).
    """
    partition = try_partition_tasks(
        workload.rt_tasks,
        workload.platform,
        heuristic=heuristic,
        admission=admission,
    )
    if partition is None:
        return None
    return SystemModel(
        platform=workload.platform,
        rt_partition=partition,
        security_tasks=workload.security_tasks,
    )


def run_acceptance_trial(
    platform: Platform | int,
    utilization: float,
    rng: np.random.Generator,
    config: SyntheticConfig | None = None,
    hydra_allocator: Allocator | None = None,
    single_allocator: Allocator | None = None,
    heuristic: str = "best-fit",
    admission: str = "rta",
) -> TrialOutcome:
    """Generate one task set and evaluate it under both schemes.

    Task sets failing the Eq. (1) necessary condition are regenerated
    (the paper "only considered tasksets that satisfied the necessary
    condition"); with implicit deadlines this only triggers for
    utilisations above ``M``, so in practice every draw is kept.
    """
    if isinstance(platform, int):
        platform = Platform(platform)
    hydra_allocator = hydra_allocator or get_allocator("hydra")
    single_allocator = single_allocator or get_allocator("singlecore")

    workload = generate_workload(platform, utilization, rng, config)
    for _ in range(16):
        if necessary_condition(workload.rt_tasks, platform):
            break
        workload = generate_workload(platform, utilization, rng, config)

    hydra_result: Allocation | None = None
    hydra_system = build_hydra_system(
        workload, heuristic=heuristic, admission=admission
    )
    if hydra_system is not None:
        hydra_result = hydra_allocator.allocate(hydra_system)

    single_result: Allocation | None = None
    if platform.num_cores >= 2:
        single_system = build_singlecore_system(
            platform,
            workload.rt_tasks,
            workload.security_tasks,
            heuristic=heuristic,
            admission=admission,
        )
        if single_system is not None:
            single_result = single_allocator.allocate(single_system)

    return TrialOutcome(
        utilization=utilization, hydra=hydra_result, single=single_result
    )
