"""Shared building blocks for the synthetic-workload experiments.

* :func:`build_hydra_system` — the HYDRA-side system of one generated
  task set: real-time tasks partitioned over all ``M`` cores, security
  tasks left for an allocator to place.  The ``scenario`` point runner
  (:func:`repro.experiments.scenario.combo_system`) builds every
  all-cores system through it, and Fig. 3, the search ablation, the
  examples and the tests call it directly.
* :func:`spawn_streams` — the per-point RNG streams a sweep consumes,
  so a test can replay any point of a sweep outside the engine.
"""

from __future__ import annotations

import numpy as np

from repro.model.system import SystemModel
from repro.partition.heuristics import try_partition_tasks
from repro.taskgen.synthetic import SyntheticWorkload

__all__ = [
    "build_hydra_system",
    "spawn_streams",
]


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, reproducible RNG streams for per-point parallelism."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def build_hydra_system(
    workload: SyntheticWorkload,
    heuristic: str = "best-fit",
    admission: str = "rta",
    ordering: str = "utilization",
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
        ordering=ordering,
    )
    if partition is None:
        return None
    return SystemModel(
        platform=workload.platform,
        rt_partition=partition,
        security_tasks=workload.security_tasks,
    )
