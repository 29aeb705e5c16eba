"""Fig. 1 — UAV case study: empirical CDF of intrusion detection time.

Workload: the six UAV real-time tasks (Sec. IV-A / [18]) plus the six
Table I security tasks.  For each core count M ∈ {2, 4, 8}:

* **HYDRA** partitions the UAV tasks over all M cores (best-fit) and
  runs Algorithm 1;
* **SingleCore** packs the UAV tasks onto M−1 cores and pins every
  security task to the remaining core;

then the resulting schedules are simulated and attacked at random
instants; each attack's detection time is the gap until the first fresh
job of the matching security task completes.  The paper reports HYDRA
detecting 19.81 / 27.23 / 29.75 % faster on average for 2 / 4 / 8 cores.
The reproduction checks the ordering only: HYDRA detects faster in
every panel.  Its gap does not grow with M.  The sampled speedups at
default scale are 38.89 / 44.98 / 43.03 %, and the exact expectations
over the attack instant are 40.38 / 52.33 / 52.33 %.  SingleCore's
expected detection time is the same at every M, because its dedicated
core runs the same tasks, and HYDRA's is the same at 4 and 8 cores.

Fig. 1 is a fixed detection-latency grid (:data:`FIG1_CONFIG`): the
``uav-case-study`` workload under allocators ``hydra`` and
``singlecore``, one task set per panel, measured by the same
simulate-and-attack protocol as every ``kind = "detection-latency"``
sweep (:mod:`repro.experiments.detection`).  Both schemes see the same
attack instants; an attack the horizon cuts off is counted as
*censored*, never stored as ``inf``.  Only the report — per-panel CDF
table, mean speedup against the paper's, censored counts — and the CSV
view are Fig. 1's own.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.allocators import get_allocator
from repro.core.singlecore import build_singlecore_system
from repro.errors import AllocationError
from repro.experiments.api import GoldenFixture
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.detection import (
    DetectionCell,
    DetectionResult,
    DetectionScenarioExperiment,
    detection_mini_aggregate,
)
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_table, percent
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.improvement import detection_speedup
from repro.model.allocation import Allocation
from repro.model.platform import Platform
from repro.model.system import SystemModel
from repro.partition.heuristics import try_partition_tasks
from repro.taskgen.security_apps import table1_security_tasks
from repro.taskgen.uav import uav_rt_tasks

__all__ = [
    "FIG1_CONFIG",
    "Fig1Experiment",
    "format_fig1",
    "build_uav_systems",
]

#: The compared schemes, in grid (and panel cell) order.
SCHEMES = ("hydra", "singlecore")

#: Fig. 1's grid.  Its ``sweep --config`` twin (shown in the README)
#: sets ``cores`` to the scale's core counts of at least 2.  The one
#: utilisation point is a placeholder the fixed workload ignores.
FIG1_CONFIG = ScenarioConfig(
    name="fig1",
    title="Fig. 1 — UAV case study: detection-time CDFs",
    description=(
        "Simulate the UAV case study under HYDRA and SingleCore, "
        "attack it at random instants, and report detection-time CDFs "
        "per core count."
    ),
    cores=(),
    heuristics=("best-fit",),
    orderings=("utilization",),
    admissions=("rta",),
    allocators=SCHEMES,
    allocator_axis=True,
    workloads=("uav-case-study",),
    workload_axis=True,
    kind="detection-latency",
    tasksets_per_point=1,
    utilization_start=0.5,
    utilization_stop=0.5,
    utilization_step=0.1,
)

#: The paper's mean-detection speedups of HYDRA over SingleCore.
PAPER_SPEEDUPS = {2: "19.81%", 4: "27.23%", 8: "29.75%"}


def build_uav_systems(
    cores: int,
) -> tuple[SystemModel, Allocation, SystemModel, Allocation]:
    """Build + allocate the case-study systems for one core count.

    Returns ``(hydra_system, hydra_alloc, single_system, single_alloc)``;
    raises :class:`AllocationError` if either scheme cannot host the
    case study (does not happen at the paper's core counts).
    """
    platform = Platform(cores)
    rt_tasks = uav_rt_tasks()
    security = table1_security_tasks()

    partition = try_partition_tasks(rt_tasks, platform, heuristic="best-fit")
    if partition is None:
        raise AllocationError(
            f"UAV real-time tasks do not partition onto {cores} cores"
        )
    hydra_system = SystemModel(
        platform=platform, rt_partition=partition, security_tasks=security
    )
    hydra_alloc = get_allocator("hydra").allocate(hydra_system)
    if not hydra_alloc.schedulable:
        raise AllocationError("HYDRA cannot schedule the UAV case study")

    single_system = build_singlecore_system(platform, rt_tasks, security)
    if single_system is None:
        raise AllocationError(
            f"UAV real-time tasks do not fit on {cores - 1} cores for the "
            f"SingleCore scheme"
        )
    single_alloc = get_allocator("singlecore").allocate(single_system)
    if not single_alloc.schedulable:
        raise AllocationError("SingleCore cannot schedule the UAV case study")
    return hydra_system, hydra_alloc, single_system, single_alloc


@register_experiment("fig1")
class Fig1Experiment(DetectionScenarioExperiment):
    """Fig. 1 as a registered detection-latency grid."""

    # 3: one detection protocol — the detection-latency payload, shared
    # attack instants, censored attacks as counts instead of inf.
    version = 3
    tags = ("paper", "figure")
    order = 20
    columns = ("cores", "scheme", "detection_time_ms")

    def __init__(self) -> None:
        super().__init__(FIG1_CONFIG)
        self.name = self.config.name

    def _cores(self, scale: ExperimentScale) -> tuple[int, ...]:
        # SingleCore dedicates a core to security, so a 1-core platform
        # has no panel to compare.
        return tuple(c for c in scale.core_counts if c >= 2)

    def render_domain(self, domain: DetectionResult) -> str:
        return format_fig1(domain)

    def table_rows(self, domain: DetectionResult) -> list[Sequence[Any]]:
        return [
            (panel.cores, scheme, t)
            for panel in domain.panels
            for scheme, cell in zip(SCHEMES, panel.cells)
            for t in cell.times
        ]

    def golden_fixture(self) -> GoldenFixture:
        """The 2-core case study at smoke scale, 20 attacks per scheme."""
        scale = SCALES["smoke"].with_overrides(
            sim_trials=20, core_counts=(2,)
        )
        return GoldenFixture(
            name="fig1_mini",
            build_spec=lambda: self.sweeps(scale)[0],
            summarize=detection_mini_aggregate,
        )


def _mean_ms(cell: DetectionCell) -> str:
    return f"{cell.mean_detected:.0f} ms" if cell.times else "n/a"


def format_fig1(result: DetectionResult, grid_points: int = 12) -> str:
    """Render the Fig. 1 reproduction: per-panel CDF table + speedups."""
    blocks: list[str] = []
    for panel in result.panels:
        hydra, single = panel.cells
        support_hi = max((*hydra.times, *single.times, 1.0))
        xs = [support_hi * (i + 1) / grid_points for i in range(grid_points)]
        hydra_cdf, single_cdf = hydra.cdf, single.cdf
        rows = [
            (f"{x:.0f}", f"{hydra_cdf(x):.3f}", f"{single_cdf(x):.3f}")
            for x in xs
        ]
        blocks.append(
            format_table(
                ["detection time (ms)", "CDF HYDRA", "CDF SingleCore"],
                rows,
                title=(
                    f"Fig. 1 — {panel.cores} cores "
                    f"({hydra.attacks} attacks/scheme, "
                    f"scale={result.scale})"
                ),
            )
        )
        if hydra.times and single.times:
            gain = detection_speedup(hydra.times, single.times)
            speedup = f"{percent(gain)} faster"
        else:
            speedup = "n/a"
        paper = PAPER_SPEEDUPS.get(panel.cores, "n/a")
        blocks.append(
            f"mean detection: HYDRA {_mean_ms(hydra)} vs SingleCore "
            f"{_mean_ms(single)} → {speedup} "
            f"(paper: {paper} for {panel.cores} cores)"
        )
        undetected = [
            f"{scheme}: {cell.censored} censored by horizon, "
            f"{cell.undetectable} undetectable"
            for scheme, cell in zip(SCHEMES, (hydra, single))
            if cell.censored or cell.undetectable
        ]
        if undetected:
            blocks.append("undetected attacks — " + "; ".join(undetected))
    return "\n\n".join(blocks)
