"""Detection-latency experiments: attack injection as a results family.

The paper's case study (Sec. IV-A, Fig. 1) measures how quickly the
security tasks notice an intrusion.  This module holds the one
observation protocol — simulate the allocated schedule, inject attacks
at random instants, measure the gap to the first sufficiently-fresh
monitor completion — as a *sweepable* experiment over the full
scenario grid: allocator × workload family × placement heuristic ×
detection policy, at every utilisation point, on shared task sets.
Fig. 1 (:mod:`repro.experiments.fig1`) is one fixed grid of it: the
``uav-case-study`` workload under HYDRA and SingleCore.

A ``[sweep] kind = "detection-latency"`` TOML (see
``examples/detection_sweep.toml``) runs through the same
``SweepEngine``/``JobRunner``/store path as every other experiment:
serial ≡ pooled ≡ cached ≡ served byte-identical.  Undetected attacks
are never reported as bare ``inf``: each cell carries explicit
**censored** (a monitor exists, the horizon ended first) and
**undetectable** (no monitor for the surface) counts next to the
finite detection-time sample (see
:func:`repro.sim.detection.undetected_breakdown`).

Synthetic workload families do not label attack surfaces, so each
security task without a ``surface`` is treated as monitoring a surface
named after itself — the paper's one-monitor-per-surface model.
Combos whose allocations build the same simulated tasks — those
differing only in detection policy, and allocators that agree — share
one simulation per task set, scored once per policy through one
:class:`~repro.sim.detection.DetectionIndex`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.experiments.api import GoldenFixture, RawRun
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.parallel import register_point_runner
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_table
from repro.experiments.scenario import (
    ScenarioConfig,
    ScenarioExperiment,
    combo_label,
    combo_system,
    point_workloads,
)
from repro.metrics.cdf import EmpiricalCDF
from repro.model.platform import Platform
from repro.model.task import TaskSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "DetectionCell",
    "DetectionPanel",
    "DetectionResult",
    "DetectionScenarioExperiment",
    "DetectionLatencyExperiment",
    "monitoring_view",
    "detection_mini_spec",
    "detection_mini_aggregate",
]

#: Attacks are sampled over this leading fraction of the simulated
#: horizon, leaving the tail for the slowest monitors to fire; what the
#: tail still cuts off is reported as *censored*, never silently inf.
ATTACK_WINDOW_FRACTION = 0.75


def monitoring_view(security_tasks: TaskSet) -> TaskSet:
    """Surface-tagged view of a task set for attack injection.

    Tasks already carrying a ``surface`` label keep it; unlabelled ones
    (every synthetic family) are tagged with their own name, so each
    monitors its private surface — the paper's one-monitor-per-surface
    model.  Task names are unchanged, so the view's surface map applies
    directly to simulation results of the original system.
    """
    return TaskSet(
        task if task.surface else dataclasses.replace(task, surface=task.name)
        for task in security_tasks
    )


# -- point runner ------------------------------------------------------------


@register_point_runner("detection-latency")
def run_detection_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """Detection-time samples for every grid combo at one utilisation.

    Task sets and attack instants are shared across all combos of a
    workload family (the same discipline as the acceptance runner:
    cells are directly comparable).  The task sets come from
    :func:`~repro.experiments.scenario.point_workloads`, and each task
    set's attack instants are drawn right after it, so appending a
    family to the axis keeps every earlier family's cells.  Combos whose
    allocations build the same simulated tasks share one simulation,
    and its attacks are scored once per detection ``policy``, through
    one :class:`~repro.sim.detection.DetectionIndex` each: combos that
    differ only in the policy always do, and so do allocators that
    return the same allocation.  The simulation itself is strictly
    periodic, so the engine stream is consumed only by generation and
    attack sampling — payloads stay byte-identical across worker
    counts.
    """
    from repro.allocators import get_allocator
    from repro.sim.attacks import sample_attacks, surfaces_of
    from repro.sim.detection import (
        DetectionIndex,
        build_surface_map,
        undetected_breakdown,
    )
    from repro.sim.runner import build_sim_tasks, simulate_allocation

    platform = Platform(int(params["cores"]))
    combos = [dict(c) for c in params["combos"]]
    default_policy = str(params.get("policy", "release-after"))
    sim_duration = float(params["sim_duration"])
    sim_trials = int(params["sim_trials"])
    tasksets = int(params["tasksets_per_point"])
    utilization = float(point["utilization"])

    allocators = {
        spec: get_allocator(spec)
        for spec in {c.get("allocator", "hydra") for c in combos}
    }

    # One allocation per (workload, allocator, heuristic, ordering,
    # admission); policy-only variants reuse it.
    groups: dict[tuple, list[dict[str, str]]] = {}
    for combo in combos:
        key = (
            combo.get("workload", "paper-synthetic"),
            combo.get("allocator", "hydra"),
            combo["heuristic"], combo["ordering"], combo["admission"],
        )
        groups.setdefault(key, []).append(combo)

    cells: dict[str, dict[str, Any]] = {
        combo_label(**c): {
            "times": [], "censored": 0, "undetectable": 0,
            "allocated": 0, "total": 0,
        }
        for c in combos
    }
    window = (0.0, ATTACK_WINDOW_FRACTION * sim_duration)
    for wl_spec, workload in point_workloads(
        platform, combos, tasksets, utilization, rng
    ):
        monitors = monitoring_view(workload.security_tasks)
        surface_map = build_surface_map(monitors)
        surfaces = surfaces_of(monitors)
        attacks = sample_attacks(sim_trials, window, surfaces, rng)
        systems: dict[tuple, Any] = {}
        # Per distinct schedule: its simulation, and per policy the
        # attacks' detection times with the censored and undetectable
        # counts.
        scores: dict[tuple, tuple[Any, dict[str, tuple]]] = {}
        for key, group in groups.items():
            if key[0] != wl_spec:
                continue
            group_cells = [cells[combo_label(**c)] for c in group]
            for cell in group_cells:
                cell["total"] += 1
            system = combo_system(platform, workload, group[0], systems)
            if system is None:
                continue
            allocation = allocators[key[1]].allocate(system)
            if not allocation.schedulable:
                continue
            for cell in group_cells:
                cell["allocated"] += 1
            # Strictly periodic schedule: the simulation draws nothing
            # from the stream, so policy variants can share it, and so
            # can groups whose allocators return the same allocation
            # (hydra and adaptive[exact-rta] often do).  Scoring
            # reads monitors only, so only the security tasks run, in
            # the idle time of the real-time band.
            schedule = tuple(build_sim_tasks(system, allocation))
            if schedule not in scores:
                scores[schedule] = (
                    simulate_allocation(
                        system, allocation, duration=sim_duration,
                        security_only=True,
                    ),
                    {},
                )
            result, by_policy = scores[schedule]
            for cell_combo, cell in zip(group, group_cells):
                policy = cell_combo.get("policy", default_policy)
                if policy not in by_policy:
                    index = DetectionIndex(result, policy)
                    times = [
                        index.detection_time(attack, surface_map)
                        for attack in attacks
                    ]
                    by_policy[policy] = (
                        times,
                        *undetected_breakdown(times, attacks, surface_map),
                    )
                times, censored, undetectable = by_policy[policy]
                cell["times"].extend(t for t in times if not math.isinf(t))
                cell["censored"] += censored
                cell["undetectable"] += undetectable
    return {"cells": cells}


# -- result types ------------------------------------------------------------


@dataclass(frozen=True)
class DetectionCell:
    """Detection-time sample of one grid cell at one utilisation."""

    utilization: float
    scheme: str
    times: tuple[float, ...]
    censored: int
    undetectable: int
    allocated: int
    total: int

    @property
    def detected(self) -> int:
        return len(self.times)

    @property
    def attacks(self) -> int:
        """Attack observations scored for this cell (detected or not)."""
        return self.detected + self.censored + self.undetectable

    @property
    def cdf(self) -> EmpiricalCDF | None:
        """CDF over all scored attacks (censored/undetectable kept as
        ``inf`` in the denominator); ``None`` when nothing was scored."""
        if not self.attacks:
            return None
        return EmpiricalCDF(
            list(self.times)
            + [math.inf] * (self.censored + self.undetectable)
        )

    @property
    def mean_detected(self) -> float:
        """Mean over the detected attacks (``nan`` when none), added
        left to right (the builtin ``sum`` compensates from 3.12 on)."""
        if not self.times:
            return math.nan
        total = 0.0
        for value in self.times:
            total += value
        return total / len(self.times)


@dataclass(frozen=True)
class DetectionPanel:
    """One core count's detection comparison across all grid cells."""

    cores: int
    cells: tuple[DetectionCell, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class DetectionResult:
    """All panels of one detection-latency sweep."""

    name: str
    scale: str
    panels: tuple[DetectionPanel, ...] = field(default_factory=tuple)


# -- the experiment ----------------------------------------------------------


def _fmt_ms(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.1f}"


class DetectionScenarioExperiment(ScenarioExperiment):
    """A TOML-defined detection-latency sweep on the experiment protocol.

    Built by :func:`repro.experiments.scenario.build_scenario_experiment`
    for ``kind = "detection-latency"`` configs; shares the scenario
    grid/axes/utilisation machinery and replaces the acceptance
    scoring with attack-injection simulation.  Fixed grids register as
    subclasses: :class:`DetectionLatencyExperiment` and Fig. 1.
    """

    version = 1
    tags = ("scenario", "detection")
    columns = (
        "cores", "utilization", "scheme", "attacks", "detected",
        "censored", "undetectable", "mean_detected_ms", "p95_ms",
    )
    scenario_kind = "detection-latency"

    def _cores(self, scale: ExperimentScale) -> tuple[int, ...]:
        """An empty cores axis inherits the scale preset (the
        registered ``detection-latency`` experiment's default)."""
        return self.config.cores or scale.core_counts

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        from repro.experiments.parallel import SweepSpec

        cfg = self.config
        seed = cfg.seed if cfg.seed is not None else scale.seed
        # Simulation makes this family as expensive per task set as the
        # OPT comparison, so the default volume follows the same knob.
        tasksets = (
            cfg.tasksets_per_point
            if cfg.tasksets_per_point is not None
            else scale.fig3_tasksets_per_point
        )
        sim_trials = (
            cfg.sim_trials if cfg.sim_trials is not None else scale.sim_trials
        )
        sim_duration = (
            cfg.sim_duration
            if cfg.sim_duration is not None
            else scale.sim_duration
        )
        return [
            SweepSpec(
                kind="detection-latency",
                seed=seed + cores,
                points=tuple(
                    {"utilization": u}
                    for u in self._utilizations(scale, cores)
                ),
                params={
                    "cores": cores,
                    "tasksets_per_point": tasksets,
                    "sim_trials": sim_trials,
                    "sim_duration": sim_duration,
                    "policy": cfg.policies[0],
                    "combos": cfg.combos,
                },
            )
            for cores in self._cores(scale)
        ]

    def aggregate_domain(self, raw: RawRun) -> DetectionResult:
        labels = [combo_label(**c) for c in self.config.combos]
        panels = []
        for result in raw.sweeps:
            cells = []
            for point, payload in zip(result.spec.points, result.payloads):
                utilization = float(point["utilization"])
                for label in labels:
                    cell = payload["cells"].get(label)
                    if cell is None:
                        raise ValidationError(
                            f"detection payload is missing cell "
                            f"{label!r} (stale cache entry?)"
                        )
                    cells.append(
                        DetectionCell(
                            utilization=utilization,
                            scheme=label,
                            times=tuple(float(t) for t in cell["times"]),
                            censored=int(cell["censored"]),
                            undetectable=int(cell["undetectable"]),
                            allocated=int(cell["allocated"]),
                            total=int(cell["total"]),
                        )
                    )
            panels.append(
                DetectionPanel(
                    cores=int(result.spec.params["cores"]),
                    cells=tuple(cells),
                )
            )
        return DetectionResult(
            name=self.config.name,
            scale=raw.scale.name,
            panels=tuple(panels),
        )

    def encode_data(self, domain: DetectionResult) -> dict[str, Any]:
        return {
            "name": domain.name,
            "scale": domain.scale,
            "panels": [
                {
                    "cores": panel.cores,
                    "cells": [
                        {
                            "utilization": cell.utilization,
                            "scheme": cell.scheme,
                            "times": list(cell.times),
                            "censored": cell.censored,
                            "undetectable": cell.undetectable,
                            "allocated": cell.allocated,
                            "total": cell.total,
                        }
                        for cell in panel.cells
                    ],
                }
                for panel in domain.panels
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> DetectionResult:
        return DetectionResult(
            name=str(data["name"]),
            scale=str(data["scale"]),
            panels=tuple(
                DetectionPanel(
                    cores=int(p["cores"]),
                    cells=tuple(
                        DetectionCell(
                            utilization=float(c["utilization"]),
                            scheme=str(c["scheme"]),
                            times=tuple(float(t) for t in c["times"]),
                            censored=int(c["censored"]),
                            undetectable=int(c["undetectable"]),
                            allocated=int(c["allocated"]),
                            total=int(c["total"]),
                        )
                        for c in p["cells"]
                    ),
                )
                for p in data["panels"]
            ),
        )

    def _row(self, cell: DetectionCell) -> tuple:
        if cell.times:
            p95 = EmpiricalCDF(cell.times).quantile(0.95)
        else:
            p95 = math.nan
        return (
            f"{cell.utilization:.3f}",
            cell.scheme,
            f"{cell.allocated}/{cell.total}",
            str(cell.attacks),
            str(cell.detected),
            str(cell.censored),
            str(cell.undetectable),
            _fmt_ms(cell.mean_detected),
            _fmt_ms(p95),
        )

    def render_domain(self, domain: DetectionResult) -> str:
        blocks = []
        for panel in domain.panels:
            blocks.append(
                format_table(
                    [
                        "util", "scheme", "alloc", "attacks", "detected",
                        "censored", "undetect.", "mean (ms)", "p95 (ms)",
                    ],
                    [self._row(cell) for cell in panel.cells],
                    title=(
                        f"Detection latency '{domain.name}' — "
                        f"{panel.cores} cores (scale={domain.scale}; "
                        f"censored = horizon ended before a monitor "
                        f"fired)"
                    ),
                )
            )
        return "\n\n".join(blocks)

    def table_rows(self, domain: DetectionResult) -> list[Sequence[Any]]:
        rows = []
        for panel in domain.panels:
            for cell in panel.cells:
                if cell.times:
                    p95 = EmpiricalCDF(cell.times).quantile(0.95)
                else:
                    p95 = None
                rows.append(
                    (
                        panel.cores, cell.utilization, cell.scheme,
                        cell.attacks, cell.detected, cell.censored,
                        cell.undetectable,
                        None if not cell.times else cell.mean_detected,
                        p95,
                    )
                )
        return rows


def _default_detection_config() -> ScenarioConfig:
    """The registered experiment's grid: HYDRA vs the period-adapting
    family under both detection policies, paper workload, coarse
    utilisations (core counts inherit the scale preset)."""
    return ScenarioConfig(
        name="detection-latency",
        cores=(),
        heuristics=("best-fit",),
        orderings=("utilization",),
        admissions=("rta",),
        allocators=("hydra", "adaptive[exact-rta]"),
        allocator_axis=True,
        kind="detection-latency",
        policies=("release-after", "start-after"),
        policy_axis=True,
        utilization_start=0.3,
        utilization_stop=0.7,
        utilization_step=0.2,
    )


@register_experiment("detection-latency")
class DetectionLatencyExperiment(DetectionScenarioExperiment):
    """The registered detection-latency experiment (default grid)."""

    # After the paper set and the ablations: this is an extension
    # family, so `repro-hydra all` reports the reproductions first.
    order = 110
    # 2: each synthetic task set is drawn by the per-instance recipe,
    # with its attack instants drawn right after it.
    version = 2

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        super().__init__(config or _default_detection_config())
        self.name = "detection-latency"
        self.title = (
            "Detection latency — attack injection over the allocator "
            "× policy grid"
        )
        self.description = (
            "Simulate allocated schedules, inject random attacks, and "
            "report detection-time distributions with explicit "
            "censored counts; HYDRA vs the period-adapting allocators "
            "under both detection policies."
        )

    def golden_fixture(self) -> GoldenFixture:
        return GoldenFixture(
            name="detection_mini",
            build_spec=detection_mini_spec,
            summarize=detection_mini_aggregate,
        )


# -- golden fixture ----------------------------------------------------------


def detection_mini_spec() -> "SweepSpec":
    """A tiny fixed-seed detection sweep: 2 cores, 2 task sets, both
    policies, HYDRA vs exact-RTA adaptation.  The horizon is short
    enough that some attacks are censored — a fixture where every
    attack is detected could not discriminate censoring changes."""
    config = dataclasses.replace(
        _default_detection_config(),
        cores=(2,),
        tasksets_per_point=2,
        sim_trials=6,
        sim_duration=3_000.0,
        utilization_start=0.4,
        utilization_stop=0.6,
        utilization_step=0.2,
    )
    (spec,) = DetectionLatencyExperiment(config).sweeps(SCALES["smoke"])
    return spec


def detection_mini_aggregate(
    spec: "SweepSpec", payloads
) -> list[dict[str, Any]]:
    return [
        {
            "utilization": point["utilization"],
            "cells": {
                label: {
                    "detected": len(cell["times"]),
                    "censored": cell["censored"],
                    "undetectable": cell["undetectable"],
                    "allocated": cell["allocated"],
                    "total": cell["total"],
                }
                for label, cell in sorted(payload["cells"].items())
            },
        }
        for point, payload in zip(spec.points, payloads)
    ]
