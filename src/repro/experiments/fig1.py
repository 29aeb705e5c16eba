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
detecting 19.81 / 27.23 / 29.75 % faster on average for 2 / 4 / 8 cores
— the reproduction checks the same ordering and a growing-with-M gap.

The schedules are strictly periodic, hence deterministic: one simulated
horizon per (scheme, M) serves every attack observation.  (Setting
``release_jitter > 0`` switches to sporadic releases with one
simulation per scheme; attack times then sample a jittered schedule.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.allocators import get_allocator
from repro.core.singlecore import build_singlecore_system
from repro.errors import AllocationError
from repro.experiments.api import Experiment, GoldenFixture, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_table, percent
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.improvement import detection_speedup
from repro.model.allocation import Allocation
from repro.model.platform import Platform
from repro.model.system import SystemModel
from repro.partition.heuristics import try_partition_tasks
from repro.sim.attacks import sample_attacks, surfaces_of
from repro.sim.detection import (
    build_surface_map,
    detection_times,
    undetected_breakdown,
)
from repro.sim.runner import simulate_allocation
from repro.taskgen.security_apps import table1_security_tasks
from repro.taskgen.uav import uav_rt_tasks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "Fig1SchemeResult",
    "Fig1Point",
    "Fig1Result",
    "Fig1Experiment",
    "fig1_sweep_spec",
    "format_fig1",
    "build_uav_systems",
    "observe_detections",
]


@dataclass(frozen=True)
class Fig1SchemeResult:
    """Detection-time sample of one scheme on one platform.

    ``inf`` entries in ``times`` are undetected attacks; ``censored``
    counts the ones a monitor *would* have caught had the horizon not
    ended first (the rest had no monitor at all — never the case in the
    UAV study, where every Table I surface is monitored).
    """

    scheme: str
    times: tuple[float, ...]
    censored: int = 0

    @property
    def cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF(self.times)

    @property
    def undetectable(self) -> int:
        """Undetected attacks whose surface no task monitors."""
        return self.cdf.undetected - self.censored

    @property
    def mean(self) -> float:
        return self.cdf.mean_detected()


@dataclass(frozen=True)
class Fig1Point:
    """One panel of Fig. 1 (one core count)."""

    cores: int
    hydra: Fig1SchemeResult
    single: Fig1SchemeResult

    @property
    def speedup(self) -> float:
        """Mean detection-time reduction of HYDRA vs SingleCore (%)."""
        return detection_speedup(self.hydra.times, self.single.times)


@dataclass(frozen=True)
class Fig1Result:
    points: tuple[Fig1Point, ...]
    scale: str

    def panel(self, cores: int) -> Fig1Point:
        for point in self.points:
            if point.cores == cores:
                return point
        raise KeyError(cores)


def build_uav_systems(
    cores: int,
    rt_scale: float = 1.0,
    security_scale: float = 1.0,
) -> tuple[SystemModel, Allocation, SystemModel, Allocation]:
    """Build + allocate the case-study systems for one core count.

    Returns ``(hydra_system, hydra_alloc, single_system, single_alloc)``;
    raises :class:`AllocationError` if either scheme cannot host the
    case study (does not happen at the default parameters).
    """
    platform = Platform(cores)
    rt_tasks = uav_rt_tasks(scale=rt_scale)
    security = table1_security_tasks(wcet_scale=security_scale)

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


def observe_detections(
    system: SystemModel,
    allocation: Allocation,
    sim_duration: float,
    sim_trials: int,
    rng: np.random.Generator,
    policy: str = "release-after",
    release_jitter: float = 0.0,
) -> tuple[tuple[float, ...], int, int]:
    """Simulate ``allocation`` and measure ``sim_trials`` attack
    detections (the Fig. 1 observation protocol).

    Returns ``(times, censored, undetectable)``: the attack window
    stops well before the horizon so the slowest monitor can usually
    still fire, but an attack close to the window end can remain
    undetected purely because the simulation stopped — those samples
    are *censored*, not evidence of undetectability, and are counted
    separately (see :func:`repro.sim.detection.undetected_breakdown`).
    """
    result = simulate_allocation(
        system,
        allocation,
        duration=sim_duration,
        rng=rng,
        release_jitter=release_jitter,
        prune_idle_cores=True,
    )
    # Leave room after the last attack for the slowest monitor to fire:
    # one maximum period plus a generous response allowance.
    tail = max(a.period for a in allocation.assignments) * 2.0
    window_end = max(sim_duration - tail, sim_duration * 0.25)
    attacks = sample_attacks(
        sim_trials,
        (0.0, window_end),
        surfaces_of(system.security_tasks),
        rng=rng,
    )
    times = detection_times(
        result, attacks, system.security_tasks, policy=policy
    )
    surface_map = build_surface_map(system.security_tasks)
    censored, undetectable = undetected_breakdown(times, attacks, surface_map)
    return tuple(times), censored, undetectable


def fig1_sweep_spec(
    scale: ExperimentScale,
    policy: str = "release-after",
    release_jitter: float = 0.0,
) -> "SweepSpec":
    """The Fig. 1 case study as a sweep over core counts."""
    from repro.experiments.parallel import SweepSpec

    return SweepSpec(
        kind="uav-detection",
        seed=scale.seed,
        points=tuple(
            {"cores": cores}
            for cores in scale.core_counts
            if cores >= 2  # SingleCore needs a spare core
        ),
        params={
            "seed": scale.seed,
            "sim_duration": scale.sim_duration,
            "sim_trials": scale.sim_trials,
            "policy": policy,
            "release_jitter": release_jitter,
        },
    )


@register_experiment("fig1")
class Fig1Experiment(Experiment):
    """Fig. 1 on the unified experiment protocol."""

    name = "fig1"
    title = "Fig. 1 — UAV case study: detection-time CDFs"
    description = (
        "Simulate the UAV case study under HYDRA and SingleCore, "
        "attack it at random instants, and report detection-time CDFs "
        "per core count."
    )
    # 2: payloads/data carry explicit censored counts (undetected
    # attacks split into horizon-censored vs truly undetectable).
    version = 2
    tags = ("paper", "figure")
    order = 20
    columns = ("cores", "scheme", "detection_time_ms")

    def __init__(
        self, policy: str = "release-after", release_jitter: float = 0.0
    ) -> None:
        self.policy = policy
        self.release_jitter = release_jitter

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        if all(cores < 2 for cores in scale.core_counts):
            # Degenerate but valid: SingleCore needs a spare core, so
            # there is no panel to run.
            return []
        return [
            fig1_sweep_spec(
                scale, policy=self.policy, release_jitter=self.release_jitter
            )
        ]

    def aggregate_domain(self, raw: RawRun) -> Fig1Result:
        points = [
            Fig1Point(
                cores=int(payload["cores"]),
                hydra=Fig1SchemeResult(
                    scheme="hydra",
                    times=tuple(payload["hydra_times"]),
                    censored=int(payload.get("hydra_censored", 0)),
                ),
                single=Fig1SchemeResult(
                    scheme="singlecore",
                    times=tuple(payload["single_times"]),
                    censored=int(payload.get("single_censored", 0)),
                ),
            )
            for payload in raw.payloads
        ]
        return Fig1Result(points=tuple(points), scale=raw.scale.name)

    def encode_data(self, domain: Fig1Result) -> dict[str, Any]:
        return {
            "scale": domain.scale,
            "points": [
                {
                    "cores": p.cores,
                    "hydra_times": list(p.hydra.times),
                    "hydra_censored": p.hydra.censored,
                    "single_times": list(p.single.times),
                    "single_censored": p.single.censored,
                }
                for p in domain.points
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> Fig1Result:
        return Fig1Result(
            points=tuple(
                Fig1Point(
                    cores=int(p["cores"]),
                    hydra=Fig1SchemeResult(
                        scheme="hydra",
                        times=tuple(float(t) for t in p["hydra_times"]),
                        censored=int(p.get("hydra_censored", 0)),
                    ),
                    single=Fig1SchemeResult(
                        scheme="singlecore",
                        times=tuple(float(t) for t in p["single_times"]),
                        censored=int(p.get("single_censored", 0)),
                    ),
                )
                for p in data["points"]
            ),
            scale=str(data["scale"]),
        )

    def render_domain(self, domain: Fig1Result) -> str:
        return format_fig1(domain)

    def table_rows(self, domain: Fig1Result) -> list[Sequence[Any]]:
        return [
            (point.cores, scheme.scheme, t)
            for point in domain.points
            for scheme in (point.hydra, point.single)
            for t in scheme.times
        ]

    def golden_fixture(self) -> GoldenFixture:
        from repro.experiments.golden import fig1_mini_aggregate, fig1_mini_spec

        return GoldenFixture(
            name="fig1_mini",
            build_spec=fig1_mini_spec,
            summarize=fig1_mini_aggregate,
        )


def format_fig1(result: Fig1Result, grid_points: int = 12) -> str:
    """Render the Fig. 1 reproduction: per-panel CDF table + speedups."""
    blocks: list[str] = []
    for point in result.points:
        hydra_cdf = point.hydra.cdf
        single_cdf = point.single.cdf
        support_hi = max(
            hydra_cdf.support()[1], single_cdf.support()[1], 1.0
        )
        xs = [support_hi * (i + 1) / grid_points for i in range(grid_points)]
        rows = [
            (
                f"{x:.0f}",
                f"{hydra_cdf(x):.3f}",
                f"{single_cdf(x):.3f}",
            )
            for x in xs
        ]
        blocks.append(
            format_table(
                ["detection time (ms)", "CDF HYDRA", "CDF SingleCore"],
                rows,
                title=(
                    f"Fig. 1 — {point.cores} cores "
                    f"({hydra_cdf.sample_size} attacks/scheme, "
                    f"scale={result.scale})"
                ),
            )
        )
        mean_h = point.hydra.mean
        mean_s = point.single.mean
        paper = {2: "19.81%", 4: "27.23%", 8: "29.75%"}.get(
            point.cores, "n/a"
        )
        blocks.append(
            f"mean detection: HYDRA {mean_h:.0f} ms vs SingleCore "
            f"{mean_s:.0f} ms → {percent(point.speedup)} faster "
            f"(paper: {paper} for {point.cores} cores)"
        )
        undetected = [
            f"{scheme.scheme}: {scheme.censored} censored by horizon, "
            f"{scheme.undetectable} undetectable"
            for scheme in (point.hydra, point.single)
            if scheme.cdf.undetected
        ]
        if undetected:
            blocks.append("undetected attacks — " + "; ".join(undetected))
    return "\n\n".join(blocks)
