"""Fig. 2 — improvement in acceptance ratio, HYDRA vs SingleCore.

For each core count ``M`` and each total utilisation on the paper's
grid, generate synthetic task sets (Sec. IV-B recipe) and record the
fraction each scheme schedules.  The paper's observed shape: both
schemes agree at low utilisation (ample slack everywhere) and HYDRA
pulls ahead sharply at high utilisation, where funnelling every
security task through one core starves the low-priority ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiments.api import Experiment, GoldenFixture, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_series, format_table, percent
from repro.metrics.acceptance import AcceptanceCounter
from repro.metrics.improvement import acceptance_improvement
from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticConfig, utilization_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "Fig2Point",
    "Fig2Result",
    "Fig2Experiment",
    "fig2_sweep_spec",
    "format_fig2",
]


@dataclass(frozen=True)
class Fig2Point:
    """One utilisation point of one Fig. 2 panel."""

    cores: int
    utilization: float
    ratio_hydra: float
    ratio_single: float
    tasksets: int

    @property
    def normalized_utilization(self) -> float:
        return self.utilization / self.cores

    @property
    def improvement(self) -> float:
        """The Fig. 2 y-value (see DESIGN §4 on the formula)."""
        return acceptance_improvement(self.ratio_hydra, self.ratio_single)


@dataclass(frozen=True)
class Fig2Result:
    """All panels of Fig. 2 (one per core count)."""

    points: tuple[Fig2Point, ...]
    scale: str

    def panel(self, cores: int) -> list[Fig2Point]:
        return [p for p in self.points if p.cores == cores]

    @property
    def core_counts(self) -> list[int]:
        return sorted({p.cores for p in self.points})


def fig2_sweep_spec(
    cores: int,
    scale: ExperimentScale,
    config: SyntheticConfig | None = None,
) -> "SweepSpec":
    """One Fig. 2 panel (one core count) as an acceptance sweep.

    The seed (``scale.seed + cores``) and per-point SeedSequence
    streams match what the serial seed code consumed, so engine runs
    reproduce the historical results bit-for-bit.
    """
    from repro.experiments.parallel import SweepSpec, synthetic_config_to_dict

    platform = Platform(cores)
    utils = utilization_sweep(
        platform,
        step_fraction=scale.utilization_step,
        start_fraction=scale.utilization_start,
        stop_fraction=scale.utilization_stop,
    )
    return SweepSpec(
        kind="acceptance",
        seed=scale.seed + cores,
        points=tuple({"utilization": u} for u in utils),
        params={
            "cores": cores,
            "tasksets_per_point": scale.tasksets_per_point,
            "config": (
                synthetic_config_to_dict(config) if config is not None
                else None
            ),
        },
    )


@register_experiment("fig2")
class Fig2Experiment(Experiment):
    """Fig. 2 on the unified experiment protocol."""

    name = "fig2"
    title = "Fig. 2 — acceptance-ratio improvement, HYDRA vs SingleCore"
    description = (
        "Monte-Carlo acceptance-ratio sweep over the paper's "
        "utilisation grid, one panel per core count."
    )
    version = 1
    tags = ("paper", "figure")
    order = 30
    columns = (
        "cores", "utilization", "accept_hydra", "accept_single",
        "improvement_pct",
    )

    def __init__(self, config: SyntheticConfig | None = None) -> None:
        self.config = config

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return [
            fig2_sweep_spec(cores, scale, self.config)
            for cores in scale.core_counts
        ]

    def aggregate_domain(self, raw: RawRun) -> Fig2Result:
        from repro.experiments.parallel import acceptance_outcomes

        scale = raw.scale
        points: list[Fig2Point] = []
        for result in raw.sweeps:
            cores = int(result.spec.params["cores"])
            for point, payload in zip(result.spec.points, result.payloads):
                hydra_counter = AcceptanceCounter()
                single_counter = AcceptanceCounter()
                for outcome in acceptance_outcomes(payload):
                    hydra_counter.record(outcome.hydra_schedulable)
                    single_counter.record(outcome.single_schedulable)
                points.append(
                    Fig2Point(
                        cores=cores,
                        utilization=float(point["utilization"]),
                        ratio_hydra=hydra_counter.ratio,
                        ratio_single=single_counter.ratio,
                        tasksets=scale.tasksets_per_point,
                    )
                )
        return Fig2Result(points=tuple(points), scale=scale.name)

    def encode_data(self, domain: Fig2Result) -> dict[str, Any]:
        return {
            "scale": domain.scale,
            "points": [
                {
                    "cores": p.cores,
                    "utilization": p.utilization,
                    "ratio_hydra": p.ratio_hydra,
                    "ratio_single": p.ratio_single,
                    "tasksets": p.tasksets,
                }
                for p in domain.points
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> Fig2Result:
        return Fig2Result(
            points=tuple(
                Fig2Point(
                    cores=int(p["cores"]),
                    utilization=float(p["utilization"]),
                    ratio_hydra=float(p["ratio_hydra"]),
                    ratio_single=float(p["ratio_single"]),
                    tasksets=int(p["tasksets"]),
                )
                for p in data["points"]
            ),
            scale=str(data["scale"]),
        )

    def render_domain(self, domain: Fig2Result) -> str:
        return format_fig2(domain)

    def table_rows(self, domain: Fig2Result) -> list[Sequence[Any]]:
        return [
            (p.cores, p.utilization, p.ratio_hydra, p.ratio_single,
             p.improvement)
            for p in domain.points
        ]

    def golden_fixture(self) -> GoldenFixture:
        from repro.experiments.golden import fig2_mini_aggregate, fig2_mini_spec

        return GoldenFixture(
            name="fig2_mini",
            build_spec=fig2_mini_spec,
            summarize=fig2_mini_aggregate,
        )


def format_fig2(result: Fig2Result) -> str:
    """Render the Fig. 2 reproduction as tables plus ASCII series."""
    blocks: list[str] = []
    for cores in result.core_counts:
        panel = result.panel(cores)
        rows = [
            (
                f"{p.utilization:.3f}",
                f"{p.normalized_utilization:.3f}",
                f"{p.ratio_hydra:.3f}",
                f"{p.ratio_single:.3f}",
                percent(p.improvement),
            )
            for p in panel
        ]
        blocks.append(
            format_table(
                ["U_total", "U/M", "accept(HYDRA)", "accept(SingleCore)",
                 "improvement"],
                rows,
                title=f"Fig. 2 — {cores} cores "
                      f"({panel[0].tasksets} task sets/point, "
                      f"scale={result.scale})",
            )
        )
        blocks.append(
            format_series(
                [p.normalized_utilization for p in panel],
                [p.improvement for p in panel],
                label=f"improvement vs U/M ({cores} cores) ",
            )
        )
    return "\n\n".join(blocks)
