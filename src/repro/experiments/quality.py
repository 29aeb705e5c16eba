"""Monitoring-quality sweep: tightness vs. utilisation (companion study).

Fig. 2 measures only *feasibility* (acceptance ratio).  The paper's
Fig. 1 narrative — "running security tasks in a single core leads to
higher periods and consequently poorer detection time" — implies a
second, quality dimension that the paper only samples through the UAV
case study.  This experiment quantifies it synthetically: for task sets
that **both** schemes accept, compare the mean tightness (η, directly
proportional to achievable monitoring frequency) that each achieves.

Expected shape: equal at very low utilisation (everything reaches
``T_des``); HYDRA increasingly ahead as load grows, until SingleCore
stops accepting anything at all (where Fig. 2 takes over the story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiments.api import Experiment, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_series, format_table
from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticConfig, utilization_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "QualityPoint",
    "QualityResult",
    "QualityExperiment",
    "quality_sweep_spec",
    "format_quality",
]


def quality_sweep_spec(
    scale: ExperimentScale,
    cores: int = 8,
    config: SyntheticConfig | None = None,
) -> "SweepSpec":
    """The quality sweep as an acceptance sweep (shares Fig. 2's cache
    namespace; distinct seed offset keeps its streams independent)."""
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
        seed=scale.seed + 41,
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


@dataclass(frozen=True)
class QualityPoint:
    """One utilisation point of the quality sweep."""

    cores: int
    utilization: float
    both_accepted: int
    tasksets: int
    mean_tightness_hydra: float
    mean_tightness_single: float

    @property
    def advantage(self) -> float:
        """HYDRA's mean-tightness advantage (absolute η difference)."""
        return self.mean_tightness_hydra - self.mean_tightness_single


@dataclass(frozen=True)
class QualityResult:
    points: tuple[QualityPoint, ...]
    scale: str
    cores: int


@register_experiment("quality")
class QualityExperiment(Experiment):
    """The monitoring-quality sweep on the unified experiment protocol.

    Defaults to 8 cores: the utilisation band where both schemes accept
    task sets but achieve different tightness is widest there (on 2
    cores SingleCore stops accepting anything almost as soon as the
    quality gap opens).
    """

    name = "quality"
    title = "Monitoring quality — tightness on commonly-accepted task sets"
    description = (
        "For task sets both schemes accept, compare the mean tightness "
        "(achievable monitoring frequency) HYDRA and SingleCore reach."
    )
    version = 1
    tags = ("companion",)
    order = 50
    columns = (
        "cores", "utilization", "both_accepted", "mean_tightness_hydra",
        "mean_tightness_single",
    )

    def __init__(
        self, cores: int = 8, config: SyntheticConfig | None = None
    ) -> None:
        self.cores = cores
        self.config = config

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return [quality_sweep_spec(scale, cores=self.cores, config=self.config)]

    def aggregate_domain(self, raw: RawRun) -> QualityResult:
        from repro.experiments.parallel import acceptance_outcomes

        (result,) = raw.sweeps
        scale = raw.scale
        points: list[QualityPoint] = []
        for point, payload in zip(result.spec.points, result.payloads):
            utilization = float(point["utilization"])
            hydra_sum = single_sum = 0.0
            both = 0
            for outcome in acceptance_outcomes(payload):
                if outcome.hydra_schedulable and outcome.single_schedulable:
                    both += 1
                    hydra_sum += outcome.hydra.mean_tightness()
                    single_sum += outcome.single.mean_tightness()
            points.append(
                QualityPoint(
                    cores=self.cores,
                    utilization=utilization,
                    both_accepted=both,
                    tasksets=scale.tasksets_per_point,
                    mean_tightness_hydra=hydra_sum / both if both else 0.0,
                    mean_tightness_single=single_sum / both if both else 0.0,
                )
            )
        return QualityResult(
            points=tuple(points), scale=scale.name, cores=self.cores
        )

    def encode_data(self, domain: QualityResult) -> dict[str, Any]:
        return {
            "scale": domain.scale,
            "cores": domain.cores,
            "points": [
                {
                    "cores": p.cores,
                    "utilization": p.utilization,
                    "both_accepted": p.both_accepted,
                    "tasksets": p.tasksets,
                    "mean_tightness_hydra": p.mean_tightness_hydra,
                    "mean_tightness_single": p.mean_tightness_single,
                }
                for p in domain.points
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> QualityResult:
        return QualityResult(
            points=tuple(
                QualityPoint(
                    cores=int(p["cores"]),
                    utilization=float(p["utilization"]),
                    both_accepted=int(p["both_accepted"]),
                    tasksets=int(p["tasksets"]),
                    mean_tightness_hydra=float(p["mean_tightness_hydra"]),
                    mean_tightness_single=float(p["mean_tightness_single"]),
                )
                for p in data["points"]
            ),
            scale=str(data["scale"]),
            cores=int(data["cores"]),
        )

    def render_domain(self, domain: QualityResult) -> str:
        return format_quality(domain)

    def table_rows(self, domain: QualityResult) -> list[Sequence[Any]]:
        return [
            (p.cores, p.utilization, p.both_accepted,
             p.mean_tightness_hydra, p.mean_tightness_single)
            for p in domain.points
        ]


def format_quality(result: QualityResult) -> str:
    rows = [
        (
            f"{p.utilization:.3f}",
            p.both_accepted,
            f"{p.mean_tightness_hydra:.3f}" if p.both_accepted else "-",
            f"{p.mean_tightness_single:.3f}" if p.both_accepted else "-",
            f"{p.advantage:+.3f}" if p.both_accepted else "-",
        )
        for p in result.points
    ]
    table = format_table(
        ["U_total", "both accepted", "mean η HYDRA", "mean η SingleCore",
         "advantage"],
        rows,
        title=(
            f"Monitoring quality — mean tightness on commonly-accepted "
            f"task sets ({result.cores} cores, scale={result.scale})"
        ),
    )
    usable = [p for p in result.points if p.both_accepted > 0]
    series = format_series(
        [p.utilization for p in usable],
        [p.advantage for p in usable],
        label="HYDRA tightness advantage vs U ",
    )
    return "\n\n".join([table, series])
