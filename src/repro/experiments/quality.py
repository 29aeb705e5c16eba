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
from typing import TYPE_CHECKING, Any, Sequence

from repro.experiments.api import Experiment, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.fig2 import fig2_grid
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_series, format_table
from repro.experiments.scenario import cell_tallies, combo_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "QualityPoint",
    "QualityResult",
    "QualityExperiment",
    "format_quality",
]


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

    A view of Fig. 2's 8-core panel
    (:func:`~repro.experiments.fig2.fig2_grid`): the same sweep, so with
    a store ``repro all`` computes it once.  8 cores because the
    utilisation band where both schemes accept task sets but achieve
    different tightness is widest there (on 2 cores SingleCore stops
    accepting anything almost as soon as the quality gap opens).
    """

    name = "quality"
    title = "Monitoring quality — tightness on commonly-accepted task sets"
    description = (
        "For task sets both schemes accept, compare the mean tightness "
        "(achievable monitoring frequency) HYDRA and SingleCore reach."
    )
    # 2: reads Fig. 2's 8-core panel, seeded scale.seed + 8 (was + 41).
    version = 2
    tags = ("companion",)
    order = 50
    columns = (
        "cores", "utilization", "both_accepted", "mean_tightness_hydra",
        "mean_tightness_single",
    )
    cores = 8

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return fig2_grid([self.cores]).sweeps(scale)

    def aggregate_domain(self, raw: RawRun) -> QualityResult:
        (result,) = raw.sweeps
        labels = [combo_label(**c) for c in result.spec.params["combos"]]
        points: list[QualityPoint] = []
        for point, payload in zip(result.spec.points, result.payloads):
            hydra, single = cell_tallies(payload, *labels)
            points.append(
                QualityPoint(
                    cores=self.cores,
                    utilization=float(point["utilization"]),
                    both_accepted=hydra.accepted,
                    tasksets=hydra.total,
                    mean_tightness_hydra=hydra.mean_tightness,
                    mean_tightness_single=single.mean_tightness,
                )
            )
        return QualityResult(
            points=tuple(points), scale=raw.scale.name, cores=self.cores
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
