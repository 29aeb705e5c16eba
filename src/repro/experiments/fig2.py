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
from typing import TYPE_CHECKING, Any, Sequence

from repro.experiments.api import Experiment, GoldenFixture, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_series, format_table, percent
from repro.experiments.scenario import (
    ScenarioExperiment,
    cell_tallies,
    combo_label,
    parse_scenario,
)
from repro.metrics.improvement import acceptance_improvement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "Fig2Point",
    "Fig2Result",
    "Fig2Experiment",
    "fig2_grid",
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


def fig2_grid(cores: Sequence[int]) -> ScenarioExperiment:
    """Fig. 2's scenario grid on ``cores``: HYDRA and SingleCore on
    shared task sets.

    The document is the ``sweep --config`` twin of Fig. 2 (its
    ``cores`` axis is the scale's core counts).  Seed (``scale.seed +
    cores``), task sets per point and utilisation range come from the
    scale it runs at, so Fig. 2, the quality study (its 8-core panel)
    and ``sweep --config`` on the twin run the same sweeps and share
    cache entries.
    """
    return ScenarioExperiment(
        parse_scenario(
            {
                "sweep": {"name": "fig2"},
                "grid": {
                    "cores": list(cores),
                    "allocator": ["hydra", "singlecore"],
                    "heuristic": ["best-fit"],
                    "ordering": ["utilization"],
                    "admission": ["rta"],
                },
            }
        )
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

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        # SingleCore dedicates a core to security, so a 1-core platform
        # has no panel to compare.
        cores = [c for c in scale.core_counts if c >= 2]
        return fig2_grid(cores).sweeps(scale) if cores else []

    def aggregate_domain(self, raw: RawRun) -> Fig2Result:
        points: list[Fig2Point] = []
        for result in raw.sweeps:
            cores = int(result.spec.params["cores"])
            hydra_label, single_label = (
                combo_label(**c) for c in result.spec.params["combos"]
            )
            for point, payload in zip(result.spec.points, result.payloads):
                (hydra,) = cell_tallies(payload, hydra_label)
                (single,) = cell_tallies(payload, single_label)
                points.append(
                    Fig2Point(
                        cores=cores,
                        utilization=float(point["utilization"]),
                        ratio_hydra=hydra.acceptance,
                        ratio_single=single.acceptance,
                        tasksets=hydra.total,
                    )
                )
        return Fig2Result(points=tuple(points), scale=raw.scale.name)

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
