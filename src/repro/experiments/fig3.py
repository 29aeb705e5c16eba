"""Fig. 3 — HYDRA vs the optimal (exhaustive) assignment.

Small setup (M = 2, NS ∈ [2, 6], other parameters per Sec. IV-B); for
every generated task set solve both HYDRA and OPT and record the
difference in cumulative tightness ``Δη = (η_OPT − η_HYDRA)/η_OPT``.
Expected shape: zero through low/medium utilisation, growing at high
utilisation, bounded well under ~22 % on average (the paper's worst
case).

Task sets that even OPT cannot schedule carry no tightness to compare
and are skipped; task sets where only HYDRA fails score Δη = 100 %
(HYDRA delivered none of the achievable tightness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiments.api import Experiment, GoldenFixture, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_series, format_table, percent
from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticConfig, utilization_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "Fig3Point",
    "Fig3Result",
    "Fig3Experiment",
    "fig3_sweep_spec",
    "format_fig3",
]

#: Fig. 3's platform and security-task range.
_FIG3_CORES = 2
_FIG3_SECURITY_COUNT = (2, 6)


@dataclass(frozen=True)
class Fig3Point:
    """One utilisation point of Fig. 3."""

    utilization: float
    mean_gap: float
    max_gap: float
    compared: int  # task sets where OPT was feasible
    hydra_failures: int  # of those, how many HYDRA missed entirely


@dataclass(frozen=True)
class Fig3Result:
    points: tuple[Fig3Point, ...]
    scale: str
    search: str

    @property
    def worst_gap(self) -> float:
        gaps = [p.max_gap for p in self.points if p.compared > 0]
        return max(gaps, default=0.0)


def fig3_sweep_spec(
    scale: ExperimentScale, search: str = "branch-bound"
) -> "SweepSpec":
    """The Fig. 3 HYDRA-vs-OPT comparison as a sweep."""
    from repro.experiments.parallel import SweepSpec, synthetic_config_to_dict

    platform = Platform(_FIG3_CORES)
    config = SyntheticConfig(security_task_count=_FIG3_SECURITY_COUNT)
    utils = utilization_sweep(
        platform,
        step_fraction=scale.utilization_step,
        start_fraction=scale.utilization_start,
        stop_fraction=scale.utilization_stop,
    )
    return SweepSpec(
        kind="fig3-gap",
        seed=scale.seed + 31,
        points=tuple({"utilization": u} for u in utils),
        params={
            "cores": _FIG3_CORES,
            "tasksets_per_point": scale.fig3_tasksets_per_point,
            "search": search,
            "config": synthetic_config_to_dict(config),
        },
    )


@register_experiment("fig3")
class Fig3Experiment(Experiment):
    """Fig. 3 on the unified experiment protocol."""

    name = "fig3"
    title = "Fig. 3 — HYDRA vs optimal: tightness gap"
    description = (
        "Compare HYDRA against the (exponential-cost) optimal "
        "assignment on small systems, recording the cumulative "
        "tightness gap per utilisation point."
    )
    version = 1
    tags = ("paper", "figure")
    order = 40
    columns = (
        "utilization", "mean_gap_pct", "max_gap_pct", "compared",
        "hydra_failures",
    )

    def __init__(self, search: str = "branch-bound") -> None:
        self.search = search

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return [fig3_sweep_spec(scale, search=self.search)]

    def aggregate_domain(self, raw: RawRun) -> Fig3Result:
        (result,) = raw.sweeps
        points: list[Fig3Point] = []
        for point, payload in zip(result.spec.points, result.payloads):
            gaps = [float(g) for g in payload["gaps"]]
            total = 0.0  # left to right: builtin sum compensates from 3.12
            for gap in gaps:
                total += gap
            points.append(
                Fig3Point(
                    utilization=float(point["utilization"]),
                    mean_gap=total / len(gaps) if gaps else 0.0,
                    max_gap=max(gaps, default=0.0),
                    compared=len(gaps),
                    hydra_failures=int(payload["hydra_failures"]),
                )
            )
        return Fig3Result(
            points=tuple(points), scale=raw.scale.name, search=self.search
        )

    def encode_data(self, domain: Fig3Result) -> dict[str, Any]:
        return {
            "scale": domain.scale,
            "search": domain.search,
            "points": [
                {
                    "utilization": p.utilization,
                    "mean_gap": p.mean_gap,
                    "max_gap": p.max_gap,
                    "compared": p.compared,
                    "hydra_failures": p.hydra_failures,
                }
                for p in domain.points
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> Fig3Result:
        return Fig3Result(
            points=tuple(
                Fig3Point(
                    utilization=float(p["utilization"]),
                    mean_gap=float(p["mean_gap"]),
                    max_gap=float(p["max_gap"]),
                    compared=int(p["compared"]),
                    hydra_failures=int(p["hydra_failures"]),
                )
                for p in data["points"]
            ),
            scale=str(data["scale"]),
            search=str(data["search"]),
        )

    def render_domain(self, domain: Fig3Result) -> str:
        return format_fig3(domain)

    def table_rows(self, domain: Fig3Result) -> list[Sequence[Any]]:
        return [
            (p.utilization, p.mean_gap, p.max_gap, p.compared,
             p.hydra_failures)
            for p in domain.points
        ]

    def golden_fixture(self) -> GoldenFixture:
        from repro.experiments.golden import fig3_mini_aggregate, fig3_mini_spec

        return GoldenFixture(
            name="fig3_mini",
            build_spec=fig3_mini_spec,
            summarize=fig3_mini_aggregate,
        )


def format_fig3(result: Fig3Result) -> str:
    rows = [
        (
            f"{p.utilization:.3f}",
            percent(p.mean_gap),
            percent(p.max_gap),
            p.compared,
            p.hydra_failures,
        )
        for p in result.points
    ]
    table = format_table(
        ["U_total", "mean Δη", "max Δη", "compared", "HYDRA-only fails"],
        rows,
        title=(
            f"Fig. 3 — HYDRA vs optimal (M={_FIG3_CORES}, "
            f"NS ∈ {list(_FIG3_SECURITY_COUNT)}, scale={result.scale}, "
            f"search={result.search})"
        ),
    )
    series = format_series(
        [p.utilization for p in result.points],
        [p.mean_gap for p in result.points],
        label="mean Δη vs U ",
    )
    summary = f"worst observed Δη: {percent(result.worst_gap)}"
    return "\n\n".join([table, series, summary])
