"""The ablation study as a first-class Experiment.

:class:`AblationExperiment` puts the whole study — baseline plus every
swap-one variant (see :mod:`repro.ablate.runset`) — on the standard
:class:`~repro.experiments.api.Experiment` protocol, so it runs
through the same :class:`~repro.experiments.parallel.SweepEngine` /
:class:`~repro.jobs.JobRunner` stack as every paper figure: parallel
(``--workers``), cancellable, resumable, per-point content-addressed
caching, serial ≡ pooled ≡ cached byte-identical.  It is not
registered by name (like
:class:`~repro.experiments.scenario.ScenarioExperiment`): the CLI's
``ablate`` subcommand builds one from ``--config``, and the job
service builds one from a ``POST /jobs`` ablation document.

The domain result is :class:`AblationResult` — typed, versioned, with
an exact JSON round trip through the experiment protocol's generic
codec (the result's JSON ``data`` has its field names and shape) and a
flat CSV view — holding the baseline summary, the per-component
importance reports *ranked most-important-first*, explicit
``harmful`` verdicts (swapping the baseline component out improves the
metric), and any skipped variants with reasons.  The scoring
arithmetic itself lives in :mod:`repro.metrics.importance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.ablate.config import AblationConfig
from repro.ablate.runset import AblationRun, SkippedVariant, run_id, run_set
from repro.experiments.api import Experiment, RawRun
from repro.experiments.reporting import format_table
from repro.experiments.scenario import ScenarioExperiment, cell_tallies
from repro.metrics.importance import (
    ImportanceScore,
    rank_scores,
    score_swap,
    swap_verdict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "METRICS",
    "RunSummary",
    "ComponentReport",
    "AblationResult",
    "AblationExperiment",
]

#: Scored metrics in priority order (both "higher is better"): the
#: acceptance ratio ranks first, mean tightness breaks ties.
METRICS = ("acceptance", "mean_tightness")


@dataclass(frozen=True)
class RunSummary:
    """One run's aggregate tallies across every core count and
    utilisation point, plus its stable content-addressed id."""

    run_id: str
    label: str
    accepted: int
    total: int
    tightness_sum: float

    @property
    def acceptance(self) -> float:
        """Accepted fraction over every evaluated task set."""
        return self.accepted / self.total if self.total else 0.0

    @property
    def mean_tightness(self) -> float:
        """Mean tightness over the accepted task sets (0 when none)."""
        return self.tightness_sum / self.accepted if self.accepted else 0.0

    def metrics(self) -> dict[str, float]:
        return {
            "acceptance": self.acceptance,
            "mean_tightness": self.mean_tightness,
        }


@dataclass(frozen=True)
class ComponentReport:
    """One swap's scored outcome: the variant run, its per-metric
    ``(metric, variant − baseline)`` deltas, and the verdict."""

    axis: str
    component: str
    run: RunSummary
    deltas: tuple[tuple[str, float], ...]
    verdict: str

    @property
    def score(self) -> ImportanceScore:
        return ImportanceScore(self.axis, self.component, self.deltas)


@dataclass(frozen=True)
class AblationResult:
    """The study's domain result (ranked most-important-first)."""

    name: str
    scale: str
    cores: tuple[int, ...]
    tasksets_per_point: int
    axes: tuple[str, ...]
    baseline_components: tuple[tuple[str, str], ...]
    baseline: RunSummary
    components: tuple[ComponentReport, ...]
    skipped: tuple[SkippedVariant, ...]

    def harmful(self) -> tuple[ComponentReport, ...]:
        """The swaps flagged harmful, in rank order."""
        return tuple(c for c in self.components if c.verdict == "harmful")


def _summarize_run(
    run: AblationRun,
    sweeps: Sequence[Any],
    scale: "ExperimentScale",
) -> RunSummary:
    label = run.label
    accepted = 0
    total = 0
    tightness_sum = 0.0
    for result in sweeps:
        for payload in result.payloads:
            (tally,) = cell_tallies(payload, label)
            accepted += tally.accepted
            total += tally.total
            tightness_sum += tally.tightness_sum
    return RunSummary(
        run_id=run_id(run, scale),
        label=label,
        accepted=accepted,
        total=total,
        tightness_sum=tightness_sum,
    )


class AblationExperiment(Experiment):
    """A swap-one ablation study on the experiment protocol."""

    version = 1
    tags = ("ablate",)
    columns = (
        "rank", "axis", "component", "run_id", "acceptance",
        "mean_tightness", "acceptance_delta", "tightness_delta", "verdict",
    )

    def __init__(self, config: AblationConfig) -> None:
        self.config = config
        self.name = f"ablate:{config.name}"
        self.title = (
            config.title or f"Ablation study '{config.name}'"
        )
        self.description = config.description

    # -- execution --------------------------------------------------------

    def sweeps(self, scale: "ExperimentScale") -> list["SweepSpec"]:
        """Every run's scenario sweeps, baseline first, one spec per
        core count per run — plain concatenation, so the engine and
        job runner need no ablation awareness at all."""
        runs, _ = run_set(self.config)
        return [
            spec
            for run in runs
            for spec in ScenarioExperiment(run.config).sweeps(scale)
        ]

    # -- aggregation ------------------------------------------------------

    def aggregate_domain(self, raw: RawRun) -> AblationResult:
        runs, skipped = run_set(self.config)
        per_run = len(self.config.baseline.cores)
        summaries = []
        for index, run in enumerate(runs):
            chunk = raw.sweeps[index * per_run:(index + 1) * per_run]
            summaries.append(_summarize_run(run, chunk, raw.scale))
        baseline = summaries[0]
        reports = {}
        for run, summary in zip(runs[1:], summaries[1:]):
            score = score_swap(
                run.axis,
                run.component,
                baseline.metrics(),
                summary.metrics(),
                METRICS,
            )
            reports[(run.axis, run.component)] = ComponentReport(
                axis=run.axis,
                component=run.component,
                run=summary,
                deltas=score.deltas,
                verdict=swap_verdict(score),
            )
        ranked = rank_scores(r.score for r in reports.values())
        tasksets = (
            self.config.baseline.tasksets_per_point
            if self.config.baseline.tasksets_per_point is not None
            else raw.scale.tasksets_per_point
        )
        return AblationResult(
            name=self.config.name,
            scale=raw.scale.name,
            cores=self.config.baseline.cores,
            tasksets_per_point=tasksets,
            axes=self.config.axes,
            baseline_components=tuple(
                (axis, self.config.baseline_component(axis))
                for axis in self.config.axes
            ),
            baseline=baseline,
            components=tuple(
                reports[(s.axis, s.component)] for s in ranked
            ),
            skipped=skipped,
        )

    # -- reporting --------------------------------------------------------

    def render_domain(self, domain: AblationResult) -> str:
        cores = ", ".join(str(c) for c in domain.cores)
        lines = [
            f"Ablation '{domain.name}' — swap-one component importance "
            f"(scale {domain.scale}, cores {cores}, "
            f"{domain.tasksets_per_point} task sets/point)",
            f"baseline: {domain.baseline.label}  "
            f"[run {domain.baseline.run_id[:12]}]",
            f"  acceptance {domain.baseline.acceptance:.4f}   "
            f"mean tightness {domain.baseline.mean_tightness:.4f}   "
            f"({domain.baseline.accepted}/{domain.baseline.total} "
            f"accepted)",
            "",
        ]
        rows = []
        for rank, report in enumerate(domain.components, start=1):
            rows.append(
                (
                    rank,
                    report.axis,
                    report.component,
                    report.run.run_id[:12],
                    f"{report.run.acceptance:.4f}",
                    f"{report.score.delta('acceptance'):+.4f}",
                    f"{report.run.mean_tightness:.4f}",
                    f"{report.score.delta('mean_tightness'):+.4f}",
                    report.verdict,
                )
            )
        lines.append(
            format_table(
                [
                    "rank", "axis", "component", "run", "acceptance",
                    "Δ acc", "tightness", "Δ tight", "verdict",
                ],
                rows,
                title=(
                    "Importance ranking (Δ = variant − baseline; "
                    "positive importance = the baseline component "
                    "carries weight)"
                ),
            )
        )
        harmful = domain.harmful()
        if harmful:
            lines.append("")
            lines.append(
                "harmful components (replacing the baseline choice "
                "improves the metric):"
            )
            for report in harmful:
                incumbent = dict(domain.baseline_components)[report.axis]
                lines.append(
                    f"  {report.axis}: {incumbent} → {report.component} "
                    f"(acceptance {report.score.delta('acceptance'):+.4f}, "
                    f"tightness "
                    f"{report.score.delta('mean_tightness'):+.4f})"
                )
        else:
            lines.append("")
            lines.append(
                "harmful components: none — every swap degrades (or "
                "ties) the baseline"
            )
        if domain.skipped:
            lines.append("")
            for s in domain.skipped:
                lines.append(
                    f"skipped: {s.axis}={s.component} — {s.reason}"
                )
        return "\n".join(lines)

    def table_rows(self, domain: AblationResult) -> list[Sequence[Any]]:
        rows: list[Sequence[Any]] = [
            (
                0, "baseline", domain.baseline.label,
                domain.baseline.run_id, domain.baseline.acceptance,
                domain.baseline.mean_tightness, 0.0, 0.0, "baseline",
            )
        ]
        for rank, report in enumerate(domain.components, start=1):
            rows.append(
                (
                    rank,
                    report.axis,
                    report.component,
                    report.run.run_id,
                    report.run.acceptance,
                    report.run.mean_tightness,
                    report.score.delta("acceptance"),
                    report.score.delta("mean_tightness"),
                    report.verdict,
                )
            )
        return rows
