"""Deterministic ablation run-set generation with stable run ids.

The run set of an :class:`~repro.ablate.config.AblationConfig` is the
baseline plus one *swap-one* variant per registered component on every
ablated axis (the incumbent itself is skipped — swapping a component
for itself is the baseline).  Generation is fully deterministic: axes
in the canonical :data:`~repro.ablate.config.AXES` order, components
in registry order, baseline first — so the i-th run of a config is
always the same run, and
:meth:`~repro.ablate.experiment.AblationExperiment.aggregate_domain`
can pair raw sweep results back to runs positionally.

**Run ids are content-addressed.**  Each run *is* a one-cell
:class:`~repro.experiments.scenario.ScenarioConfig` (the baseline with
exactly one axis replaced), and its id is the
:meth:`~repro.experiments.api.Experiment.spec_hash` of the
corresponding :class:`~repro.experiments.scenario.ScenarioExperiment`
at the study's scale — the same fingerprint the job runner derives job
ids from.  Because every run reuses the scenario sweep machinery
unchanged (same seeds, same per-point cache keys), repeated ``ablate``
invocations — and any earlier ``sweep`` run that evaluated the same
cell — are warm-cache hits, and *adding* a component to a registry
never invalidates the other runs' cached points.

All runs share ``seed + cores`` per core count, so every variant
evaluates against the same per-point RNG streams as the baseline:
runs differing only in analysis components (heuristic, ordering,
admission, allocator) see byte-identical task sets, which is what
makes their metric deltas paired comparisons rather than noise.

Variants that cannot run are *recorded*, not silently dropped: the
``singlecore`` allocator needs at least two cores (one is dedicated to
security), so on a single-core study its swap is reported in
``AblationResult.skipped`` with the reason.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ablate.config import AblationConfig, axis_components
from repro.experiments.scenario import ScenarioConfig, combo_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale

__all__ = ["AblationRun", "SkippedVariant", "run_set", "run_id"]

#: ScenarioConfig field holding each axis's component tuple.
_AXIS_FIELDS = {
    "heuristic": "heuristics",
    "ordering": "orderings",
    "admission": "admissions",
    "allocator": "allocators",
    "workload": "workloads",
}


@dataclass(frozen=True)
class AblationRun:
    """One run of the study: the baseline (``axis is None``) or the
    variant swapping ``component`` in on ``axis``."""

    axis: str | None
    component: str | None
    config: ScenarioConfig

    @property
    def label(self) -> str:
        """The run's single cell label (full design point,
        ``workload::allocator|heuristic/ordering/admission``)."""
        return combo_label(**self.config.combos[0])


@dataclass(frozen=True)
class SkippedVariant:
    """A swap that cannot run on this study's platform, with why."""

    axis: str
    component: str
    reason: str


def _variant_config(
    config: AblationConfig, axis: str, component: str
) -> ScenarioConfig:
    """The baseline scenario with exactly one axis swapped."""
    return dataclasses.replace(
        config.baseline,
        name=f"{config.name}:{axis}={component}",
        **{_AXIS_FIELDS[axis]: (component,)},
    )


def run_set(
    config: AblationConfig,
) -> tuple[tuple[AblationRun, ...], tuple[SkippedVariant, ...]]:
    """The study's deterministic run set: ``(runs, skipped)``.

    ``runs[0]`` is always the baseline; variants follow in canonical
    axis order, components in registry order, incumbents excluded.
    """
    baseline = dataclasses.replace(
        config.baseline, name=f"{config.name}:baseline"
    )
    runs = [AblationRun(axis=None, component=None, config=baseline)]
    skipped = []
    for axis in config.axes:
        incumbent = config.baseline_component(axis)
        for component in axis_components(axis):
            if component == incumbent:
                continue
            if (
                axis == "allocator"
                and component == "singlecore"
                and any(c < 2 for c in config.baseline.cores)
            ):
                skipped.append(
                    SkippedVariant(
                        axis=axis,
                        component=component,
                        reason=(
                            "singlecore dedicates one core to security "
                            "tasks, so it needs every core count >= 2"
                        ),
                    )
                )
                continue
            runs.append(
                AblationRun(
                    axis=axis,
                    component=component,
                    config=_variant_config(config, axis, component),
                )
            )
    return tuple(runs), tuple(skipped)


def run_id(run: AblationRun, scale: "ExperimentScale") -> str:
    """The run's stable content-addressed id at ``scale``.

    The ``spec_hash`` of the run's one-cell scenario experiment — the
    exact fingerprint :func:`repro.jobs.derive_job_id` builds job ids
    from, covering the spec and every sweep (and therefore every
    per-point cache key).  Identical run, identical id, across
    processes and releases.
    """
    from repro.experiments.scenario import ScenarioExperiment

    return ScenarioExperiment(run.config).spec_hash(scale)
