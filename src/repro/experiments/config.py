"""Experiment scaling presets.

The paper's full evaluation (250 task sets × 39 utilisation points ×
3 core counts, 500 s schedules) is hours of compute; tests and default
bench runs need seconds-to-minutes.  Every experiment driver therefore
takes an :class:`ExperimentScale`:

* ``smoke`` — seconds; used by the integration tests.
* ``default`` — minutes; the pytest-benchmark default.
* ``paper`` — the paper's full parameters.

Select globally with the ``REPRO_SCALE`` environment variable (e.g.
``REPRO_SCALE=paper pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from repro.errors import ValidationError

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by the experiment drivers.

    Attributes
    ----------
    name:
        Preset label.
    tasksets_per_point:
        Synthetic task sets per utilisation point (paper: 250).
    utilization_step:
        Sweep step as a fraction of ``M`` (paper: 0.025).
    utilization_start, utilization_stop:
        Sweep endpoints as fractions of ``M`` (paper: 0.025 … 0.975).
    core_counts:
        Platforms to evaluate (paper: 2, 4, 8).
    sim_trials:
        Attacks per task set of a detection-latency grid (Fig. 1 has
        one task set, so this is its attacks per scheme and platform).
    sim_duration:
        Simulated horizon in ms (paper: 500 000).
    fig3_tasksets_per_point:
        Task sets per point for the (exponential-cost) OPT comparison.
    seed:
        Base RNG seed; every driver derives per-point streams from it.
    """

    name: str
    tasksets_per_point: int
    utilization_step: float
    core_counts: tuple[int, ...]
    sim_trials: int
    sim_duration: float
    fig3_tasksets_per_point: int
    utilization_start: float = 0.025
    utilization_stop: float = 0.975
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.tasksets_per_point < 1 or self.fig3_tasksets_per_point < 1:
            raise ValidationError("need at least one task set per point")
        if not (0 < self.utilization_step <= 1):
            raise ValidationError("utilization_step must lie in (0, 1]")
        if self.sim_trials < 1 or not (
            math.isfinite(self.sim_duration) and self.sim_duration > 0
        ):
            raise ValidationError("invalid simulation scale")
        if not self.core_counts:
            raise ValidationError("need at least one core count")
        # numpy's SeedSequence takes no negative entropy, and the
        # experiments derive their seeds by adding offsets to this one.
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        tasksets_per_point=6,
        utilization_step=0.25,
        utilization_start=0.25,
        utilization_stop=0.75,
        core_counts=(2,),
        sim_trials=8,
        sim_duration=30_000.0,
        fig3_tasksets_per_point=3,
    ),
    "default": ExperimentScale(
        name="default",
        tasksets_per_point=40,
        utilization_step=0.1,
        utilization_start=0.05,
        utilization_stop=0.95,
        core_counts=(2, 4, 8),
        sim_trials=60,
        sim_duration=120_000.0,
        fig3_tasksets_per_point=12,
    ),
    "paper": ExperimentScale(
        name="paper",
        tasksets_per_point=250,
        utilization_step=0.025,
        core_counts=(2, 4, 8),
        sim_trials=250,
        sim_duration=500_000.0,
        fig3_tasksets_per_point=50,
    ),
}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a scale by name, falling back to ``$REPRO_SCALE`` and then
    to ``default``."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        raise ValidationError(
            f"unknown scale {name!r}; expected one of {sorted(SCALES)}"
        ) from None
