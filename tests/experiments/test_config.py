"""Unit tests for experiment scaling presets."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.experiments.config import SCALES, ExperimentScale, get_scale


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_paper_matches_publication(self):
        paper = SCALES["paper"]
        assert paper.tasksets_per_point == 250
        assert paper.utilization_step == 0.025
        assert paper.utilization_start == 0.025
        assert paper.utilization_stop == 0.975
        assert paper.core_counts == (2, 4, 8)
        assert paper.sim_duration == 500_000.0

    def test_get_scale_by_name(self):
        assert get_scale("smoke").name == "smoke"

    def test_get_scale_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale().name == "paper"

    def test_get_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "default"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValidationError):
            get_scale("galactic")

    def test_with_overrides(self):
        scale = get_scale("smoke").with_overrides(seed=7)
        assert scale.seed == 7
        assert scale.name == "smoke"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentScale(
                name="bad",
                tasksets_per_point=0,
                utilization_step=0.1,
                core_counts=(2,),
                sim_trials=1,
                sim_duration=1.0,
                fig3_tasksets_per_point=1,
            )
        with pytest.raises(ValidationError):
            ExperimentScale(
                name="bad",
                tasksets_per_point=1,
                utilization_step=0.1,
                core_counts=(),
                sim_trials=1,
                sim_duration=1.0,
                fig3_tasksets_per_point=1,
            )
        for duration in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="simulation scale"):
                ExperimentScale(
                    name="bad",
                    tasksets_per_point=1,
                    utilization_step=0.1,
                    core_counts=(2,),
                    sim_trials=1,
                    sim_duration=duration,
                    fig3_tasksets_per_point=1,
                )
        with pytest.raises(ValidationError, match="seed"):
            get_scale("smoke").with_overrides(seed=-5)
