"""Unit tests for the monitoring-quality sweep."""

from __future__ import annotations

import pytest

from repro.experiments.config import SCALES
from repro.experiments.quality import QualityExperiment, format_quality


@pytest.fixture(scope="module")
def result():
    scale = SCALES["smoke"].with_overrides(
        utilization_start=0.3, utilization_stop=0.8, utilization_step=0.25
    )
    return QualityExperiment(cores=4).run_domain(scale)


class TestRunQuality:
    def test_point_structure(self, result):
        assert len(result.points) == 3
        for point in result.points:
            assert point.cores == 4
            assert 0 <= point.both_accepted <= point.tasksets

    def test_tightness_within_unit_range(self, result):
        for point in result.points:
            if point.both_accepted:
                assert 0.0 < point.mean_tightness_hydra <= 1.0 + 1e-9
                assert 0.0 < point.mean_tightness_single <= 1.0 + 1e-9

    def test_hydra_never_worse(self, result):
        for point in result.points:
            if point.both_accepted:
                assert point.advantage >= -1e-9

    def test_low_utilization_parity(self, result):
        first = result.points[0]
        assert first.both_accepted == first.tasksets
        assert first.advantage == pytest.approx(0.0, abs=1e-6)

    def test_formatting(self, result):
        text = format_quality(result)
        assert "Monitoring quality" in text
        assert "advantage" in text

    def test_empty_points_render_dashes(self):
        scale = SCALES["smoke"].with_overrides(
            utilization_start=0.98,
            utilization_stop=0.98,
            utilization_step=0.5,
            tasksets_per_point=2,
        )
        tight = QualityExperiment(cores=2).run_domain(scale)
        text = format_quality(tight)
        assert text  # renders without error even with empty cells
