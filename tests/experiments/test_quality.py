"""Unit tests for the monitoring-quality sweep."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ValidationError
from repro.experiments.config import SCALES
from repro.experiments.parallel import SweepEngine
from repro.experiments.quality import QualityExperiment, format_quality
from repro.experiments.registry import get_experiment
from repro.experiments.store import ResultStore

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def result():
    scale = SMOKE.with_overrides(
        utilization_start=0.3, utilization_stop=0.8, utilization_step=0.25
    )
    return QualityExperiment().run_domain(scale)


def _oracle_point(utilization: float, tasksets: int, rng):
    """One quality point the way the retired HYDRA-vs-SingleCore trial
    computed it: allocate both schemes per generated task set, then
    average tightness over the task sets both accept, summed in order."""
    from repro.allocators import get_allocator
    from repro.analysis.dbf import necessary_condition
    from repro.core.singlecore import build_singlecore_system
    from repro.experiments.runner import build_hydra_system
    from repro.model.platform import Platform
    from repro.taskgen.synthetic import generate_workload

    platform = Platform(8)
    hydra_allocator = get_allocator("hydra")
    single_allocator = get_allocator("singlecore")
    both = 0
    hydra_sum = single_sum = 0.0
    for _ in range(tasksets):
        workload = generate_workload(platform, utilization, rng)
        for _ in range(16):
            if necessary_condition(workload.rt_tasks, platform):
                break
            workload = generate_workload(platform, utilization, rng)
        hydra_system = build_hydra_system(workload)
        hydra = (
            hydra_allocator.allocate(hydra_system)
            if hydra_system is not None else None
        )
        single_system = build_singlecore_system(
            platform, workload.rt_tasks, workload.security_tasks
        )
        single = (
            single_allocator.allocate(single_system)
            if single_system is not None else None
        )
        if (
            hydra is not None and hydra.schedulable
            and single is not None and single.schedulable
        ):
            both += 1
            hydra_sum += hydra.mean_tightness()
            single_sum += single.mean_tightness()
    return (
        both,
        hydra_sum / both if both else 0.0,
        single_sum / both if both else 0.0,
    )


class TestRunQuality:
    def test_point_structure(self, result):
        assert len(result.points) == 3
        for point in result.points:
            assert point.cores == 8
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
        scale = SMOKE.with_overrides(
            utilization_start=0.98,
            utilization_stop=0.98,
            utilization_step=0.5,
            tasksets_per_point=2,
        )
        tight = QualityExperiment().run_domain(scale)
        text = format_quality(tight)
        assert text  # renders without error even with empty cells


class TestFig2Panel:
    def test_paired_means_match_the_trial_oracle(self):
        """Quality reads Fig. 2's 8-core panel; its paired means must
        equal the retired trial logic on the same point streams, bit
        for bit."""
        from repro.experiments.runner import spawn_streams

        domain = QualityExperiment().run_domain(SMOKE)
        (spec,) = QualityExperiment().sweeps(SMOKE)
        assert spec.seed == SMOKE.seed + 8
        streams = spawn_streams(SMOKE.seed + 8, len(spec.points))
        for point, params, rng in zip(domain.points, spec.points, streams):
            both, hydra, single = _oracle_point(
                params["utilization"], SMOKE.tasksets_per_point, rng
            )
            assert point.both_accepted == both
            assert point.mean_tightness_hydra == hydra
            assert point.mean_tightness_single == single

    def test_runs_from_the_fig2_panel_in_a_shared_store(self, tmp_path):
        scale = SMOKE.with_overrides(core_counts=(8,))
        get_experiment("fig2").run(
            scale, SweepEngine(cache=ResultStore(tmp_path))
        )
        computed: list[int] = []
        engine = SweepEngine(
            cache=ResultStore(tmp_path), on_point_computed=computed.append
        )
        cached = get_experiment("quality").run(scale, engine)
        assert computed == []
        assert cached == get_experiment("quality").run(scale)

    def test_render_rejects_a_v1_result(self):
        quality = get_experiment("quality")
        result = quality.run(SMOKE.with_overrides(tasksets_per_point=1))
        stale = dataclasses.replace(result, version=1)
        with pytest.raises(ValidationError, match="schema v1"):
            quality.render(stale)
