"""Unit tests for the Sec. IV-B synthetic workload recipe."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.model.platform import Platform
from repro.model.task import total_utilization
from repro.taskgen.synthetic import (
    _MIN_TASK_UTIL,
    UTILIZATION_SPLITS,
    SyntheticConfig,
    generate_workload,
    utilization_sweep,
)


def _achieved(workload) -> float:
    """Total utilisation, security tasks at their desired rate."""
    return total_utilization((*workload.rt_tasks, *workload.security_tasks))


class TestSyntheticConfig:
    def test_paper_defaults(self):
        config = SyntheticConfig()
        assert config.rt_tasks_per_core == (3, 10)
        assert config.security_tasks_per_core == (2, 5)
        assert config.rt_period_range == (10.0, 1000.0)
        assert config.security_period_des_range == (1000.0, 3000.0)
        assert config.period_max_factor == 10.0
        assert config.security_utilization_fraction == 0.3

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(rt_tasks_per_core=(5, 3))
        with pytest.raises(ValidationError):
            SyntheticConfig(rt_period_range=(0.0, 100.0))
        with pytest.raises(ValidationError):
            SyntheticConfig(period_max_factor=0.5)
        with pytest.raises(ValidationError):
            SyntheticConfig(security_utilization_fraction=0.0)
        with pytest.raises(ValidationError):
            SyntheticConfig(security_task_count=(0, 3))


class TestGenerateWorkload:
    def test_task_counts_in_paper_ranges(self, rng):
        for _ in range(10):
            wl = generate_workload(2, 1.0, rng)
            assert 6 <= len(wl.rt_tasks) <= 20
            assert 4 <= len(wl.security_tasks) <= 10

    def test_absolute_count_override(self, rng):
        config = SyntheticConfig(
            rt_task_count=(3, 3), security_task_count=(2, 6)
        )
        for _ in range(10):
            wl = generate_workload(4, 1.0, rng, config)
            assert len(wl.rt_tasks) == 3
            assert 2 <= len(wl.security_tasks) <= 6

    def test_total_utilization_matches_target(self, rng):
        wl = generate_workload(2, 1.3, rng)
        assert _achieved(wl) == pytest.approx(1.3, abs=0.01)

    def test_security_fraction_respected(self, rng):
        wl = generate_workload(2, 1.3, rng)
        assert total_utilization(wl.security_tasks) <= (
            0.3 * total_utilization(wl.rt_tasks) + 0.01
        )

    def test_periods_within_ranges(self, rng):
        wl = generate_workload(2, 1.0, rng)
        for task in wl.rt_tasks:
            assert 10.0 <= task.period <= 1000.0
        for task in wl.security_tasks:
            assert 1000.0 <= task.period_des <= 3000.0
            assert task.period_max == pytest.approx(10.0 * task.period_des)

    def test_all_wcets_positive(self, rng):
        wl = generate_workload(4, 2.0, rng)
        assert all(t.wcet > 0 for t in wl.rt_tasks)
        assert all(t.wcet > 0 for t in wl.security_tasks)

    def test_accepts_platform_or_int(self, rng):
        assert generate_workload(Platform(2), 1.0, rng).platform == Platform(2)
        assert generate_workload(2, 1.0, rng).platform == Platform(2)

    def test_accepts_integer_seed(self):
        a = generate_workload(2, 1.0, 42)
        b = generate_workload(2, 1.0, 42)
        assert a.rt_tasks == b.rt_tasks
        assert a.security_tasks == b.security_tasks

    def test_invalid_utilization_rejected(self, rng):
        with pytest.raises(ValidationError):
            generate_workload(2, 0.0, rng)
        with pytest.raises(ValidationError):
            generate_workload(2, 2.5, rng)

    def test_high_utilization_generates(self, rng):
        wl = generate_workload(8, 7.8, rng)
        assert _achieved(wl) == pytest.approx(7.8, abs=0.05)

    @pytest.mark.parametrize("split", UTILIZATION_SPLITS)
    def test_splits_hit_target_and_stay_admissible(self, rng, split):
        wl = generate_workload(2, 1.3, rng, split=split)
        assert _achieved(wl) == pytest.approx(1.3, rel=1e-6)
        for task in wl.rt_tasks:
            assert task.utilization <= 1.0 + 1e-9

    def test_unknown_split_rejected(self, rng):
        with pytest.raises(ValidationError, match="alchemy"):
            generate_workload(2, 1.0, rng, split="alchemy")


class TestMinUtilFloorRegression:
    """The ``_MIN_TASK_UTIL`` floor must not push the achieved total
    above target at extreme low-U / high-M corners.

    With ``U = 0.025·M`` on ``M = 16`` the recipe spreads ~0.3 of
    real-time utilisation over up to 160 tasks; the raw
    ``maximum(utils, floor)`` clamp used to drift the sum up by as much
    as ``count·1e-5`` here.  The box projection redistributes the
    clamped mass instead, keeping the sum exact.
    """

    def test_extreme_corner_stays_on_target(self):
        m, target = 16, 0.025 * 16
        floored = 0
        for seed in range(40):
            wl = generate_workload(m, target, np.random.default_rng(seed))
            assert _achieved(wl) <= target * (1 + 1e-9) + 1e-12, (
                f"seed {seed}: drifted to {_achieved(wl)}"
            )
            assert _achieved(wl) == pytest.approx(target, rel=1e-6)
            floored += sum(
                1
                for t in wl.rt_tasks
                if t.utilization <= _MIN_TASK_UTIL * (1 + 1e-6)
            )
        # the corner genuinely exercises the clamp, not just misses it
        assert floored > 0

    def test_floor_still_enforced(self):
        m, target = 16, 0.4
        for seed in range(10):
            wl = generate_workload(m, target, np.random.default_rng(seed))
            for task in wl.rt_tasks:
                assert task.wcet > 0.0
                assert task.utilization >= _MIN_TASK_UTIL * (1 - 1e-9)


class TestGenerateWorkloadBatch:
    """A batch of task sets drawn back to back from one stream, one
    :func:`generate_workload` call each: how a grid point draws its
    ``tasksets_per_point`` instances
    (:func:`~repro.experiments.scenario.point_workloads`)."""

    @staticmethod
    def _batch(m, targets, seed, config=None, split="randfixedsum"):
        rng = np.random.default_rng(seed)
        return [generate_workload(m, u, rng, config, split) for u in targets]

    def test_matches_targets_and_invariants(self):
        targets = [0.3, 0.9, 0.9, 1.5]
        batch = self._batch(2, targets, 42)
        assert [w.target_utilization for w in batch] == targets
        for wl in batch:
            assert _achieved(wl) == pytest.approx(
                wl.target_utilization, rel=1e-6
            )
            assert 6 <= len(wl.rt_tasks) <= 20
            assert 4 <= len(wl.security_tasks) <= 10
            for task in wl.rt_tasks:
                assert 10.0 <= task.period <= 1000.0
                assert task.wcet > 0.0
            for task in wl.security_tasks:
                assert 1000.0 <= task.period_des <= 3000.0
                assert task.wcet > 0.0
        # equal targets are successive draws, not repeats
        assert batch[1].rt_tasks != batch[2].rt_tasks

    def test_deterministic_per_stream(self):
        a = self._batch(2, [0.5, 1.0], 7)
        b = self._batch(2, [0.5, 1.0], 7)
        assert all(
            x.rt_tasks == y.rt_tasks and x.security_tasks == y.security_tasks
            for x, y in zip(a, b)
        )
        assert a[0].rt_tasks != self._batch(2, [0.5], 8)[0].rt_tasks

    def test_empty_batch(self):
        # a point with no task sets yields nothing and draws nothing
        from repro.experiments.scenario import point_workloads

        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert list(point_workloads(Platform(2), [{}], 0, 1.0, rng)) == []
        assert rng.bit_generator.state == state

    def test_invalid_target_rejected(self):
        # the rejected draw leaves the stream where the last good one
        # left it
        rng = np.random.default_rng(1)
        generate_workload(2, 0.5, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            generate_workload(2, 2.5, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("split", UTILIZATION_SPLITS)
    def test_splits_supported(self, split):
        batch = self._batch(2, [1.3, 1.3], 3, split=split)
        for wl in batch:
            assert _achieved(wl) == pytest.approx(1.3, rel=1e-6)
        assert batch[0].rt_tasks != batch[1].rt_tasks

    def test_config_respected(self):
        config = SyntheticConfig(
            rt_task_count=(3, 3), security_task_count=(2, 2)
        )
        for wl in self._batch(4, [1.0, 2.0], 5, config):
            assert wl.config is config
            assert len(wl.rt_tasks) == 3
            assert len(wl.security_tasks) == 2


class TestUtilizationSweep:
    def test_paper_grid(self):
        points = list(utilization_sweep(2))
        assert len(points) == 39
        assert points[0] == pytest.approx(0.05)
        assert points[-1] == pytest.approx(1.95)

    def test_scales_with_cores(self):
        points = list(utilization_sweep(8))
        assert points[0] == pytest.approx(0.2)
        assert points[-1] == pytest.approx(7.8)

    def test_custom_grid(self):
        points = list(
            utilization_sweep(
                2, step_fraction=0.25, start_fraction=0.25,
                stop_fraction=0.75,
            )
        )
        assert points == pytest.approx([0.5, 1.0, 1.5])

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValidationError):
            list(utilization_sweep(2, start_fraction=0.0))
        with pytest.raises(ValidationError):
            list(
                utilization_sweep(
                    2, start_fraction=0.9, stop_fraction=0.5
                )
            )
