"""Unit tests for sub-WCET execution-time variation."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.engine import SimTask, Simulator
from sim_jobs import finished_jobs_of


class TestExecutionFactor:
    def test_default_runs_exactly_wcet(self):
        task = SimTask(name="t", wcet=2.0, period=10.0, priority=0, core=0)
        result = Simulator([task], num_cores=1, duration=100.0, rng=1).run()
        assert result.busy_time[0] == pytest.approx(20.0)

    def test_varied_execution_shortens_busy_time(self):
        task = SimTask(
            name="t", wcet=2.0, period=10.0, priority=0, core=0,
            execution_factor=0.5,
        )
        result = Simulator([task], num_cores=1, duration=1000.0, rng=1).run()
        busy = result.busy_time[0]
        # 100 jobs, each in [1, 2] → busy in [100, 200], mean ≈ 150.
        assert 100.0 <= busy <= 200.0
        assert busy < 200.0 - 1e-6

    def test_every_job_within_bounds(self):
        task = SimTask(
            name="t", wcet=4.0, period=10.0, priority=0, core=0,
            execution_factor=0.25,
        )
        result = Simulator(
            [task], num_cores=1, duration=500.0, rng=2,
            collect_slices=True,
        ).run()
        # Per-job execution: reconstruct from response times of the
        # isolated task (no interference → response = execution).
        for job in result.jobs:
            if job.completion is not None:
                assert 1.0 - 1e-9 <= job.completion - job.release <= 4.0 + 1e-9

    def test_responses_never_exceed_worst_case(self):
        hi = SimTask(
            name="hi", wcet=2.0, period=7.0, priority=0, core=0,
            execution_factor=0.5,
        )
        lo = SimTask(
            name="lo", wcet=3.0, period=20.0, priority=1, core=0,
            execution_factor=0.5,
        )
        result = Simulator(
            [hi, lo], num_cores=1, duration=2000.0, rng=3
        ).run()
        from repro.analysis.rta import response_time

        bound = response_time(3.0, [(2.0, 7.0)])
        for job in finished_jobs_of(result, "lo"):
            assert job.completion - job.release <= bound + 1e-9

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValidationError):
            SimTask(
                name="t", wcet=1.0, period=10.0, priority=0, core=0,
                execution_factor=0.0,
            )
        with pytest.raises(ValidationError):
            SimTask(
                name="t", wcet=1.0, period=10.0, priority=0, core=0,
                execution_factor=1.5,
            )

    def test_detection_faster_with_lighter_execution(self, loaded_system):
        from repro.core.hydra import HydraAllocator
        from repro.sim.runner import simulate_allocation

        allocation = HydraAllocator().allocate(loaded_system)
        worst = simulate_allocation(
            loaded_system, allocation, duration=6000.0, rng=4
        )
        light = simulate_allocation(
            loaded_system, allocation, duration=6000.0, rng=4,
            execution_factor=0.3,
        )
        def responses(result, name):
            """Response times of ``name``'s jobs (``None``: unfinished)."""
            return [
                None if job.completion is None
                else job.completion - job.release
                for job in result.jobs if job.task == name
            ]

        def mean(values):
            return sum(values) / len(values) if values else float("inf")

        for name in loaded_system.security_tasks.names:
            light_responses = responses(light, name)
            if light_responses and None not in light_responses:
                worst_responses = [
                    r for r in responses(worst, name) if r is not None
                ]
                assert mean(light_responses) <= mean(worst_responses) + 1e-6
