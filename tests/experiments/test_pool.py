"""Unit tests for the pool executor's fork pool and its owners.

The pool's contract: spawning is lazy and logged, one pool serves any
number of sweeps of its owner (a :class:`PoolExecutor` handed to
engines, a bare ``SweepEngine(workers=N)``, a :class:`JobRunner`),
closing is explicit, idempotent and survivable, no worker outlives its
owner, and none of it affects result bytes (per-point SeedSequence
streams).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import sys
import threading

import pytest

from repro.errors import ValidationError
from repro.executors import PoolExecutor
from repro.experiments.parallel import SweepEngine, SweepSpec, execute_point
from repro.jobs import JobRunner


def _calibration_spec(points: int = 4, seed: int = 7) -> SweepSpec:
    return SweepSpec(
        kind="calibration",
        seed=seed,
        points=tuple({"index": i} for i in range(points)),
    )


def _reference(spec: SweepSpec, indices) -> list[tuple[int, dict]]:
    return [(i, execute_point(spec, i)) for i in indices]


def _bytes(result) -> bytes:
    return json.dumps(result.payloads, sort_keys=True).encode()


class TestPoolExecutor:
    def test_spawn_is_lazy(self):
        with PoolExecutor(2) as executor:
            assert executor._pool is None
            assert executor.spawn_count == 0
            spec = _calibration_spec(points=3)
            assert executor.run_points(spec, [0, 1, 2]) == _reference(
                spec, [0, 1, 2]
            )
            assert executor._pool is not None
            assert executor.spawn_count == 1

    def test_spawn_is_logged(self, caplog):
        with PoolExecutor(2) as executor:
            with caplog.at_level(logging.INFO, logger="repro.pool"):
                executor.run_points(_calibration_spec(), [0, 1])
        spawns = [
            r for r in caplog.records
            if r.message.startswith("spawned worker pool: 2 processes")
        ]
        assert len(spawns) == 1

    def test_reuse_does_not_respawn(self):
        with PoolExecutor(2) as executor:
            for seed in range(3):
                executor.run_points(_calibration_spec(seed=seed), [0, 1])
            assert executor.spawn_count == 1

    def test_serial_executor_never_spawns(self):
        executor = PoolExecutor(1)
        spec = _calibration_spec(points=2)
        assert executor.run_points(spec, [0, 1]) == _reference(spec, [0, 1])
        assert executor._pool is None
        assert executor.spawn_count == 0

    def test_any_index_sequence_is_accepted(self):
        spec = _calibration_spec(points=5)
        with PoolExecutor(2) as executor:
            assert executor.run_points(spec, range(5)) == _reference(
                spec, range(5)
            )
            assert executor.run_points(spec, (3, 4)) == _reference(
                spec, (3, 4)
            )

    def test_close_is_idempotent_and_survivable(self):
        executor = PoolExecutor(2)
        spec = _calibration_spec()
        executor.run_points(spec, [0, 1])
        executor.close()
        executor.close()
        assert executor._pool is None
        # Using a closed executor simply respawns its pool.
        assert executor.run_points(spec, [2, 3]) == _reference(spec, [2, 3])
        assert executor.spawn_count == 2
        executor.close()

    def test_close_without_a_pool_is_a_noop(self):
        executor = PoolExecutor(2)
        executor.close()
        executor.close()
        assert executor.spawn_count == 0

    def test_default_size_is_cpu_count(self):
        assert PoolExecutor().workers == max(1, os.cpu_count() or 1)

    def test_zero_means_serial_like_the_engine(self):
        executor = PoolExecutor(0)
        assert executor.workers == 1
        spec = _calibration_spec(points=3)
        assert executor.run_points(spec, [0, 1, 2]) == _reference(
            spec, [0, 1, 2]
        )
        assert executor.spawn_count == 0

    def test_multi_point_batch_keeps_the_requested_order(self):
        spec = _calibration_spec(points=7)
        order = [5, 0, 6, 2, 1]
        with PoolExecutor(3) as executor:
            assert executor.run_points(spec, order) == _reference(
                spec, order
            )

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            PoolExecutor(-2)

    def test_threads_sharing_an_executor_spawn_one_pool(self):
        """A job runner's threads share its executor: concurrent first
        batches must not fork a pool each."""
        spec = _calibration_spec(points=4)
        executor = PoolExecutor(2)
        start = threading.Barrier(6)
        results: list = []

        def batch():
            start.wait(timeout=30)
            results.append(executor.run_points(spec, [0, 1, 2, 3]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=batch) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            executor.close()
        assert results == [_reference(spec, range(4))] * 6
        assert executor.spawn_count == 1


class TestEngineOwnership:
    def test_engines_sharing_an_executor_share_one_spawn(self):
        """N sweeps through M engines over one executor: one fork."""
        with PoolExecutor(2) as executor:
            engines = [SweepEngine(executor=executor) for _ in range(3)]
            for engine in engines:
                engine.run(_calibration_spec())
                engine.run(_calibration_spec(seed=8))
            assert executor.spawn_count == 1

    def test_serial_engine_never_builds_a_pool(self):
        engine = SweepEngine(workers=1)
        engine.run(_calibration_spec())
        assert engine.executor is None

    def test_single_pending_point_runs_inline(self):
        engine = SweepEngine(workers=4)
        engine.run(_calibration_spec(points=1))
        assert engine.executor.spawn_count == 0

    def test_explicit_executor_is_used_and_not_closed(self):
        with PoolExecutor(2) as executor:
            engine = SweepEngine(executor=executor)
            assert engine.workers == 2
            engine.run(_calibration_spec())
            assert executor.spawn_count == 1
            assert executor._pool is not None  # engine must not reap it

    def test_explicit_serial_executor_runs_inline(self):
        executor = PoolExecutor(1)
        SweepEngine(executor=executor).run(_calibration_spec())
        assert executor.spawn_count == 0

    def test_pooled_run_is_byte_identical_to_serial(self):
        spec = _calibration_spec(points=6)
        serial = SweepEngine(workers=1).run(spec)
        with PoolExecutor(2) as executor:
            pooled = SweepEngine(executor=executor).run(spec)
        assert _bytes(serial) == _bytes(pooled)

    def test_bare_parallel_engine_owns_one_lazy_pool(self):
        """``workers > 1`` with no executor resolves the registered
        ``pool`` backend once; it spawns at the first multi-point
        batch, not at construction, and serves every later sweep."""
        engine = SweepEngine(workers=2)
        assert isinstance(engine.executor, PoolExecutor)
        assert engine.executor.spawn_count == 0
        engine.run(_calibration_spec())
        engine.run(_calibration_spec(seed=9))
        assert engine.executor.spawn_count == 1
        engine.executor.close()

    def test_run_domain_threads_an_explicit_executor_through(self):
        """An experiment run through an explicit ``PoolExecutor``
        computes on its pool and leaves its lifecycle to the caller."""
        from repro.experiments import SCALES, get_experiment

        experiment = get_experiment("fig2")
        with PoolExecutor(2) as executor:
            engine = SweepEngine(executor=executor)
            pooled = experiment.run_domain(SCALES["smoke"], engine=engine)
            assert executor.spawn_count == 1
            assert executor._pool is not None
        assert executor._pool is None
        assert pooled == experiment.run_domain(SCALES["smoke"])


class TestRunnerOwnership:
    def test_runner_resolves_one_pool(self):
        runner = JobRunner(workers=2)
        first = runner._resolve_executor(None)
        assert isinstance(first, PoolExecutor)
        assert first.workers == 2
        assert runner._resolve_executor(None) is first
        assert runner._resolve_executor("pool") is first
        runner.close()

    def test_serial_runner_resolves_no_pool(self):
        for workers in (None, 0, 1):
            runner = JobRunner(workers=workers)
            assert runner._resolve_executor(None) is None
            runner.close()

    def test_close_forgets_the_pool(self):
        runner = JobRunner(workers=2)
        first = runner._resolve_executor(None)
        runner.close()
        assert first._pool is None
        assert runner._resolve_executor(None) is not first
        runner.close()

    def test_close_without_a_job_is_a_noop(self):
        runner = JobRunner(workers=2)
        runner.close()
        runner.close()

    def test_one_spawn_for_two_experiments_and_no_worker_outlives_close(
        self,
    ):
        """The in-process mirror of CI's ``repro all --workers 2``
        step: a runner's jobs share one pool, and ``close`` ends it."""
        from repro.experiments import SCALES, get_experiment

        before = set(multiprocessing.active_children())
        runner = JobRunner(workers=2)
        for name in ("fig2", "fig3"):
            job = runner.run_experiment(get_experiment(name), SCALES["smoke"])
            assert job.computed_points > 1  # multi-point: the pool ran
        executor = runner._resolve_executor(None)
        assert executor.spawn_count == 1
        runner.close()
        assert set(multiprocessing.active_children()) <= before


class TestCalibrationRunner:
    def test_calibration_points_are_deterministic(self):
        spec = _calibration_spec(points=3)
        first = SweepEngine().run(spec)
        second = SweepEngine().run(spec)
        assert _bytes(first) == _bytes(second)
        values = [p["value"] for p in first.payloads]
        assert len(set(values)) == len(values)  # distinct streams
        assert all(0.0 <= v < 1.0 for v in values)
