"""Unit tests for the persistent worker pool and its engine plumbing.

The pool's contract: spawning is lazy and logged, one pool serves any
number of sweeps/engines, shutdown is explicit and survivable, and
none of it affects result bytes (per-point SeedSequence streams).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.executors import PoolExecutor
from repro.experiments import pool as pool_module
from repro.experiments.parallel import SweepEngine, SweepSpec
from repro.experiments.pool import (
    WorkerPool,
    get_shared_pool,
    shutdown_shared_pool,
)

pytestmark = pytest.mark.usefixtures("_isolated_shared_pool")


@pytest.fixture
def _isolated_shared_pool():
    """Each test starts and ends with no process-wide pool."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def _square(x: int) -> int:
    return x * x


def _calibration_spec(points: int = 4, seed: int = 7) -> SweepSpec:
    return SweepSpec(
        kind="calibration",
        seed=seed,
        points=tuple({"index": i} for i in range(points)),
    )


def _bytes(result) -> bytes:
    return json.dumps(result.payloads, sort_keys=True).encode()


class TestWorkerPool:
    def test_spawn_is_lazy(self):
        with WorkerPool(2) as pool:
            assert not pool.active
            assert pool.spawn_count == 0
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.active
            assert pool.spawn_count == 1

    def test_reuse_does_not_respawn(self):
        with WorkerPool(2) as pool:
            for _ in range(3):
                assert pool.map(_square, [2]) == [4]
            assert pool.spawn_count == 1

    def test_serial_pool_never_spawns(self):
        pool = WorkerPool(1)
        assert pool.map(_square, [1, 2]) == [1, 4]
        assert not pool.active
        assert pool.spawn_count == 0

    def test_map_supports_infinite_companion_iterables(self):
        from itertools import repeat

        pool = WorkerPool(1)
        assert pool.map(pow, repeat(2), [1, 2, 3]) == [2, 4, 8]

    def test_shutdown_is_idempotent_and_survivable(self):
        pool = WorkerPool(2)
        pool.map(_square, [1])
        pool.shutdown()
        pool.shutdown()
        assert not pool.active
        # Using a shut-down pool simply respawns it.
        assert pool.map(_square, [3]) == [9]
        assert pool.spawn_count == 2
        pool.shutdown()

    def test_default_size_is_cpu_count(self):
        assert WorkerPool().max_workers >= 1

    def test_zero_means_serial_like_the_engine(self):
        pool = WorkerPool(0)
        assert pool.max_workers == 1
        assert pool.map(_square, [3]) == [9]
        assert pool.spawn_count == 0

    def test_limit_one_runs_inline(self):
        pool = WorkerPool(2)
        assert pool.map(_square, [1, 2, 3], limit=1) == [1, 4, 9]
        assert pool.spawn_count == 0

    def test_limit_caps_in_flight_but_keeps_order(self):
        with WorkerPool(3) as pool:
            assert pool.map(_square, list(range(7)), limit=2) == [
                i * i for i in range(7)
            ]

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            WorkerPool(-2)


class TestSharedPool:
    def test_shared_pool_is_a_singleton(self):
        first = get_shared_pool(2)
        assert get_shared_pool(2) is first
        assert get_shared_pool(1) is first  # smaller asks reuse it

    def test_growth_replaces_the_pool(self):
        small = get_shared_pool(1)
        grown = get_shared_pool(2)
        assert grown is not small
        assert grown.max_workers == 2
        assert get_shared_pool(1) is grown

    def test_shutdown_forgets_the_pool(self):
        first = get_shared_pool(2)
        shutdown_shared_pool()
        assert pool_module._shared_pool is None
        assert get_shared_pool(2) is not first

    def test_shutdown_without_pool_is_a_noop(self):
        shutdown_shared_pool()
        shutdown_shared_pool()


class TestEnginePlumbing:
    def test_engines_share_one_spawn_across_sweeps(self):
        """The whole point: N sweeps through M engines, one fork."""
        engines = [SweepEngine(workers=2) for _ in range(3)]
        for engine in engines:
            engine.run(_calibration_spec())
            engine.run(_calibration_spec(seed=8))
        shared = get_shared_pool(2)
        assert shared.spawn_count == 1

    def test_serial_engine_never_touches_the_pool(self):
        SweepEngine(workers=1).run(_calibration_spec())
        assert pool_module._shared_pool is None

    def test_single_pending_point_runs_inline(self):
        SweepEngine(workers=4).run(_calibration_spec(points=1))
        assert pool_module._shared_pool is None

    def test_explicit_pool_is_used_and_not_shut_down(self):
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            engine = SweepEngine(executor=executor)
            assert engine.workers == 2
            engine.run(_calibration_spec())
            assert pool.spawn_count == 1
            assert pool.active  # engine must not reap it
            assert pool_module._shared_pool is None

    def test_explicit_serial_pool_runs_inline(self):
        pool = WorkerPool(1)
        executor = PoolExecutor(pool=pool)
        SweepEngine(executor=executor).run(_calibration_spec())
        assert pool.spawn_count == 0

    def test_pooled_run_is_byte_identical_to_serial(self):
        spec = _calibration_spec(points=6)
        serial = SweepEngine(workers=1).run(spec)
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            pooled = SweepEngine(executor=executor).run(spec)
        assert _bytes(serial) == _bytes(pooled)

    def test_grown_shared_pool_is_not_revived_as_an_orphan(self):
        """After get_shared_pool grows the pool, an engine that had
        attached to the old one must pick up the replacement instead of
        respawning the shut-down pool privately."""
        engine = SweepEngine(workers=2)
        engine.run(_calibration_spec())
        old = get_shared_pool(2)
        grown = get_shared_pool(4)
        assert grown is not old and not old.active
        engine.run(_calibration_spec(seed=9))
        assert grown.spawn_count == 1  # the replacement served the run
        assert not old.active  # the orphan was never respawned
        assert old.spawn_count == 1

    def test_default_parallel_engine_attaches_the_shared_pool_lazily(self):
        """``workers > 1`` with no executor is the registered ``pool``
        backend, which fetches the shared pool at the first
        multi-point batch, not at construction."""
        engine = SweepEngine(workers=2)
        assert isinstance(engine.executor, PoolExecutor)
        assert pool_module._shared_pool is None
        engine.run(_calibration_spec())
        assert get_shared_pool(2).spawn_count == 1

    def test_run_domain_threads_an_injected_pool_through(self):
        """An experiment run through ``PoolExecutor(pool=...)`` computes
        on that pool and leaves its lifecycle to the caller."""
        from repro.experiments import SCALES, get_experiment

        experiment = get_experiment("fig2")
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            engine = SweepEngine(executor=executor)
            pooled = experiment.run_domain(SCALES["smoke"], engine=engine)
            assert pool.spawn_count == 1
            assert pool.active
        assert pooled == experiment.run_domain(SCALES["smoke"])
        assert pool_module._shared_pool is None


class TestCalibrationRunner:
    def test_calibration_points_are_deterministic(self):
        spec = _calibration_spec(points=3)
        first = SweepEngine().run(spec)
        second = SweepEngine().run(spec)
        assert _bytes(first) == _bytes(second)
        values = [p["value"] for p in first.payloads]
        assert len(set(values)) == len(values)  # distinct streams
        assert all(0.0 <= v < 1.0 for v in values)
