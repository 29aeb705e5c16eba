"""Serial and pool executors: byte-identity and pool etiquette."""

from __future__ import annotations

import pytest

from repro.executors import PoolExecutor, SerialExecutor, get_executor
from repro.experiments.parallel import SweepEngine, SweepSpec, execute_point
from repro.experiments.pool import (
    WorkerPool,
    get_shared_pool,
    shutdown_shared_pool,
)


def _spec(n: int = 6, seed: int = 2024) -> SweepSpec:
    return SweepSpec(
        kind="calibration",
        seed=seed,
        points=tuple({"i": i} for i in range(n)),
    )


def _reference(spec: SweepSpec) -> list[tuple[int, dict]]:
    return [(i, execute_point(spec, i)) for i in range(len(spec.points))]


class TestSerialExecutor:
    def test_matches_in_process_execution(self):
        spec = _spec()
        indices = list(range(len(spec.points)))
        assert SerialExecutor().run_points(spec, indices) == _reference(spec)

    def test_subset_and_order_are_honoured(self):
        spec = _spec()
        got = SerialExecutor().run_points(spec, [4, 1])
        assert [index for index, _ in got] == [4, 1]
        assert got[0][1] == execute_point(spec, 4)

    def test_empty_batch(self):
        assert SerialExecutor().run_points(_spec(), []) == []

    def test_context_manager(self):
        with SerialExecutor() as executor:
            assert executor.workers == 1


class TestPoolExecutor:
    def test_matches_serial_bytes(self):
        spec = _spec()
        indices = list(range(len(spec.points)))
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            assert executor.run_points(spec, indices) == _reference(spec)
            assert pool.spawn_count == 1

    def test_single_point_batch_stays_in_process(self):
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            executor.run_points(_spec(), [2])
            assert pool.spawn_count == 0  # serial shortcut: no fork

    def test_single_point_batch_keeps_a_warm_shared_pool(self):
        """A one-point batch runs inline, so asking for more workers
        than the live shared pool has must not replace (and shut down)
        that pool."""
        shutdown_shared_pool()
        try:
            warm = get_shared_pool(2)
            warm.map(abs, [-1, -2])  # spawn it
            assert warm._executor is not None
            get_executor("pool", workers=4).run_points(_spec(), [0])
            assert warm._executor is not None
            assert get_shared_pool(1) is warm
        finally:
            shutdown_shared_pool()

    def test_injected_pool_is_not_shut_down(self):
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            executor.run_points(_spec(), [0, 1, 2])
            executor.close()
            assert pool._executor is not None  # creator owns the pool's lifecycle


class TestEngineIntegration:
    def test_engine_accepts_registry_names(self):
        spec = _spec()
        baseline = SweepEngine(workers=1).run(spec)
        named = SweepEngine(executor="serial").run(spec)
        assert named.payloads == baseline.payloads

    def test_engine_accepts_instances_and_defaults_workers(self):
        with WorkerPool(2) as pool:
            executor = PoolExecutor(pool=pool)
            engine = SweepEngine(executor=executor)
            assert engine.workers == executor.workers
            assert engine.run(_spec()).payloads == (
                SweepEngine(workers=1).run(_spec()).payloads
            )

    def test_engine_rejects_unknown_executor_names(self):
        from repro.executors import UnknownExecutorError

        with pytest.raises(UnknownExecutorError):
            SweepEngine(executor="warp-drive")

    def test_get_executor_workers_flow_through(self):
        executor = get_executor("pool", workers=2)
        assert executor.workers == 2
        # Nonsense counts clamp to serial instead of erroring — the
        # same forgiving convention as WorkerPool/engine worker counts.
        assert PoolExecutor(workers=-1).workers == 1
