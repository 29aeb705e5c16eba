"""Serial and pool executors: byte-identity and pool ownership."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.executors import PoolExecutor, SerialExecutor, get_executor
from repro.experiments.parallel import SweepEngine, SweepSpec, execute_point


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
        with PoolExecutor(2) as executor:
            assert executor.run_points(spec, indices) == _reference(spec)
            assert executor.spawn_count == 1

    def test_single_point_batch_stays_in_process(self):
        with PoolExecutor(2) as executor:
            got = executor.run_points(_spec(), [2])
            assert got == [(2, execute_point(_spec(), 2))]
            assert executor.spawn_count == 0  # serial shortcut: no fork

    def test_single_point_batch_keeps_a_warm_pool(self):
        """A one-point batch runs inline: it neither respawns nor ends
        a pool an earlier batch warmed up."""
        with PoolExecutor(2) as executor:
            executor.run_points(_spec(), [0, 1])
            warm = executor._pool
            assert warm is not None
            executor.run_points(_spec(), [3])
            assert executor._pool is warm
            assert executor.spawn_count == 1

    def test_close_ends_the_pool(self):
        executor = PoolExecutor(2)
        executor.run_points(_spec(), [0, 1, 2])
        pool = executor._pool
        executor.close()
        assert executor._pool is None
        assert pool._shutdown_thread  # the executor owns its pool


class TestEngineIntegration:
    def test_engine_accepts_registry_names(self):
        spec = _spec()
        baseline = SweepEngine(workers=1).run(spec)
        named = SweepEngine(executor="serial").run(spec)
        assert named.payloads == baseline.payloads

    def test_engine_accepts_instances_and_defaults_workers(self):
        with PoolExecutor(2) as executor:
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
        # 0 means serial, as for the engine; a negative count is a
        # typed error, as for the engine.
        assert get_executor("pool", workers=0).workers == 1
        with pytest.raises(ValidationError):
            PoolExecutor(workers=-1)
