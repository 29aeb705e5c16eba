"""Crash recovery: broken worker pools, read-only stores, torn tmp files.

Pins the interrupt-safety and cache-store fixes: a pool executor whose
workers died (OOM-killed, ^C) reaps its pool and respawns it — or
falls back to serial — instead of poisoning every later sweep with
``BrokenProcessPool``; a ``readonly=True`` store never writes, even
when it has to rebuild its index on a chmod-0555 cache dir; and
orphaned ``*.tmp`` files from a crash between tmp-write and
``os.replace`` are cleaned up on the next writable open — but only
once stale, so a live concurrent writer's in-flight temporary is
never reaped out from under it.
"""

from __future__ import annotations

import logging
import os
import signal
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.errors import SweepCancelled
from repro.executors import PoolExecutor
from repro.experiments.parallel import SweepEngine, SweepSpec, execute_point
from repro.experiments.store import _TMP_STALE_SECONDS, ResultStore


class _DeadPool:
    """Quacks like a ProcessPoolExecutor whose workers all died."""

    def __init__(self):
        self.shutdown_calls = 0

    def submit(self, fn, *args):
        raise BrokenProcessPool("A child process terminated abruptly")

    def shutdown(self, wait=True):
        self.shutdown_calls += 1


def _calibration_spec(points: int = 3) -> SweepSpec:
    return SweepSpec(
        kind="calibration",
        seed=11,
        points=tuple({"index": i} for i in range(points)),
    )


def _reference(spec: SweepSpec) -> list[tuple[int, dict]]:
    return [(i, execute_point(spec, i)) for i in range(len(spec.points))]


class TestBrokenPoolRecovery:
    def test_dead_pool_is_reaped_and_replaced(self):
        executor = PoolExecutor(2)
        dead = _DeadPool()
        executor._pool = dead
        spec = _calibration_spec()
        assert executor.run_points(spec, [0, 1, 2]) == _reference(spec)
        assert dead.shutdown_calls == 1
        assert executor._pool is not dead
        assert executor.spawn_count == 1  # the replacement
        executor.close()

    def test_reap_logs_recovery(self, caplog):
        executor = PoolExecutor(2)
        executor._pool = _DeadPool()
        with caplog.at_level(logging.WARNING, logger="repro.pool"):
            executor.run_points(_calibration_spec(), [0, 1])
        executor.close()
        assert any(
            "respawning and retrying once" in r.message
            for r in caplog.records
        )

    def test_killed_worker_respawns_the_pool(self):
        """A real worker death: the pool breaks, the next batch
        respawns it once and returns the same bytes."""
        spec = _calibration_spec(points=4)
        with PoolExecutor(2) as executor:
            assert executor.run_points(spec, [0, 1, 2, 3]) == _reference(spec)
            pool = executor._pool
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            assert executor.run_points(spec, [0, 1, 2, 3]) == _reference(spec)
            assert executor.spawn_count == 2

    def test_respawns_once_after_broken_pool(self, monkeypatch):
        executor = PoolExecutor(2)
        attempts = []
        real_dispatch = PoolExecutor._dispatch

        def flaky_dispatch(self, spec, indices):
            attempts.append(len(indices))
            if len(attempts) == 1:
                raise BrokenProcessPool("workers died")
            return real_dispatch(self, spec, indices)

        monkeypatch.setattr(PoolExecutor, "_dispatch", flaky_dispatch)
        spec = _calibration_spec()
        assert executor.run_points(spec, [0, 1, 2]) == _reference(spec)
        assert len(attempts) == 2  # broke once, respawned, succeeded
        executor.close()

    def test_falls_back_to_serial_when_respawn_breaks_too(
        self, monkeypatch, caplog
    ):
        executor = PoolExecutor(2)

        def always_broken(self, spec, indices):
            self._pool = _DeadPool()
            raise BrokenProcessPool("workers keep dying")

        monkeypatch.setattr(PoolExecutor, "_dispatch", always_broken)
        spec = _calibration_spec()
        with caplog.at_level(logging.WARNING, logger="repro.pool"):
            assert executor.run_points(spec, [0, 1, 2]) == _reference(spec)
        messages = [r.message for r in caplog.records]
        assert any("respawning and retrying once" in m for m in messages)
        assert any("serially in-process" in m for m in messages)
        assert executor._pool is None  # no dead pool left behind

    def test_reaps_pool_on_keyboard_interrupt(self, monkeypatch, caplog):
        executor = PoolExecutor(2)
        dead = _DeadPool()

        def interrupted(self, spec, indices):
            self._pool = dead
            raise KeyboardInterrupt

        monkeypatch.setattr(PoolExecutor, "_dispatch", interrupted)
        with caplog.at_level(logging.WARNING, logger="repro.pool"):
            with pytest.raises(KeyboardInterrupt):
                executor.run_points(_calibration_spec(), [0, 1])
        # The pool was reaped, not left broken for the next sweep.
        assert executor._pool is None
        assert dead.shutdown_calls == 1
        assert any("interrupted" in r.message for r in caplog.records)

    def test_runner_pool_survives_a_broken_pool(self):
        """A runner's one pool executor outlives its pool: a job that
        meets a dead pool respawns it on the same executor."""
        from repro.experiments import SCALES, get_experiment
        from repro.jobs import JobRunner

        runner = JobRunner(workers=2)
        executor = runner._resolve_executor(None)
        dead = _DeadPool()
        executor._pool = dead
        job = runner.run_experiment(get_experiment("fig2"), SCALES["smoke"])
        assert job.state == "done"
        assert runner._resolve_executor(None) is executor
        assert dead.shutdown_calls == 1
        assert executor.spawn_count == 1
        runner.close()

    def test_serial_executor_is_untouched_by_recovery_paths(self):
        executor = PoolExecutor(1)
        spec = _calibration_spec(points=1)
        assert executor.run_points(spec, [0]) == _reference(spec)
        assert executor.spawn_count == 0
        assert executor._pool is None


def _mini_spec(n_points: int = 3) -> SweepSpec:
    return SweepSpec(
        kind="crash-recovery-mini",
        params={"scale": "test"},
        points=tuple({"x": i} for i in range(n_points)),
        seed=7,
    )


@pytest.fixture(autouse=True)
def _echo_runner():
    from repro.experiments.parallel import _POINT_RUNNERS

    def echo(point, params, stream):
        return {"x2": point["x"] * 2}

    _POINT_RUNNERS["crash-recovery-mini"] = echo
    yield
    _POINT_RUNNERS.pop("crash-recovery-mini", None)


class TestCooperativeCancel:
    def test_immediate_cancel_raises_before_computing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = SweepEngine(
            workers=1, cache=store, should_cancel=lambda: True
        )
        with pytest.raises(SweepCancelled):
            engine.run(_mini_spec())
        assert store.stats()["entries"] == 0  # nothing computed, nothing cached

    def test_partial_cancel_keeps_batches_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        computed = []

        def cancel_after_first_batch() -> bool:
            return len(computed) >= 1

        engine = SweepEngine(
            workers=1,
            cache=store,
            on_point_computed=computed.append,
            should_cancel=cancel_after_first_batch,
        )
        with pytest.raises(SweepCancelled):
            engine.run(_mini_spec())
        assert 1 <= len(computed) < 3
        assert store.stats()["entries"] == len(computed)  # finished batches persisted

        # A fresh, uncancelled engine resumes from the cache.
        resumed = SweepEngine(workers=1, cache=store).run(_mini_spec())
        assert resumed.stats.cached_points == len(computed)
        assert resumed.stats.computed_points == 3 - len(computed)
        assert [p["x2"] for p in resumed.payloads] == [0, 2, 4]

    def test_no_cancel_hook_means_one_batch(self, tmp_path):
        engine = SweepEngine(workers=1, cache=str(tmp_path / "cache"))
        result = engine.run(_mini_spec())
        assert result.stats.computed_points == 3


def _lock_tree(root) -> None:
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for name in filenames:
            os.chmod(os.path.join(dirpath, name), 0o444)
        os.chmod(dirpath, 0o555)


def _unlock_tree(root) -> None:
    for dirpath, _dirnames, filenames in os.walk(root):
        os.chmod(dirpath, 0o755)
        for name in filenames:
            os.chmod(os.path.join(dirpath, name), 0o644)


def _tree_state(root):
    """(path, size, mtime_ns) of every file under ``root``."""
    state = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            info = os.stat(path)
            state.append((path, info.st_size, info.st_mtime_ns))
    return sorted(state)


# chmod makes the tree genuinely unwritable for unprivileged users;
# root bypasses permission bits, so the real pin is the byte-for-byte
# tree-state comparison — any write (new file, append, index persist)
# changes a size or mtime and fails the test either way.
class TestReadonlyStoreNeverWrites:
    def test_readonly_get_on_unwritable_dir(self, tmp_path):
        cache = tmp_path / "cache"
        writable = ResultStore(cache)
        key = {"x": 1}
        writable.put_many("kind", [(key, {"v": 42})])
        # Force the index-rebuild path: drop the index file before
        # locking the tree down.
        for index_file in cache.rglob("index.jsonl"):
            index_file.unlink()
        _lock_tree(cache)
        try:
            before = _tree_state(cache)
            store = ResultStore(cache, readonly=True)
            assert store.get_many("kind", [key])[0] == {"v": 42}
            assert _tree_state(cache) == before  # zero writes
            assert not list(cache.rglob("index.jsonl"))
        finally:
            _unlock_tree(cache)

    def test_readonly_stats_on_unwritable_dir(self, tmp_path):
        cache = tmp_path / "cache"
        ResultStore(cache).put_many("kind", [({"x": 1}, {"v": 1})])
        _lock_tree(cache)
        try:
            before = _tree_state(cache)
            stats = ResultStore(cache, readonly=True).stats()
            assert stats["entries"] == 1
            assert _tree_state(cache) == before
        finally:
            _unlock_tree(cache)


def _age(path, seconds: float) -> None:
    """Backdate ``path``'s mtime by ``seconds``."""
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


class TestTornTmpCleanup:
    def test_stale_orphaned_index_tmp_is_removed_on_open(self, tmp_path):
        cache = tmp_path / "cache"
        store = ResultStore(cache)
        store.put_many("kind", [({"x": 1}, {"v": 1})])
        shard_dir = next(p.parent for p in cache.rglob("data.jsonl"))
        torn = shard_dir / "index.jsonl.tmp"
        torn.write_text('{"torn": "garbage from a crashed writer"\n')
        _age(torn, _TMP_STALE_SECONDS + 60)

        reopened = ResultStore(cache)
        assert reopened.get_many("kind", [{"x": 1}])[0] == {"v": 1}
        assert not torn.exists()

    def test_fresh_tmp_from_live_writer_is_left_alone(self, tmp_path):
        # The serve process and the CLI share one cache dir; a young
        # tmp may be another process's in-flight atomic write, and
        # reaping it would break that process's os.replace mid-write.
        cache = tmp_path / "cache"
        store = ResultStore(cache)
        store.put_many("kind", [({"x": 1}, {"v": 1})])
        shard_dir = next(p.parent for p in cache.rglob("data.jsonl"))
        in_flight = shard_dir / "index.jsonl.99999.tmp"
        in_flight.write_text("{}\n")

        reopened = ResultStore(cache)
        assert reopened.get_many("kind", [{"x": 1}])[0] == {"v": 1}
        assert in_flight.exists()

    def test_stale_pid_suffixed_tmp_is_removed_on_open(self, tmp_path):
        cache = tmp_path / "cache"
        store = ResultStore(cache)
        store.put_many("kind", [({"x": 1}, {"v": 1})])
        shard_dir = next(p.parent for p in cache.rglob("data.jsonl"))
        torn = shard_dir / "data.jsonl.99999.tmp"
        torn.write_text("{}\n")
        _age(torn, _TMP_STALE_SECONDS + 60)

        ResultStore(cache).get_many("kind", [{"x": 1}])[0]
        assert not torn.exists()

    def test_readonly_open_leaves_torn_tmp_alone(self, tmp_path):
        cache = tmp_path / "cache"
        store = ResultStore(cache)
        store.put_many("kind", [({"x": 1}, {"v": 1})])
        shard_dir = next(p.parent for p in cache.rglob("data.jsonl"))
        torn = shard_dir / "index.jsonl.tmp"
        torn.write_text("{}\n")
        _age(torn, _TMP_STALE_SECONDS + 60)

        readonly = ResultStore(cache, readonly=True)
        assert readonly.get_many("kind", [{"x": 1}])[0] == {"v": 1}
        assert torn.exists()  # readonly handles never touch the disk
