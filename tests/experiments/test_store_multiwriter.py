"""Concurrent writers on one store root: one log per shard, one lock.

Processes and threads that share a root take turns under the store's
lock (``<root>/store.lock``), so a fresh reader gets back every record
any of them appended, ``cache gc`` running during appends keeps them
all, and concurrent first opens never see a half-written marker.
Per-writer segment files an older build left behind are inert.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments.store import ResultStore, _locked, _Shard

KIND = "demo"
#: Records per ``put_many`` call in the concurrency tests.
BATCH = 20


def _key(i: int) -> dict:
    return {"format": 1, "kind": KIND, "index": i}


def _payload(i: int) -> dict:
    """About 1 KB, so one batch spans several write buffers."""
    return {"value": i, "pad": "x" * 1000}


def _append(store: ResultStore, start: int, n: int) -> None:
    """Records ``start`` to ``start + n - 1``, ``BATCH`` per call."""
    stop = start + n
    for first in range(start, stop, BATCH):
        batch = range(first, min(first + BATCH, stop))
        store.put_many(KIND, [(_key(i), _payload(i)) for i in batch])


def _append_process(root: str, start: int, n: int, barrier) -> None:
    store = ResultStore(root)
    barrier.wait(timeout=60)
    _append(store, start, n)


def _gc_until(root: str, done) -> None:
    store = ResultStore(root)
    while not done.is_set():
        store.gc()


def _open_fresh_roots(
    rank: int, roots: list[str], barrier, failures
) -> None:
    errors = []
    for root in roots:
        barrier.wait(timeout=60)
        # Staggered by 50 µs per rank: later ranks open the root while
        # earlier ones are stamping its marker.
        time.sleep(rank * 5e-5)
        try:
            ResultStore(root)
        except Exception as exc:  # every failure counts
            errors.append(f"{root}: {exc!r}")
    failures.put(errors)


def _assert_all_readable(root, n: int) -> None:
    """A fresh reader gets back every record, and counts what it reads."""
    reader = ResultStore(root)
    got = reader.get_many(KIND, [_key(i) for i in range(n)])
    readable = sum(payload is not None for payload in got)
    assert (readable, reader.stats()["entries"]) == (n, n)
    assert got == [_payload(i) for i in range(n)]


def _join(procs) -> None:
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0


class TestConcurrentWriters:
    def test_two_processes_append_to_one_log_without_loss(self, tmp_path):
        ResultStore(tmp_path)  # stamp the marker before forking
        n = 400
        barrier = multiprocessing.Barrier(2)
        procs = [
            multiprocessing.Process(
                target=_append_process,
                args=(str(tmp_path), start, n, barrier),
            )
            for start in (0, n)
        ]
        for proc in procs:
            proc.start()
        _join(procs)
        assert sorted(p.name for p in (tmp_path / KIND).iterdir()) == [
            "data.jsonl", "index.jsonl",
        ]
        _assert_all_readable(tmp_path, 2 * n)

    def test_threads_sharing_one_store_append_without_loss(self, tmp_path):
        """A job runner's drain thread and a synchronous run write
        through one ``ResultStore``: the lock excludes threads too."""
        store = ResultStore(tmp_path)
        n = 200
        threads = [
            threading.Thread(target=_append, args=(store, start, n))
            for start in (0, n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        _assert_all_readable(tmp_path, 2 * n)

    def test_a_store_reading_while_others_append_ends_up_hitting_all(
        self, tmp_path
    ):
        """One thread reads through a store (each miss on a moved log
        reloads its index) while another appends through it and a
        second store appends beside them: afterwards the shared store
        hits every record without a stale index."""
        store = ResultStore(tmp_path)
        n = 200
        keys = [_key(i) for i in range(2 * n)]
        done = threading.Event()

        def read() -> None:
            while not done.is_set():
                store.get_many(KIND, keys)

        threads = [
            threading.Thread(target=_append, args=(store, 0, n)),
            threading.Thread(
                target=_append, args=(ResultStore(tmp_path), n, n)
            ),
        ]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [reader, *threads])
        assert store.get_many(KIND, keys) == [
            _payload(i) for i in range(2 * n)
        ]
        _assert_all_readable(tmp_path, 2 * n)

    def test_gc_during_appends_keeps_every_record(self, tmp_path):
        ResultStore(tmp_path)
        n = 400
        done = multiprocessing.Event()
        collector = multiprocessing.Process(
            target=_gc_until, args=(str(tmp_path), done)
        )
        collector.start()
        appender = multiprocessing.Process(
            target=_append_process,
            args=(str(tmp_path), 0, n, multiprocessing.Barrier(1)),
        )
        appender.start()
        try:
            _join([appender])
        finally:
            done.set()
        _join([collector])
        _assert_all_readable(tmp_path, n)

    def test_concurrent_first_opens_never_fail(self, tmp_path):
        """Eight processes open each of 50 fresh roots within a few
        hundred µs of one another: none may read a marker another is
        still writing."""
        processes, roots = 8, 50
        paths = [str(tmp_path / f"root{i}") for i in range(roots)]
        barrier = multiprocessing.Barrier(processes)
        failures = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_open_fresh_roots,
                args=(rank, paths, barrier, failures),
            )
            for rank in range(processes)
        ]
        for proc in procs:
            proc.start()
        errors = [e for _ in procs for e in failures.get(timeout=120)]
        _join(procs)
        assert errors == []
        for path in paths:  # a whole marker, and no temporary left over
            assert ResultStore(path).stats()["entries"] == 0
            assert sorted(os.listdir(path)) == ["store.json", "store.lock"]


class TestOneLog:
    """Stores opened one after another on one root share its one log
    per shard."""

    def test_every_store_appends_to_the_one_log(self, tmp_path):
        for start in (0, 2, 4):
            _append(ResultStore(tmp_path), start, 2)
        assert sorted(p.name for p in (tmp_path / KIND).iterdir()) == [
            "data.jsonl", "index.jsonl",
        ]
        _assert_all_readable(tmp_path, 6)

    def test_a_store_opened_later_reads_earlier_writes(self, tmp_path):
        _append(ResultStore(tmp_path), 0, 2)
        later = ResultStore(tmp_path)
        assert later.get_many(KIND, [_key(1)]) == [_payload(1)]

    def test_the_same_keys_from_two_stores_count_once(self, tmp_path):
        _append(ResultStore(tmp_path), 0, 3)
        _append(ResultStore(tmp_path), 0, 3)
        assert ResultStore(tmp_path).stats()["entries"] == 3
        summary = ResultStore(tmp_path).gc()
        assert summary["entries"] == 3
        assert summary["reclaimed_bytes"] > 0
        _assert_all_readable(tmp_path, 3)

    def test_gc_is_idempotent(self, tmp_path):
        _append(ResultStore(tmp_path), 0, 2)
        _append(ResultStore(tmp_path), 0, 2)
        store = ResultStore(tmp_path)
        store.gc()
        second = store.gc()
        assert (second["entries"], second["reclaimed_bytes"]) == (2, 0)

    def test_appends_after_another_stores_gc_stay_readable(self, tmp_path):
        """A long-lived store keeps appending at the log's real end
        after another store's gc moved every record."""
        early = ResultStore(tmp_path)
        _append(early, 0, BATCH)
        _append(ResultStore(tmp_path), 0, BATCH)  # duplicates for gc to drop
        assert ResultStore(tmp_path).gc()["reclaimed_bytes"] > 0
        _append(early, BATCH, BATCH)
        _assert_all_readable(tmp_path, 2 * BATCH)

    def test_an_append_after_a_lost_index_keeps_earlier_records(
        self, tmp_path
    ):
        """An index deleted after a store loaded it is rebuilt whole by
        that store's next append, not recreated with the batch alone."""
        store = ResultStore(tmp_path)
        _append(store, 0, BATCH)
        (tmp_path / KIND / "index.jsonl").unlink()
        _append(store, BATCH, BATCH)
        _assert_all_readable(tmp_path, 2 * BATCH)
        assert ResultStore(tmp_path).gc()["entries"] == 2 * BATCH
        _assert_all_readable(tmp_path, 2 * BATCH)

    def test_a_loaded_store_hits_records_another_stores_gc_moved(
        self, tmp_path
    ):
        _append(ResultStore(tmp_path), 0, 10)
        _append(ResultStore(tmp_path), 0, 5)  # duplicates for gc to drop
        reader = ResultStore(tmp_path)
        keys = [_key(i) for i in range(10)]
        assert reader.get_many(KIND, keys) == [_payload(i) for i in range(10)]
        assert ResultStore(tmp_path).gc()["entries"] == 10
        assert reader.get_many(KIND, keys) == [_payload(i) for i in range(10)]
        assert (reader.hits, reader.misses) == (20, 0)

    def test_a_loaded_store_hits_records_appended_after_its_load(
        self, tmp_path
    ):
        reader = ResultStore(tmp_path)
        _append(reader, 0, BATCH)
        assert reader.get_many(KIND, [_key(BATCH)]) == [None]
        _append(ResultStore(tmp_path), BATCH, BATCH)
        # the reader's own append must not pass for a reload
        _append(reader, 2 * BATCH, BATCH)
        keys = [_key(i) for i in range(3 * BATCH)]
        assert reader.get_many(KIND, keys) == [
            _payload(i) for i in range(3 * BATCH)
        ]

    def test_the_only_writer_never_reloads(self, tmp_path, monkeypatch):
        loads: list[_Shard] = []
        load = _Shard._load_index

        def counted(shard: _Shard) -> None:
            loads.append(shard)
            load(shard)

        monkeypatch.setattr(_Shard, "_load_index", counted)
        store = ResultStore(tmp_path)
        for start in range(0, 4 * BATCH, BATCH):
            keys = [_key(i) for i in range(start + BATCH)]
            assert store.get_many(KIND, keys).count(None) == BATCH
            _append(store, start, BATCH)
        assert store.get_many(KIND, [_key(-1)]) == [None]
        assert len(loads) == 1

    def test_an_append_recreates_a_shard_gc_removed(self, tmp_path):
        torn = tmp_path / KIND / "data.jsonl"
        torn.parent.mkdir()
        torn.write_text('{"key": ')  # a crashed writer's only record
        store = ResultStore(tmp_path)
        assert store.get_many(KIND, [_key(0)]) == [None]
        assert ResultStore(tmp_path).gc()["shards"] == {}
        assert not torn.parent.exists()
        _append(store, 0, BATCH)
        _assert_all_readable(tmp_path, BATCH)


class TestLock:
    def test_writable_open_creates_the_lock_and_readonly_does_not(
        self, tmp_path
    ):
        ResultStore(tmp_path / "absent", readonly=True)
        assert not (tmp_path / "absent").exists()
        ResultStore(tmp_path / "store")
        assert (tmp_path / "store" / "store.lock").is_file()
        _append(ResultStore(tmp_path / "store"), 0, BATCH)
        ResultStore(tmp_path / "store").gc()
        assert (tmp_path / "store" / "store.lock").is_file()

    @pytest.mark.parametrize("operation", ["append", "gc", "index-rebuild"])
    def test_a_held_lock_blocks_every_write_of_this_process(
        self, tmp_path, operation
    ):
        """Appends, gc and persisted index rebuilds all wait for the
        lock, also when another thread of this process holds it."""
        store = ResultStore(tmp_path)
        _append(store, 0, BATCH)
        data = tmp_path / KIND / "data.jsonl"
        before = data.read_bytes()
        if operation == "index-rebuild":
            # A lost index: the next load rebuilds and writes it back.
            (tmp_path / KIND / "index.jsonl").unlink()
        run = {
            "append": lambda: _append(store, BATCH, BATCH),
            "gc": store.gc,
            "index-rebuild": lambda: ResultStore(tmp_path).stats(),
        }[operation]
        done = threading.Event()

        def write() -> None:
            run()
            done.set()

        writer = threading.Thread(target=write)
        with _locked(tmp_path / "store.lock"):
            writer.start()
            assert not done.wait(0.2)
            assert data.read_bytes() == before
        writer.join(timeout=60)
        assert not writer.is_alive() and done.is_set()
        assert (tmp_path / KIND / "index.jsonl").exists()
        _assert_all_readable(
            tmp_path, 2 * BATCH if operation == "append" else BATCH
        )


class TestOlderSegmentFiles:
    """``data.<writer>.jsonl``/``index.<writer>.jsonl`` pairs written by
    an older ``serve`` are neither read nor deleted."""

    def _leave_segment(self, root, kind: str = KIND) -> list:
        shard = root / kind
        shard.mkdir(parents=True, exist_ok=True)
        record = (
            '{"key":{"format":1,"index":99,"kind":"demo"},'
            '"payload":{"value":99}}'
        )
        data = shard / "data.serve123.jsonl"
        data.write_text(record + "\n")
        index = shard / "index.serve123.jsonl"
        index.write_text(
            '{"h":"%s","n":%d,"o":0}\n' % ("0" * 64, len(record))
        )
        return [data, index]

    def test_reads_stats_and_gc_ignore_them(self, tmp_path):
        _append(ResultStore(tmp_path), 0, BATCH)
        leftovers = self._leave_segment(tmp_path)
        leftovers += self._leave_segment(tmp_path, kind="segments-only")

        store = ResultStore(tmp_path)
        assert store.get_many(KIND, [_key(99)]) == [None]
        stats = store.stats()
        assert stats["entries"] == BATCH
        assert sorted(stats["shards"]) == [KIND]
        assert set(stats) == {
            "directory", "format", "entries", "data_bytes", "shards",
        }
        summary = store.gc()
        assert summary["entries"] == BATCH
        assert set(summary) == {"shards", "entries", "reclaimed_bytes"}
        assert all(path.exists() for path in leftovers)
        _assert_all_readable(tmp_path, BATCH)
