"""Multi-writer segments: isolation, merged reads, gc compaction."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import CacheError, ValidationError
from repro.experiments.store import ResultStore

KIND = "demo"


def _key(i: int) -> dict:
    return {"format": 1, "kind": KIND, "index": i}


def _fill(store: ResultStore, start: int, n: int) -> None:
    store.put_many(
        KIND, [(_key(i), {"value": i}) for i in range(start, start + n)]
    )


class TestWriterIds:
    def test_valid_ids_accepted(self, tmp_path):
        for writer in ("serve123", "ci-run_7", "A"):
            ResultStore(tmp_path, writer_id=writer)

    def test_invalid_ids_rejected(self, tmp_path):
        for writer in ("", "a.b", "a/b", "a b", "a\n"):
            with pytest.raises(ValidationError, match="writer_id"):
                ResultStore(tmp_path, writer_id=writer)

    def test_readonly_excludes_writer_id(self, tmp_path):
        ResultStore(tmp_path)  # materialise the root first
        with pytest.raises(ValidationError, match="readonly"):
            ResultStore(tmp_path, readonly=True, writer_id="w")


class TestSegmentIsolation:
    def test_writer_appends_land_in_a_private_segment(self, tmp_path):
        store = ResultStore(tmp_path, writer_id="w1")
        _fill(store, 0, 3)
        shard_dir = tmp_path / KIND
        assert (shard_dir / "data.w1.jsonl").exists()
        assert (shard_dir / "index.w1.jsonl").exists()
        assert not (shard_dir / "data.jsonl").exists()

    def test_default_store_keeps_writing_the_primary_log(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)
        shard_dir = tmp_path / KIND
        assert (shard_dir / "data.jsonl").exists()
        assert not list(shard_dir.glob("data.*.jsonl"))

    def test_two_writers_never_share_a_file(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 2)
        _fill(ResultStore(tmp_path, writer_id="b"), 2, 2)
        shard_dir = tmp_path / KIND
        assert (shard_dir / "data.a.jsonl").exists()
        assert (shard_dir / "data.b.jsonl").exists()


class TestMergedReads:
    def test_reads_merge_primary_and_all_segments(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)  # primary: 0, 1
        _fill(ResultStore(tmp_path, writer_id="a"), 2, 2)  # a: 2, 3
        _fill(ResultStore(tmp_path, writer_id="b"), 4, 2)  # b: 4, 5

        reader = ResultStore(tmp_path)
        assert reader.stats()["entries"] == 6
        got = reader.get_many(KIND, [_key(i) for i in range(6)])
        assert got == [{"value": i} for i in range(6)]

    def test_writer_handles_see_other_writers_entries(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 2)
        other = ResultStore(tmp_path, writer_id="b")
        assert other.get_many(KIND, [_key(1)])[0] == {"value": 1}

    def test_duplicate_digests_across_writers_count_once(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 3)
        _fill(ResultStore(tmp_path, writer_id="b"), 0, 3)  # same keys
        reader = ResultStore(tmp_path)
        assert reader.stats()["entries"] == 3
        assert reader.get_many(KIND, [_key(0)])[0] == {"value": 0}

    def test_readonly_handle_reads_segments(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 2)
        reader = ResultStore(tmp_path, readonly=True)
        assert reader.get_many(KIND, [_key(0)])[0] == {"value": 0}
        with pytest.raises(CacheError, match="read-only"):
            reader.put_many(KIND, [(_key(9), {"value": 9})])

    def test_lost_segment_index_is_rebuilt(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 3)
        (tmp_path / KIND / "index.a.jsonl").unlink()
        reader = ResultStore(tmp_path)
        assert reader.get_many(KIND, [_key(i) for i in range(3)]) == [
            {"value": i} for i in range(3)
        ]

    def test_torn_segment_tail_only_loses_the_torn_record(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 2)
        data = tmp_path / KIND / "data.a.jsonl"
        with data.open("ab") as handle:
            handle.write(b'{"key": {"to')  # killed mid-append
        (tmp_path / KIND / "index.a.jsonl").unlink()  # force a rescan
        reader = ResultStore(tmp_path)
        assert reader.get_many(KIND, [_key(i) for i in range(2)]) == [
            {"value": i} for i in range(2)
        ]


class TestGcMerge:
    def test_gc_folds_segments_into_the_primary_log(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)
        _fill(ResultStore(tmp_path, writer_id="a"), 2, 2)
        _fill(ResultStore(tmp_path, writer_id="b"), 4, 2)

        store = ResultStore(tmp_path)
        summary = store.gc()
        assert summary["merged_segments"] == 2
        assert summary["merged_entries"] == 4
        assert summary["entries"] == 6

        shard_dir = tmp_path / KIND
        assert not list(shard_dir.glob("data.*.jsonl"))
        assert not list(shard_dir.glob("index.*.jsonl"))
        fresh = ResultStore(tmp_path)
        assert fresh.stats()["entries"] == 6
        assert fresh.get_many(KIND, [_key(i) for i in range(6)]) == [
            {"value": i} for i in range(6)
        ]

    def test_gc_dedupes_records_present_in_several_segments(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)  # primary already holds 0, 1
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 4)  # overlaps
        store = ResultStore(tmp_path)
        summary = store.gc()
        assert summary["merged_entries"] == 2  # only 2 and 3 moved
        assert summary["entries"] == 4
        assert ResultStore(tmp_path).stats()["entries"] == 4

    def test_gc_is_idempotent(self, tmp_path):
        _fill(ResultStore(tmp_path, writer_id="a"), 0, 2)
        store = ResultStore(tmp_path)
        store.gc()
        second = store.gc()
        assert second["merged_segments"] == 0
        assert second["merged_entries"] == 0
        assert second["entries"] == 2


class TestStats:
    def test_stats_report_per_writer_segments(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)
        _fill(ResultStore(tmp_path, writer_id="a"), 2, 3)
        stats = ResultStore(tmp_path).stats()
        assert stats["entries"] == 5
        assert stats["segment_files"] == 1
        assert stats["segment_bytes"] > 0
        segments = stats["shards"][KIND]["segments"]
        assert segments["a"]["entries"] == 3
        assert segments["a"]["data_bytes"] > 0

    def test_stats_without_segments_report_zero(self, tmp_path):
        _fill(ResultStore(tmp_path), 0, 2)
        stats = ResultStore(tmp_path).stats()
        assert stats["segment_files"] == 0
        assert stats["segment_bytes"] == 0
        assert stats["shards"][KIND]["segments"] == {}


def _writer_process(root: str, writer: str, start: int, n: int) -> None:
    store = ResultStore(root, writer_id=writer)
    store.put_many(
        KIND, [(_key(i), {"value": i}) for i in range(start, start + n)]
    )


class TestConcurrentWriters:
    def test_two_processes_write_one_root_without_corruption(self, tmp_path):
        ResultStore(tmp_path)  # stamp the marker before forking
        n = 200
        procs = [
            multiprocessing.Process(
                target=_writer_process,
                args=(str(tmp_path), writer, start, n),
            )
            for writer, start in (("p1", 0), ("p2", n))
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        reader = ResultStore(tmp_path)
        assert reader.stats()["entries"] == 2 * n
        got = reader.get_many(KIND, [_key(i) for i in range(2 * n)])
        assert got == [{"value": i} for i in range(2 * n)]

        # And the merge keeps every record.
        summary = reader.gc()
        assert summary["merged_segments"] == 2
        assert summary["entries"] == 2 * n
        assert ResultStore(tmp_path).stats()["entries"] == 2 * n
