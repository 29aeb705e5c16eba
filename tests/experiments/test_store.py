"""Unit tests for the sharded columnar result store (cache v2).

Covers the storage contract the engine leans on — batched get/put,
byte-exact JSON round trips, crash tolerance (torn lines, lost index),
the typed fail-fast error on unusable roots — and that files left by
the retired JSON-per-point layout are inert.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CacheError, ReproError, ValidationError
from repro.experiments.parallel import SweepEngine, SweepSpec
from repro.experiments.store import STORE_FORMAT, ResultStore, cache_key


def _key(i: int) -> dict:
    return {"format": 1, "kind": "demo", "seed": 42, "index": i}


def _payload(i: int) -> dict:
    return {"value": i * 1.5, "items": list(range(i % 3))}


def _fill(store: ResultStore, n: int = 5, kind: str = "demo") -> None:
    store.put_many(kind, [(_key(i), _payload(i)) for i in range(n)])


class TestRoundTrip:
    def test_put_get_single(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("demo", _key(0), _payload(0))
        assert store.get("demo", _key(0)) == _payload(0)
        assert store.hits == 1

    def test_get_many_preserves_order_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, 3)
        results = store.get_many(
            "demo", [_key(2), _key(9), _key(0)]
        )
        assert results == [_payload(2), None, _payload(0)]
        assert store.hits == 2 and store.misses == 1

    def test_round_trip_survives_json_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"nested": {"a": [1, 2.5, None, "x"]}, "flag": True}
        store.put("demo", _key(1), payload)
        reread = ResultStore(tmp_path).get("demo", _key(1))
        assert json.dumps(reread, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_persists_across_instances(self, tmp_path):
        _fill(ResultStore(tmp_path), 4)
        store = ResultStore(tmp_path)
        assert len(store) == 4
        assert store.get("demo", _key(3)) == _payload(3)

    def test_kinds_are_isolated_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("alpha", _key(0), {"v": "a"})
        store.put("beta", _key(0), {"v": "b"})
        assert store.get("alpha", _key(0)) == {"v": "a"}
        assert store.get("beta", _key(0)) == {"v": "b"}
        assert (tmp_path / "alpha" / "data.jsonl").exists()
        assert (tmp_path / "beta" / "data.jsonl").exists()

    def test_overwrite_returns_latest(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("demo", _key(0), {"v": 1})
        store.put("demo", _key(0), {"v": 2})
        assert store.get("demo", _key(0)) == {"v": 2}
        assert ResultStore(tmp_path).get("demo", _key(0)) == {"v": 2}

    def test_empty_batches_are_noops(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_many("demo", []) == []
        assert store.put_many("demo", []) == 0

    def test_invalid_kind_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for kind in ("", "a/b", ".hidden"):
            with pytest.raises(ValidationError):
                store.put(kind, _key(0), {})


class TestCrashTolerance:
    def test_lost_index_is_rebuilt_from_data(self, tmp_path):
        _fill(ResultStore(tmp_path), 4)
        (tmp_path / "demo" / "index.jsonl").unlink()
        store = ResultStore(tmp_path)
        assert store.get("demo", _key(2)) == _payload(2)
        assert (tmp_path / "demo" / "index.jsonl").exists()

    def test_torn_trailing_data_line_is_invisible(self, tmp_path):
        _fill(ResultStore(tmp_path), 3)
        data = tmp_path / "demo" / "data.jsonl"
        with data.open("ab") as handle:
            handle.write(b'{"key": {"format": 1, "kind": "de')  # killed
        store = ResultStore(tmp_path)
        assert len(store) == 3
        assert store.get("demo", _key(1)) == _payload(1)

    def test_torn_index_line_triggers_rebuild(self, tmp_path):
        _fill(ResultStore(tmp_path), 3)
        index = tmp_path / "demo" / "index.jsonl"
        with index.open("ab") as handle:
            handle.write(b'{"h": "dead')
        store = ResultStore(tmp_path)
        assert len(store) == 3
        assert store.get("demo", _key(0)) == _payload(0)

    def test_unindexed_data_records_are_recovered(self, tmp_path):
        """Crash window between append_many's data flush and its index
        append: the flushed records must be rediscovered by the
        coverage check, not silently lost."""
        store = ResultStore(tmp_path)
        _fill(store, 3)
        orphan = ResultStore(tmp_path)
        orphan.put("demo", _key(7), _payload(7))
        # Simulate the crash: drop the orphan's index line only.
        index = tmp_path / "demo" / "index.jsonl"
        lines = index.read_bytes().splitlines(keepends=True)
        index.write_bytes(b"".join(lines[:3]))
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 4
        assert reopened.get("demo", _key(7)) == _payload(7)

    def test_append_after_torn_tail_stays_rebuildable(self, tmp_path):
        """A new record appended after a torn tail must not fuse with
        it into one unparsable line."""
        _fill(ResultStore(tmp_path), 2)
        data = tmp_path / "demo" / "data.jsonl"
        with data.open("ab") as handle:
            handle.write(b'{"key": {"torn')  # killed mid-write
        store = ResultStore(tmp_path)
        store.put("demo", _key(7), _payload(7))
        assert store.get("demo", _key(7)) == _payload(7)
        (tmp_path / "demo" / "index.jsonl").unlink()
        rebuilt = ResultStore(tmp_path)
        assert len(rebuilt) == 3  # both old and new survived the scan
        assert rebuilt.get("demo", _key(7)) == _payload(7)

    def test_truncated_data_downgrades_to_misses(self, tmp_path):
        _fill(ResultStore(tmp_path), 3)
        data = tmp_path / "demo" / "data.jsonl"
        data.write_bytes(data.read_bytes()[:10])
        store = ResultStore(tmp_path)
        results = store.get_many("demo", [_key(i) for i in range(3)])
        assert all(r is None for r in results)

    def test_hash_collision_audit(self, tmp_path):
        """An entry whose stored key disagrees with the probe key is a
        miss, even though the sha256 bucket matches."""
        store = ResultStore(tmp_path)
        store.put("demo", _key(0), _payload(0))
        shard = store._shard("demo")
        digest = cache_key(_key(1))  # alias key 1's bucket at key 0's data
        shard.index[digest] = next(iter(shard.index.values()))
        assert store.get("demo", _key(1)) is None


class TestFailFast:
    def test_unusable_root_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        with pytest.raises(CacheError):
            ResultStore(blocker / "cache")

    def test_cache_error_is_typed_and_catchable(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ReproError):
            ResultStore(blocker / "cache")
        with pytest.raises(OSError):  # legacy handlers keep working
            ResultStore(blocker / "cache")

    def test_future_format_marker_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text(
            json.dumps({"format": STORE_FORMAT + 1})
        )
        with pytest.raises(CacheError):
            ResultStore(tmp_path)

    def test_garbage_marker_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text("not json at all")
        with pytest.raises(CacheError):
            ResultStore(tmp_path)


class TestReadonly:
    def test_reads_but_never_writes(self, tmp_path):
        _fill(ResultStore(tmp_path), 3)
        (tmp_path / "demo" / "index.jsonl").unlink()
        snapshot = sorted(p.name for p in tmp_path.rglob("*"))
        store = ResultStore(tmp_path, readonly=True)
        assert store.get("demo", _key(1)) == _payload(1)  # index rebuilt…
        assert store.stats()["entries"] == 3
        # …but only in memory: not a single file created or touched.
        assert sorted(p.name for p in tmp_path.rglob("*")) == snapshot

    def test_missing_root_reads_as_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent", readonly=True)
        assert store.get("demo", _key(0)) is None
        assert store.stats()["entries"] == 0
        assert not (tmp_path / "absent").exists()

    def test_write_verbs_raise(self, tmp_path):
        _fill(ResultStore(tmp_path), 1)
        store = ResultStore(tmp_path, readonly=True)
        with pytest.raises(CacheError):
            store.put("demo", _key(9), _payload(9))
        with pytest.raises(CacheError):
            store.gc()
        with pytest.raises(CacheError):
            store.clear()


class TestRetiredLayout:
    """A root holding ``<kind>/<sha256>.json`` files from the retired
    JSON-per-point layout and no marker: the files are never read and
    never deleted."""

    def _spec(self) -> SweepSpec:
        return SweepSpec(
            kind="calibration",
            seed=11,
            points=tuple({"index": i} for i in range(4)),
        )

    def _leave_files(self, root, spec, payloads) -> list:
        paths = []
        for index, payload in enumerate(payloads):
            key = spec.key_payload(index)
            path = root / spec.kind / f"{cache_key(key)}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps({"key": key, "payload": payload}, sort_keys=True)
            )
            paths.append(path)
        return paths

    def test_writable_open_stamps_marker_and_ignores_the_files(
        self, tmp_path
    ):
        spec = self._spec()
        uncached = SweepEngine().run(spec)
        leftovers = self._leave_files(tmp_path, spec, uncached.payloads)

        store = ResultStore(tmp_path)
        assert (tmp_path / "store.json").exists()
        assert all(path.exists() for path in leftovers)
        stats = store.stats()
        assert not [key for key in stats if "v1" in key or "migr" in key]
        assert stats["entries"] == 0

        computed: list[int] = []
        cached = SweepEngine(
            cache=store, on_point_computed=computed.append
        ).run(spec)
        assert sorted(computed) == list(range(len(spec.points)))
        assert store.hits == 0
        assert json.dumps(cached.payloads, sort_keys=True) == json.dumps(
            uncached.payloads, sort_keys=True
        )
        assert all(path.exists() for path in leftovers)

    def test_readonly_open_creates_nothing(self, tmp_path):
        spec = self._spec()
        self._leave_files(tmp_path, spec, SweepEngine().run(spec).payloads)
        snapshot = sorted(p.name for p in tmp_path.rglob("*"))
        store = ResultStore(tmp_path, readonly=True)
        assert store.stats()["entries"] == 0
        assert store.get(spec.kind, spec.key_payload(0)) is None
        assert sorted(p.name for p in tmp_path.rglob("*")) == snapshot

    def test_gc_and_clear_leave_the_files_in_place(self, tmp_path):
        spec = self._spec()
        leftovers = self._leave_files(
            tmp_path, spec, SweepEngine().run(spec).payloads
        )
        torn = tmp_path / spec.kind / ("f" * 64 + ".json")
        torn.write_text("{ torn")
        leftovers.append(torn)

        store = ResultStore(tmp_path)
        SweepEngine(cache=store).run(spec)
        assert store.gc()["entries"] == len(spec.points)
        assert store.clear() == len(spec.points)
        # The emptied shard is reaped, but not the files beside it.
        assert store.gc()["entries"] == 0
        assert all(path.exists() for path in leftovers)


class TestMaintenance:
    def test_len_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, 3)
        _fill(store, 2, kind="other")
        assert len(store) == 5
        assert store.clear() == 5
        assert len(store) == 0
        assert ResultStore(tmp_path).get("demo", _key(0)) is None

    def test_gc_compacts_superseded_records(self, tmp_path):
        store = ResultStore(tmp_path)
        for _ in range(5):  # 5 generations of the same 3 keys
            _fill(store, 3)
        before = (tmp_path / "demo" / "data.jsonl").stat().st_size
        summary = store.gc()
        after = (tmp_path / "demo" / "data.jsonl").stat().st_size
        assert summary["entries"] == 3
        assert summary["reclaimed_bytes"] > 0
        assert after < before
        assert store.get("demo", _key(1)) == _payload(1)
        assert ResultStore(tmp_path).get("demo", _key(2)) == _payload(2)

    def test_stats_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, 3)
        stats = store.stats()
        assert stats["format"] == STORE_FORMAT
        assert stats["entries"] == 3
        assert stats["shards"]["demo"]["entries"] == 3
        assert stats["data_bytes"] > 0
