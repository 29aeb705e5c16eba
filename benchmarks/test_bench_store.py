"""Bench: the sharded result store's two hot paths.

Two properties are pinned:

* **warm read** — serving a whole sweep's worth of entries from a
  shard (one index load + seek/read pairs);
* **batched write** — ``put_many`` appends a sweep's results through
  one file handle.

Entry payloads mimic an acceptance point (a few hundred bytes of JSON)
and the entry count mimics a mid-sized design-space sweep.
"""

from __future__ import annotations

from repro.experiments.store import ResultStore

#: Entries per benchmark round — a mid-sized sweep panel.
_ENTRIES = 400


def _key(i: int) -> dict:
    return {
        "format": 1,
        "kind": "bench",
        "seed": 2018,
        "index": i,
        "point": {"utilization": 0.1 + (i % 9) * 0.1},
        "params": {"cores": 4, "tasksets_per_point": 25},
    }


def _payload(i: int) -> dict:
    return {
        "outcomes": [
            {"utilization": 0.5, "accepted": bool((i + j) % 3), "eta": j * 0.25}
            for j in range(10)
        ]
    }


def _entries() -> list[tuple[dict, dict]]:
    return [(_key(i), _payload(i)) for i in range(_ENTRIES)]


def test_store_warm_read(benchmark, tmp_path):
    """Pinned: the cache warm-read hot path (batched shard reads)."""
    store = ResultStore(tmp_path / "v2")
    store.put_many("bench", _entries())
    keys = [_key(i) for i in range(_ENTRIES)]

    def warm_read():
        reader = ResultStore(tmp_path / "v2")
        return reader.get_many("bench", keys)

    results = benchmark(warm_read)
    assert all(r is not None for r in results)
    assert results[3] == _payload(3)


def test_store_put_many(benchmark, tmp_path):
    """Pinned: batched persistence of a sweep's computed points."""
    counter = iter(range(10_000))

    def write_batch():
        shard_dir = tmp_path / f"v2-{next(counter)}"
        return ResultStore(shard_dir).put_many("bench", _entries())

    written = benchmark(write_batch)
    assert written == _ENTRIES
