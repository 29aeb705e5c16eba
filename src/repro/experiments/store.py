"""Sharded, append-only columnar result store (cache format v2).

Every sweep point is content-addressed: the engine's
:meth:`~repro.experiments.parallel.SweepSpec.key_payload` hashed by
:func:`cache_key`.  The *values* are packed into per-experiment shards
rather than one file per point, so a 10⁴–10⁵-point design-space sweep
costs one index load and a run of ``seek``/``read`` pairs instead of
10⁵ ``open``/``stat`` calls::

    <root>/store.json              # format marker ({"format": 2})
    <root>/store.lock              # the store's write lock (empty)
    <root>/<kind>/data.jsonl       # append-only record log
    <root>/<kind>/index.jsonl      # append-only hash → (offset, length)

Each ``data.jsonl`` record is the canonical JSON
``{"key": <key payload>, "payload": <result>}`` on one line — the
stored key keeps entries auditable and guards against hash collisions.
``index.jsonl`` holds one compact line per record
(``{"h": sha256, "o": offset, "n": length}``); loading a shard reads
only the index, and :meth:`ResultStore.get_many` then serves any
subset of a sweep with one file handle and ``seek``/``read`` pairs.

Crash safety comes from append ordering rather than atomic renames: a
record's index line is written only after its data line, so a killed
run can leave at most a torn *trailing* line in either file — torn
data is unreferenced, torn index lines are skipped on load, and a
missing or stale index is rebuilt by scanning the data log.

Concurrent writers (CLI runs sharing ``--resume``'s directory, the job
service next to a CLI run, ``cache gc``) share one log per shard and
take turns under one exclusive lock per store: ``fcntl.flock`` on
``store.lock``, a root-level file that is created by a writable open
and never replaced or deleted.  Every append (at the log's real end,
read while the lock is held), every persisted index rebuild (the scan
and the write) and every compaction (which also decides whether a
shard is empty) holds it, so no writer can interleave with, overwrite
or drop another's records.  Reads take no lock: an index line is
written only after its record, and a read that races a compaction
finds at worst a stale offset, which the stored-key check turns into
a miss that recomputes.

A writable open stamps the format marker when the root has none, so
a later build with a different layout refuses the directory instead
of misreading it.  Files of the retired JSON-per-point layout
(``<kind>/<sha256>.json``) and the per-writer segment files that older
builds wrote beside a shard's log are neither read nor deleted.
``repro-hydra cache stats|gc`` inspects and compacts a store from the
command line.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import CacheError, ValidationError

__all__ = [
    "CACHE_FORMAT",
    "STORE_FORMAT",
    "ResultStore",
    "cache_key",
]

#: Key-payload format version (part of every key payload).  Bumping it
#: changes every key, so it stays fixed while results are unchanged.
#: 2: the per-core simulation kernel moves some detection times by ulps,
#: so a store written before it never serves pre-kernel points.
#: 3: ``scenario`` payload cells hold one tightness per task set instead
#: of accepted/total/tightness-sum tallies, so a store written before
#: never serves a tally payload to the list reader.
#: 4: every point draws its task sets one ``generate`` call at a time,
#: so workload-axis and synthetic detection points moved; a store
#: written before never serves a task set of the retired batch route.
#: 5: detection points simulate the security tasks alone, in the idle
#: time of the real-time band.  That path gives the kernel's detection
#: times bit for bit on every input tested, not by proof, so a store
#: written before never serves a point the whole-core kernel simulated.
CACHE_FORMAT = 5

#: On-disk layout version of this module, stamped into ``store.json``.
STORE_FORMAT = 2

_MARKER_NAME = "store.json"
_LOCK_NAME = "store.lock"
_DATA_NAME = "data.jsonl"
_INDEX_NAME = "index.jsonl"

#: A ``*.tmp`` atomic-write temporary older than this is an orphan
#: from a crashed writer and safe to reap; anything younger may be
#: another live process's in-flight write (the serve process and the
#: CLI deliberately share one cache dir).
_TMP_STALE_SECONDS = 60.0 * 60.0


def _canonical(payload: Any) -> str:
    """Canonical JSON (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(payload: Mapping[str, Any]) -> str:
    """Content hash of a key payload: sha256 over its canonical JSON."""
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _index_line(digest: str, offset: int, length: int) -> bytes:
    return (
        _canonical({"h": digest, "o": offset, "n": length}).encode() + b"\n"
    )


@contextlib.contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Hold the store's exclusive lock: ``flock`` on ``path``.

    Every acquisition opens its own file description, and ``flock``
    locks conflict between descriptions, so the lock excludes other
    threads of this process (a job runner's drain thread next to a
    synchronous run on the same store) as well as other processes.
    Closing the description releases it, also when the holder dies."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


class _Shard:
    """One experiment kind's record log and index, plus the index in
    memory.  Every append-ordering crash-safety invariant lives here.

    ``lock_path`` is the store's lock file, ``None`` for a readonly
    store, which then never writes: a lost or stale index is rebuilt
    in memory only."""

    def __init__(self, directory: Path, lock_path: Path | None) -> None:
        self.directory = directory
        self.lock_path = lock_path
        self.readonly = lock_path is None
        self.data_path = directory / _DATA_NAME
        self.index_path = directory / _INDEX_NAME
        self._index: dict[str, tuple[int, int]] | None = None

    # -- index ---------------------------------------------------------

    @property
    def index(self) -> dict[str, tuple[int, int]]:
        if self._index is None:
            self._index = self._load_index()
        return self._index

    def _data_size(self) -> int:
        try:
            return self.data_path.stat().st_size
        except OSError:
            return 0

    def _tmp_path(self, target: Path) -> Path:
        """The atomic-write temporary for ``target``, unique per
        process."""
        return target.with_suffix(f".jsonl.{os.getpid()}.tmp")

    def _clean_stale_tmp(self) -> None:
        """Remove *stale* orphaned atomic-write temporaries.

        :meth:`_write_index` and :meth:`compact` write a pid-suffixed
        ``*.tmp`` and then ``os.replace`` it into place; a crash
        between the two strands the temporary forever (the replace
        never happens again under that name).  Only temporaries older
        than :data:`_TMP_STALE_SECONDS` are reaped — a younger one may
        belong to another live process mid-write, and deleting it
        would make that process's ``os.replace`` fail.  Readonly
        handles skip the cleanup entirely — a readonly store performs
        no writes of any kind.
        """
        if self.readonly:
            return
        cutoff = time.time() - _TMP_STALE_SECONDS
        try:
            candidates = list(self.directory.glob("*.tmp"))
        except OSError:
            return
        for path in candidates:
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
            except OSError:
                pass  # e.g. an unwritable directory: harmless leftover

    def _load_index(self) -> dict[str, tuple[int, int]]:
        self._clean_stale_tmp()
        index = self._read_index()
        if index is not None:
            return index
        if self.readonly:
            return self._scan()
        # Persist the rebuilt index.  The scan and the write both hold
        # the lock: an append between them would be missing from the
        # written index, and the next compaction would drop it.
        try:
            with _locked(self.lock_path):
                index = self._scan()
                self._write_index(index)
            return index
        except OSError:  # read paths must not fail on an unwritable dir
            return self._scan()

    def _read_index(self) -> dict[str, tuple[int, int]] | None:
        """The index on disk, or ``None`` when it must be rebuilt: it
        is missing, holds a torn or out-of-range line, or stops short
        of the data log."""
        data_size = self._data_size()
        if data_size == 0:
            return {}
        try:
            lines = self.index_path.read_bytes().splitlines()
        except OSError:
            return None
        index: dict[str, tuple[int, int]] = {}
        for line in lines:
            try:
                entry = json.loads(line)
                digest = entry["h"]
                offset, length = int(entry["o"]), int(entry["n"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Torn trailing line from a killed run: the record it
                # pointed at (if complete) is recovered by a rebuild.
                return None
            if offset < 0 or length <= 0 or offset + length > data_size:
                return None
            index[digest] = (offset, length)
        # The index must also *cover* the data log: a crash between a
        # batch's data flush and its index append leaves well-formed
        # index lines that simply stop short, and the orphaned records
        # would otherwise be invisible (and gc would drop them).  The
        # +1 accounts for each record's trailing newline.
        covered = max(
            (offset + length + 1 for offset, length in index.values()),
            default=0,
        )
        return index if covered >= data_size else None

    def _scan(self) -> dict[str, tuple[int, int]]:
        """Re-derive the index by scanning the data log (recovers from
        a lost, torn, or stale ``index.jsonl``)."""
        index: dict[str, tuple[int, int]] = {}
        if not self.data_path.exists():
            return index
        offset = 0
        with self.data_path.open("rb") as handle:
            for line in handle:
                length = len(line)
                record_len = len(line.rstrip(b"\n"))
                if line.endswith(b"\n") and record_len > 0:
                    try:
                        record = json.loads(line)
                        index[cache_key(record["key"])] = (
                            offset, record_len,
                        )
                    except (json.JSONDecodeError, KeyError, TypeError):
                        pass  # torn or foreign line: unreferenced
                offset += length
        return index

    def _write_index(self, index: Mapping[str, tuple[int, int]]) -> None:
        tmp = self._tmp_path(self.index_path)
        with tmp.open("wb") as handle:
            handle.write(
                b"".join(
                    _index_line(digest, offset, length)
                    for digest, (offset, length) in index.items()
                )
            )
        os.replace(tmp, self.index_path)

    # -- access ----------------------------------------------------------

    def get_many(
        self, requests: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> list[dict[str, Any] | None]:
        """Payloads for ``(digest, key_payload)`` requests (``None`` per
        miss).  One file handle serves the whole batch."""
        results: list[dict[str, Any] | None] = [None] * len(requests)
        index = self.index
        located = [
            (i, digest, key_payload, index[digest])
            for i, (digest, key_payload) in enumerate(requests)
            if digest in index
        ]
        if not located:
            return results
        with self.data_path.open("rb") as handle:
            # Read in offset order: sequential I/O even when the sweep
            # interleaves cached and missing points.
            for i, digest, key_payload, (offset, length) in sorted(
                located, key=lambda item: item[3]
            ):
                handle.seek(offset)
                raw = handle.read(length)
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # corrupt region: a miss, recomputed
                if (
                    not isinstance(record, dict)
                    or "payload" not in record
                    # sha256 collision, hand-edited log, or an offset a
                    # concurrent compaction moved: recompute.
                    or record.get("key") != json.loads(
                        _canonical(key_payload)
                    )
                ):
                    continue
                results[i] = record["payload"]
        return results

    def append_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, Any], Mapping[str, Any]]],
    ) -> None:
        """Append ``(digest, key_payload, payload)`` records under the
        store lock, at the real end of the log.  Data lines land (and
        are flushed) before their index lines, so a crash never leaves
        the index pointing at torn data."""
        if not entries:
            return
        # Load the index first, rebuilding it if it stops short of the
        # log: once this batch's index lines land after a tail that a
        # crashed writer left unindexed, the index would look complete.
        if self._index is None:
            self._index = self._load_index()
        lines = [
            (
                digest,
                _canonical(
                    {
                        "key": json.loads(_canonical(key_payload)),
                        "payload": payload,
                    }
                ).encode() + b"\n",
            )
            for digest, key_payload, payload in entries
        ]
        positions: list[tuple[str, int, int]] = []
        with _locked(self.lock_path):
            # gc may have removed an emptied shard's directory.
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.data_path.open("a+b") as handle:
                end = handle.seek(0, os.SEEK_END)
                if end and os.pread(handle.fileno(), 1, end - 1) != b"\n":
                    # A torn tail (killed mid-write) must not
                    # concatenate with the next record into one
                    # unparsable line — terminate it so the line-based
                    # index rebuild keeps both readable.
                    handle.write(b"\n")
                    end += 1
                for digest, line in lines:
                    positions.append((digest, end, len(line) - 1))
                    end += len(line)
                handle.write(b"".join(line for _, line in lines))
            with self.index_path.open("ab") as handle:
                handle.write(b"".join(_index_line(*at) for at in positions))
            for digest, offset, length in positions:
                self._index[digest] = (offset, length)

    # -- maintenance -------------------------------------------------------

    def compact(self) -> dict[str, int] | None:
        """Rewrite the log keeping only the live records: drops
        superseded duplicates and torn tails.  Returns counts, or
        ``None`` when the shard held no live record and was removed
        (its directory too, unless other files remain in it).

        All of it holds the store lock, and the live records are read
        from the index on disk, not from memory, so records that other
        writers appended since this shard was loaded are kept."""
        with _locked(self.lock_path):
            index = self._read_index()
            if index is None:
                index = self._scan()
            if not index:
                for path in (self.data_path, self.index_path):
                    with contextlib.suppress(OSError):
                        path.unlink()
                with contextlib.suppress(OSError):
                    self.directory.rmdir()
                self._index = {}
                return None
            old_bytes = self._data_size() + (
                self.index_path.stat().st_size
                if self.index_path.exists() else 0
            )
            records: list[tuple[str, bytes]] = []
            with self.data_path.open("rb") as handle:
                for digest, (offset, length) in index.items():
                    handle.seek(offset)
                    raw = handle.read(length)
                    try:
                        json.loads(raw)
                    except json.JSONDecodeError:
                        continue
                    records.append((digest, raw))
            tmp = self._tmp_path(self.data_path)
            new_index: dict[str, tuple[int, int]] = {}
            offset = 0
            with tmp.open("wb") as handle:
                for digest, raw in records:
                    handle.write(raw + b"\n")
                    new_index[digest] = (offset, len(raw))
                    offset += len(raw) + 1
            os.replace(tmp, self.data_path)
            self._write_index(new_index)
            self._index = new_index
            new_bytes = self._data_size() + self.index_path.stat().st_size
        return {
            "entries": len(new_index),
            "reclaimed_bytes": max(0, old_bytes - new_bytes),
        }


class ResultStore:
    """Directory-backed, sharded store of per-point sweep results.

    Surface: :meth:`get_many`/:meth:`put_many` (what the engine uses),
    ``hits``/``misses`` counters, and the :meth:`gc`/:meth:`stats`
    maintenance verbs behind ``repro-hydra cache``.  Any number of
    processes and threads may write one root at once (see the module
    docstring).

    Parameters
    ----------
    directory:
        Store root; created immediately, with its format marker
        stamped if absent and its lock file.  An unusable location
        raises :class:`repro.errors.CacheError` before any point
        computes.
    readonly:
        Open for inspection only (``cache stats`` does): nothing is
        created, locked or written — no root mkdir, no marker, no lock
        file, no stale-tmp cleanup, and writes raise
        :class:`CacheError`.  A missing root reads as an empty store.
        Readonly stores **never persist rebuilt indexes**: a missing or
        stale ``index.jsonl`` is rebuilt in-memory only, so reads work
        even from a read-only filesystem (e.g. a ``chmod 0555`` cache
        directory).
    """

    def __init__(
        self, directory: str | Path, *, readonly: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.readonly = readonly
        self.hits = 0
        self.misses = 0
        self._shards: dict[str, _Shard] = {}
        self._lock_path = None if readonly else self.directory / _LOCK_NAME
        if readonly:
            self._check_marker()
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if not self._marker_path.exists():
                self._write_marker()
            self._check_marker()
            os.close(os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644))
        except CacheError:
            raise  # a foreign or damaged marker, reported as such
        except OSError as exc:
            raise CacheError(
                f"cache root {str(self.directory)!r} is unusable: {exc}"
            ) from exc

    # -- format marker ---------------------------------------------------

    @property
    def _marker_path(self) -> Path:
        return self.directory / _MARKER_NAME

    def _check_marker(self) -> None:
        if not self._marker_path.exists():
            return
        try:
            marker = json.loads(self._marker_path.read_text())
            fmt = int(marker["format"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise CacheError(
                f"{self._marker_path} is not a valid store marker: {exc}"
            ) from None
        if fmt != STORE_FORMAT:
            raise CacheError(
                f"{self.directory} holds store format {fmt}; this build "
                f"reads format {STORE_FORMAT}"
            )

    def _write_marker(self) -> None:
        """Stamp the marker through a temporary and ``os.replace``, so
        a concurrent first open reads no marker or a whole one, never
        an empty file."""
        tmp = self.directory / (
            f"{_MARKER_NAME}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps({"format": STORE_FORMAT}) + "\n")
        os.replace(tmp, self._marker_path)

    # -- shards ----------------------------------------------------------

    def _shard(self, kind: str) -> _Shard:
        if kind not in self._shards:
            if not kind or "/" in kind or kind.startswith("."):
                raise ValidationError(f"invalid experiment kind {kind!r}")
            self._shards[kind] = _Shard(
                self.directory / kind, self._lock_path
            )
        return self._shards[kind]

    def _require_writable(self, action: str) -> None:
        if self.readonly:
            raise CacheError(
                f"store {str(self.directory)!r} was opened read-only; "
                f"cannot {action}"
            )

    def _shard_kinds(self) -> list[str]:
        kinds = set(self._shards)
        if self.directory.is_dir():
            for child in self.directory.iterdir():
                if child.is_dir() and (child / _DATA_NAME).exists():
                    kinds.add(child.name)
        return sorted(kinds)

    # -- access ------------------------------------------------------------

    def get_many(
        self, kind: str, key_payloads: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any] | None]:
        """One stored result (or ``None`` on a miss) per key, in order,
        served from a single pass over the shard."""
        if not key_payloads:
            return []
        shard = self._shard(kind)
        if not shard.data_path.exists():
            self.misses += len(key_payloads)
            return [None] * len(key_payloads)
        results = shard.get_many(
            [(cache_key(k), k) for k in key_payloads]
        )
        found = sum(1 for r in results if r is not None)
        self.hits += found
        self.misses += len(results) - found
        return results

    def put_many(
        self,
        kind: str,
        entries: Iterable[
            tuple[Mapping[str, Any], Mapping[str, Any]]
        ],
    ) -> int:
        """Persist each ``(key_payload, payload)``; returns the number of
        records written.  The whole batch is appended through one file
        handle, under one hold of the store lock."""
        batch = [
            (cache_key(key_payload), key_payload, payload)
            for key_payload, payload in entries
        ]
        if not batch:
            return 0
        self._require_writable("write entries")
        try:
            self._shard(kind).append_many(batch)
        except OSError as exc:
            raise CacheError(
                f"cannot write to cache shard "
                f"{str(self.directory / kind)!r}: {exc}"
            ) from exc
        return len(batch)

    # -- maintenance -----------------------------------------------------------

    def gc(self) -> dict[str, Any]:
        """Compact every shard under the store lock: drop superseded
        duplicates and torn tails, and remove shards left with no live
        record.  Returns a summary."""
        self._require_writable("gc")
        shards: dict[str, dict[str, int]] = {}
        for kind in self._shard_kinds():
            summary = self._shard(kind).compact()
            if summary is not None:
                shards[kind] = summary
        return {
            "shards": shards,
            "entries": sum(s["entries"] for s in shards.values()),
            "reclaimed_bytes": sum(
                s["reclaimed_bytes"] for s in shards.values()
            ),
        }

    def stats(self) -> dict[str, Any]:
        """Shape and size of the store (``repro-hydra cache stats``)."""
        shards = {}
        for kind in self._shard_kinds():
            shard = self._shard(kind)
            shards[kind] = {
                "entries": len(shard.index),
                "data_bytes": shard._data_size(),
            }
        return {
            "directory": str(self.directory),
            "format": STORE_FORMAT,
            "entries": sum(s["entries"] for s in shards.values()),
            "data_bytes": sum(s["data_bytes"] for s in shards.values()),
            "shards": shards,
        }
