"""Sharded, append-only columnar result store (cache format v2).

Every sweep point is content-addressed: the engine's
:meth:`~repro.experiments.parallel.SweepSpec.key_payload` hashed by
:func:`cache_key`.  The *values* are packed into per-experiment shards
rather than one file per point, so a 10⁴–10⁵-point design-space sweep
costs one index load and a run of ``seek``/``read`` pairs instead of
10⁵ ``open``/``stat`` calls::

    <root>/store.json              # format marker ({"format": 2})
    <root>/<kind>/data.jsonl       # append-only record log (primary)
    <root>/<kind>/index.jsonl      # append-only hash → (offset, length)
    <root>/<kind>/data.<w>.jsonl   # writer <w>'s segment (optional)
    <root>/<kind>/index.<w>.jsonl  # writer <w>'s segment index

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

Appending is still single-writer — but *per file pair*, not per root.
A process that may share the root with other live writers (the job
service next to a CLI run, several CLI runs against one network
mount) opens the store with a ``writer_id`` and appends to its own
*segment* (``data.<writer>.jsonl``/``index.<writer>.jsonl``) instead
of the primary log; no two well-behaved writers ever append to the
same file, so concurrent runs cannot interleave or tear each other's
records.  Reads always merge the primary log with every segment —
entries are content-addressed, so merge order is irrelevant — and
``repro-hydra cache gc`` folds segments back into the primary log
(deduplicating by digest) and deletes them.  Readers are unrestricted
throughout.

A writable open stamps the format marker when the root has none, so
a later build with a different layout refuses the directory instead
of misreading it.  Files of the retired JSON-per-point layout
(``<kind>/<sha256>.json``) are neither read nor deleted.
``repro-hydra cache stats|gc`` inspects and compacts a store from the
command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

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


class _Segment:
    """One append-only data/index file pair plus its in-memory index.

    A shard's *primary* segment is ``data.jsonl``/``index.jsonl``;
    writer segments are ``data.<writer>.jsonl``/``index.<writer>.
    jsonl``.  Every append-ordering crash-safety invariant lives at
    this level — a segment is exactly what the whole shard used to be
    before multi-writer support."""

    def __init__(
        self,
        directory: Path,
        data_path: Path,
        index_path: Path,
        readonly: bool = False,
    ) -> None:
        self.directory = directory
        self.readonly = readonly
        self.data_path = data_path
        self.index_path = index_path
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
        process — concurrent writers sharing one cache dir (the serve
        process plus a CLI run) must never clobber each other's
        in-flight temporary."""
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
        data_size = self._data_size()
        if data_size == 0:
            return {}
        if not self.index_path.exists():
            return self._rebuild_index()
        index: dict[str, tuple[int, int]] = {}
        damaged = False
        try:
            lines = self.index_path.read_bytes().splitlines()
        except OSError:
            return self._rebuild_index()
        for line in lines:
            try:
                entry = json.loads(line)
                digest = entry["h"]
                offset, length = int(entry["o"]), int(entry["n"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Torn trailing line from a killed run: the record it
                # pointed at (if complete) is recovered by a rebuild.
                damaged = True
                continue
            if offset < 0 or length <= 0 or offset + length > data_size:
                damaged = True
                continue
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
        if damaged or covered < data_size:
            return self._rebuild_index()
        return index

    def _rebuild_index(self) -> dict[str, tuple[int, int]]:
        """Re-derive the index by scanning the data log (recovers from
        a lost, torn, or stale ``index.jsonl``).

        The rebuilt index is persisted *best-effort* and never from a
        readonly handle: rebuilding happens on read paths (``get_many``,
        ``stats``), which must stay pure reads — writing from a
        readonly store is a write-on-read bug, and fails outright on a
        read-only filesystem.  A writable store whose directory turns
        out to be unwritable keeps the rebuilt index in memory; the
        next successful writer persists it.
        """
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
        if not self.readonly:
            try:
                self._write_index(index)
            except OSError:
                pass  # read paths must not fail on an unwritable dir
        return index

    def _write_index(self, index: Mapping[str, tuple[int, int]]) -> None:
        tmp = self._tmp_path(self.index_path)
        with tmp.open("w") as handle:
            for digest, (offset, length) in index.items():
                handle.write(
                    _canonical({"h": digest, "o": offset, "n": length})
                    + "\n"
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
                    # sha256 collision or hand-edited log: recompute.
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
        """Append ``(digest, key_payload, payload)`` records.  Data
        lines land (and are flushed) before their index lines, so a
        crash never leaves the index pointing at torn data."""
        if not entries:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        index = self.index
        positions: list[tuple[str, int, int]] = []
        repair = b""
        if self._data_size() > 0:
            # A torn tail (killed mid-write) must not concatenate with
            # the next record into one unparsable line — terminate it
            # so the line-based index rebuild keeps both readable.
            with self.data_path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    repair = b"\n"
        with self.data_path.open("ab") as handle:
            if repair:
                handle.write(repair)
            for digest, key_payload, payload in entries:
                line = _canonical(
                    {
                        "key": json.loads(_canonical(key_payload)),
                        "payload": payload,
                    }
                ).encode() + b"\n"
                offset = handle.tell()
                handle.write(line)
                positions.append((digest, offset, len(line) - 1))
            handle.flush()
        with self.index_path.open("ab") as handle:
            for digest, offset, length in positions:
                handle.write(
                    _canonical({"h": digest, "o": offset, "n": length})
                    .encode() + b"\n"
                )
                index[digest] = (offset, length)

    # -- maintenance -------------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Rewrite the log keeping only the live (indexed) records:
        drops superseded duplicates and torn tails.  Returns counts."""
        index = self.index
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

    def clear(self) -> int:
        removed = len(self.index)
        for path in (self.data_path, self.index_path):
            try:
                path.unlink()
            except OSError:
                pass
        self._index = {}
        return removed


_WRITER_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _valid_writer_id(writer_id: str) -> bool:
    """Writer ids become filename infixes (``data.<writer>.jsonl``),
    so they must be non-empty and dot/slash-free."""
    return bool(writer_id) and set(writer_id) <= _WRITER_ID_CHARS


class _Shard:
    """One experiment kind's record logs, merged into a single key
    space.

    A shard is a primary segment plus zero or more per-writer
    segments.  Appends go to exactly one segment — the primary when
    the store has no ``writer_id``, that writer's own file pair
    otherwise — while reads merge all of them (content addressing
    makes the merge order irrelevant: two segments holding the same
    digest hold the same record).  :meth:`merge_segments` (run by
    ``cache gc``) folds the writer segments back into the primary
    log and deletes them."""

    def __init__(
        self,
        directory: Path,
        readonly: bool = False,
        writer_id: str | None = None,
    ) -> None:
        self.directory = directory
        self.readonly = readonly
        self.writer_id = writer_id
        self._segments: dict[str | None, _Segment] = {}

    def _segment(self, writer: str | None) -> _Segment:
        if writer not in self._segments:
            if writer is None:
                data = self.directory / _DATA_NAME
                index = self.directory / _INDEX_NAME
            else:
                data = self.directory / f"data.{writer}.jsonl"
                index = self.directory / f"index.{writer}.jsonl"
            self._segments[writer] = _Segment(
                self.directory, data, index, readonly=self.readonly
            )
        return self._segments[writer]

    @property
    def _write_segment(self) -> _Segment:
        return self._segment(self.writer_id)

    def writer_ids(self) -> list[str]:
        """Writer segments present on disk or opened in memory."""
        ids = {writer for writer in self._segments if writer is not None}
        try:
            for path in self.directory.glob("data.*.jsonl"):
                writer = path.name[len("data.") : -len(".jsonl")]
                if _valid_writer_id(writer):
                    ids.add(writer)
        except OSError:
            pass
        return sorted(ids)

    def segments(self) -> list[_Segment]:
        """Primary first, then writer segments in sorted-id order."""
        return [self._segment(None)] + [
            self._segment(writer) for writer in self.writer_ids()
        ]

    def has_data(self) -> bool:
        return any(seg.data_path.exists() for seg in self.segments())

    def distinct_count(self) -> int:
        """Distinct digests across all segments (duplicates across
        writers are one logical entry)."""
        digests: set[str] = set()
        for seg in self.segments():
            digests.update(seg.index)
        return len(digests)

    def data_size(self) -> int:
        return sum(seg._data_size() for seg in self.segments())

    def get_many(
        self, requests: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> list[dict[str, Any] | None]:
        """Merged lookup: each segment serves the keys the previous
        ones missed."""
        results: list[dict[str, Any] | None] = [None] * len(requests)
        for seg in self.segments():
            pending = [i for i, found in enumerate(results) if found is None]
            if not pending:
                break
            if not seg.data_path.exists():
                continue
            found = seg.get_many([requests[i] for i in pending])
            for i, payload in zip(pending, found):
                if payload is not None:
                    results[i] = payload
        return results

    def append_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, Any], Mapping[str, Any]]],
    ) -> None:
        self._write_segment.append_many(entries)

    # -- maintenance -------------------------------------------------------

    def merge_segments(self) -> dict[str, int]:
        """Fold every writer segment into the primary log and delete
        the segment files.

        Records whose digest the primary (or an earlier segment)
        already holds are dropped — content addressing guarantees they
        are byte-identical payloads, so deduplication loses nothing.
        Crash-tolerant by the same append ordering as any write: a
        kill mid-merge leaves the copied records live in the primary
        and the not-yet-deleted segment still intact; the next gc
        simply dedupes them again."""
        primary = self._segment(None)
        merged_entries = 0
        writers = self.writer_ids()
        for writer in writers:
            seg = self._segment(writer)
            records: list[
                tuple[str, Mapping[str, Any], Mapping[str, Any]]
            ] = []
            if seg.index and seg.data_path.exists():
                with seg.data_path.open("rb") as handle:
                    for digest, (offset, length) in seg.index.items():
                        if digest in primary.index:
                            continue
                        handle.seek(offset)
                        raw = handle.read(length)
                        try:
                            record = json.loads(raw)
                        except json.JSONDecodeError:
                            continue  # corrupt region: nothing to keep
                        if (
                            not isinstance(record, dict)
                            or "key" not in record
                            or "payload" not in record
                        ):
                            continue
                        records.append(
                            (digest, record["key"], record["payload"])
                        )
            if records:
                primary.append_many(records)
                merged_entries += len(records)
            seg.clear()
            self._segments.pop(writer, None)
        return {
            "merged_segments": len(writers),
            "merged_entries": merged_entries,
        }

    def compact(self) -> dict[str, int]:
        """Merge writer segments into the primary, then compact it."""
        summary = self.merge_segments()
        summary.update(self._segment(None).compact())
        return summary

    def clear(self) -> int:
        removed = self.distinct_count()
        for seg in self.segments():
            seg.clear()
        self._segments = {}
        return removed


class ResultStore:
    """Directory-backed, sharded store of per-point sweep results.

    Surface: :meth:`get_many`/:meth:`put_many` (what the engine uses),
    ``hits``/``misses`` counters, and the :meth:`gc`/:meth:`stats`
    maintenance verbs behind ``repro-hydra cache``.

    Parameters
    ----------
    directory:
        Store root; created immediately, and its format marker stamped
        if absent.  An unusable location raises
        :class:`repro.errors.CacheError` before any point computes.
    readonly:
        Open for inspection only (``cache stats`` and the job
        service's result-fetch path do): nothing is created or
        written — no root mkdir, no marker, no stale-tmp cleanup,
        and writes raise :class:`CacheError`.  A missing root reads as
        an empty store.  Readonly stores **never persist rebuilt
        indexes**: a missing or stale ``index.jsonl`` is rebuilt
        in-memory only, so reads work even from a read-only
        filesystem (e.g. a ``chmod 0555`` cache directory).
    writer_id:
        Append to a private per-writer segment
        (``data.<writer_id>.jsonl``) instead of the primary log.
        Pass one whenever another live process may write the same
        root concurrently — each process picks a distinct id (the job
        service uses ``serve<pid>``) and their appends can never
        interleave.  Reads are unaffected (every handle merges all
        segments), and ``gc`` later folds segments back into the
        primary log.  Must be non-empty ``[A-Za-z0-9_-]`` and is
        incompatible with ``readonly``.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        readonly: bool = False,
        writer_id: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.readonly = readonly
        if writer_id is not None:
            if readonly:
                raise ValidationError(
                    "writer_id is meaningless on a readonly store"
                )
            if not _valid_writer_id(writer_id):
                raise ValidationError(
                    f"invalid writer_id {writer_id!r}: need non-empty "
                    f"[A-Za-z0-9_-]"
                )
        self.writer_id = writer_id
        if not readonly:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CacheError(
                    f"cache root {str(self.directory)!r} is unusable: {exc}"
                ) from exc
        self.hits = 0
        self.misses = 0
        self._shards: dict[str, _Shard] = {}
        self._check_marker()
        if not readonly and not self._marker_path.exists():
            self._write_marker()

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
        try:
            self._marker_path.write_text(
                json.dumps({"format": STORE_FORMAT}) + "\n"
            )
        except OSError as exc:
            raise CacheError(
                f"cache root {str(self.directory)!r} is unusable: {exc}"
            ) from exc

    # -- shards ----------------------------------------------------------

    def _shard(self, kind: str) -> _Shard:
        if kind not in self._shards:
            if not kind or "/" in kind or kind.startswith("."):
                raise ValidationError(f"invalid experiment kind {kind!r}")
            self._shards[kind] = _Shard(
                self.directory / kind,
                readonly=self.readonly,
                writer_id=self.writer_id,
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
                if child.is_dir() and (
                    (child / _DATA_NAME).exists()
                    # A kind dir holding only writer segments (its
                    # primary log never materialised) is still a shard.
                    or any(child.glob("data.*.jsonl"))
                ):
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
        if not shard.has_data():
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
        handle."""
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
        """Compact every shard: fold per-writer segments back into the
        primary log (deduplicating by digest), drop superseded
        duplicates, torn tails, and leftover empty shard directories.
        Returns a summary."""
        self._require_writable("gc")
        shards: dict[str, dict[str, int]] = {}
        reclaimed = 0
        for kind in self._shard_kinds():
            shard = self._shard(kind)
            if shard.distinct_count() == 0:
                shard.clear()
                try:
                    shard.directory.rmdir()
                except OSError:
                    pass
                continue
            summary = shard.compact()
            shards[kind] = summary
            reclaimed += summary["reclaimed_bytes"]
        return {
            "shards": shards,
            "entries": sum(s["entries"] for s in shards.values()),
            "reclaimed_bytes": reclaimed,
            "merged_segments": sum(
                s["merged_segments"] for s in shards.values()
            ),
            "merged_entries": sum(
                s["merged_entries"] for s in shards.values()
            ),
        }

    def stats(self) -> dict[str, Any]:
        """Shape and size of the store (``repro-hydra cache stats``).

        ``entries`` counts *distinct* digests (a record present in the
        primary log and in a writer segment is one logical entry);
        ``segment_files``/``segment_bytes`` total the per-writer
        segment data files awaiting a ``gc`` merge."""
        shards = {}
        segment_files = 0
        segment_bytes = 0
        for kind in self._shard_kinds():
            shard = self._shard(kind)
            segments = {}
            for writer in shard.writer_ids():
                seg = shard._segment(writer)
                if not seg.data_path.exists():
                    continue
                size = seg._data_size()
                segments[writer] = {
                    "entries": len(seg.index),
                    "data_bytes": size,
                }
                segment_files += 1
                segment_bytes += size
            shards[kind] = {
                "entries": shard.distinct_count(),
                "data_bytes": shard.data_size(),
                "segments": segments,
            }
        return {
            "directory": str(self.directory),
            "format": STORE_FORMAT,
            "entries": sum(s["entries"] for s in shards.values()),
            "data_bytes": sum(s["data_bytes"] for s in shards.values()),
            "segment_files": segment_files,
            "segment_bytes": segment_bytes,
            "shards": shards,
        }
