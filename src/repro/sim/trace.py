"""Execution-trace utilities: slice merging and an ASCII Gantt chart.

The simulator emits one :class:`~repro.sim.events.ExecutionSlice` per
(job, inter-event interval); these helpers consolidate them for human
inspection (examples) and for the conservation-law tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sim.events import ExecutionSlice

__all__ = ["merge_slices", "ascii_gantt"]


def merge_slices(slices: Iterable[ExecutionSlice]) -> list[ExecutionSlice]:
    """Coalesce back-to-back slices of the same task on the same core."""
    merged: list[ExecutionSlice] = []
    for s in sorted(slices, key=lambda s: (s.core, s.start, s.end)):
        if (
            merged
            and merged[-1].core == s.core
            and merged[-1].task == s.task
            and abs(merged[-1].end - s.start) <= 1e-9
        ):
            merged[-1] = ExecutionSlice(
                task=s.task, core=s.core, start=merged[-1].start, end=s.end
            )
        else:
            merged.append(s)
    return merged


def ascii_gantt(
    slices: Sequence[ExecutionSlice],
    start: float = 0.0,
    end: float | None = None,
    width: int = 78,
) -> str:
    """Render a per-core Gantt chart with one character per time bucket.

    Each core gets one row; the busiest task inside a bucket provides the
    (first-letter) glyph, idle buckets render as ``.``.  Intended for
    quick schedule inspection in the examples, not for precise analysis.
    """
    slices = list(slices)
    if not slices:
        return "(no execution slices)"
    if end is None:
        end = max(s.end for s in slices)
    span = end - start
    if span <= 0 or width < 1:
        return "(empty window)"
    bucket = span / width
    cores = sorted({s.core for s in slices})
    lines = []
    for core in cores:
        occupancy: list[dict[str, float]] = [dict() for _ in range(width)]
        for s in slices:
            if s.core != core or s.end <= start or s.start >= end:
                continue
            lo = max(s.start, start)
            hi = min(s.end, end)
            first = int((lo - start) / bucket)
            last = min(int((hi - start) / bucket), width - 1)
            for b in range(first, last + 1):
                b_lo = start + b * bucket
                b_hi = b_lo + bucket
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    occupancy[b][s.task] = (
                        occupancy[b].get(s.task, 0.0) + overlap
                    )
        row = []
        for cell in occupancy:
            if not cell:
                row.append(".")
            else:
                winner = max(cell.items(), key=lambda kv: kv[1])[0]
                row.append(winner[0].upper())
        lines.append(f"core {core}: " + "".join(row))
    scale = f"         t = [{start:g}, {end:g}], {bucket:g} per char"
    return "\n".join(lines + [scale])
